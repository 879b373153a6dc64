/**
 * @file
 * Minimal JSON parser: the read-side counterpart of JsonWriter.
 *
 * The sharded sweep coordinator deserializes per-cell result frames
 * streamed back from worker processes, and a crashed or chaos-
 * corrupted worker can hand it arbitrary bytes — so parsing must be
 * strictly crash-free: every malformed input returns a ParseError
 * Result, never an assertion. The parser builds a small immutable
 * DOM (JsonValue) with object members kept in document order.
 *
 * Numbers are parsed with strtod, which re-reads JsonWriter's
 * shortest-round-trip output to the bit-identical double — the
 * property the byte-identical sharded-merge contract rests on. The
 * writer's non-finite sentinels ("NaN", "Infinity", "-Infinity")
 * parse as strings; numberOrSentinel() folds them back to doubles
 * for callers that expect a numeric field.
 */

#ifndef RANA_UTIL_JSON_READER_HH_
#define RANA_UTIL_JSON_READER_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/result.hh"

namespace rana {

/** One parsed JSON value (immutable after parse). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /**
     * Parse `text` as one JSON document. Trailing non-whitespace,
     * unterminated scopes, bad escapes and malformed numbers all
     * fail with ErrorCode::ParseError; no input aborts.
     */
    static Result<JsonValue> parse(const std::string &text);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** @pre isBool() */
    bool asBool() const;
    /** @pre isNumber() */
    double asNumber() const;

    /**
     * This number as an exact unsigned 64-bit integer, re-read from
     * the raw document token (a double loses exactness past 2^53,
     * and trial seeds use the full range). Returns false when the
     * value is not a plain non-negative integer in u64 range.
     */
    bool asUint(std::uint64_t *out) const;
    /** @pre isString() */
    const std::string &asString() const;
    /** @pre isArray(); elements in document order. */
    const std::vector<JsonValue> &items() const;
    /** @pre isObject(); members in document order. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /**
     * The value of object member `key`, or nullptr when this is not
     * an object or has no such member (first match wins).
     */
    const JsonValue *find(const std::string &key) const;

    /**
     * This value as a double, folding the writer's non-finite
     * sentinel strings back to NaN/±Infinity. Returns false when the
     * value is neither a number nor a sentinel string.
     */
    bool numberOrSentinel(double *out) const;

    JsonValue() = default;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    /** String value (Kind::String) or raw token (Kind::Number). */
    std::string string_;
    /** Array elements (Kind::Array). */
    std::shared_ptr<const std::vector<JsonValue>> items_;
    /** Object members in document order (Kind::Object). */
    std::shared_ptr<
        const std::vector<std::pair<std::string, JsonValue>>>
        members_;
};

/**
 * Typed member getters for documents that arrive from another process
 * (telemetry frames, cell reports). Each returns std::nullopt once
 * `*out` holds the member, and otherwise the ParseError
 * "<context> field missing or mistyped: <key>" - never an assertion,
 * since the bytes may be corrupt.
 */
class JsonFieldReader
{
  public:
    /** `context` names the document kind in errors ("telemetry"). */
    explicit constexpr JsonFieldReader(const char *context)
        : context_(context)
    {
    }

    /** The error for member `key` being absent or of the wrong kind. */
    std::optional<Error> missing(const char *key) const;

    std::optional<Error> getString(const JsonValue &object,
                                   const char *key,
                                   std::string *out) const;
    /** A number, or one of JsonWriter's non-finite sentinels. */
    std::optional<Error> getDouble(const JsonValue &object,
                                   const char *key, double *out) const;
    /** An exact unsigned integer (see JsonValue::asUint). */
    std::optional<Error> getU64(const JsonValue &object, const char *key,
                                std::uint64_t *out) const;
    std::optional<Error> getBool(const JsonValue &object, const char *key,
                                 bool *out) const;

  private:
    const char *context_;
};

} // namespace rana

#endif // RANA_UTIL_JSON_READER_HH_
