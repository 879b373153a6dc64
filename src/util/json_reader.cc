/**
 * @file
 * Implementation of the minimal JSON parser.
 */

#include "util/json_reader.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>

#include "util/logging.hh"

namespace rana {

namespace {

/** Recursion ceiling: a hostile frame cannot blow the stack. */
constexpr int kMaxDepth = 64;

} // namespace

/** Single-pass recursive-descent parser over one text buffer. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Result<JsonValue> parse()
    {
        JsonValue root;
        if (std::optional<Error> bad = parseValue(root, 0))
            return *bad;
        skipWhitespace();
        if (pos_ != text_.size()) {
            return makeError(ErrorCode::ParseError,
                             "trailing bytes after JSON document at "
                             "offset ",
                             pos_);
        }
        return root;
    }

  private:
    std::optional<Error> parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth) {
            return makeError(ErrorCode::ParseError,
                             "JSON nesting deeper than ", kMaxDepth);
        }
        skipWhitespace();
        if (pos_ >= text_.size()) {
            return makeError(ErrorCode::ParseError,
                             "unexpected end of JSON document");
        }
        const char c = text_[pos_];
        switch (c) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out.kind_ = JsonValue::Kind::String;
            return parseString(out.string_);
          case 't':
          case 'f':
            return parseKeyword(out);
          case 'n':
            return parseKeyword(out);
          default:
            return parseNumber(out);
        }
    }

    std::optional<Error> parseObject(JsonValue &out, int depth)
    {
        ++pos_; // '{'
        std::vector<std::pair<std::string, JsonValue>> members;
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
        } else {
            for (;;) {
                skipWhitespace();
                if (peek() != '"') {
                    return makeError(ErrorCode::ParseError,
                                     "expected object key at offset ",
                                     pos_);
                }
                std::string key;
                if (std::optional<Error> bad = parseString(key))
                    return bad;
                skipWhitespace();
                if (peek() != ':') {
                    return makeError(ErrorCode::ParseError,
                                     "expected ':' at offset ", pos_);
                }
                ++pos_;
                JsonValue value;
                if (std::optional<Error> bad =
                        parseValue(value, depth + 1))
                    return bad;
                members.emplace_back(std::move(key),
                                     std::move(value));
                skipWhitespace();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                if (peek() == '}') {
                    ++pos_;
                    break;
                }
                return makeError(ErrorCode::ParseError,
                                 "expected ',' or '}' at offset ",
                                 pos_);
            }
        }
        out.kind_ = JsonValue::Kind::Object;
        out.members_ = std::make_shared<
            const std::vector<std::pair<std::string, JsonValue>>>(
            std::move(members));
        return std::nullopt;
    }

    std::optional<Error> parseArray(JsonValue &out, int depth)
    {
        ++pos_; // '['
        std::vector<JsonValue> items;
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
        } else {
            for (;;) {
                JsonValue value;
                if (std::optional<Error> bad =
                        parseValue(value, depth + 1))
                    return bad;
                items.push_back(std::move(value));
                skipWhitespace();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                if (peek() == ']') {
                    ++pos_;
                    break;
                }
                return makeError(ErrorCode::ParseError,
                                 "expected ',' or ']' at offset ",
                                 pos_);
            }
        }
        out.kind_ = JsonValue::Kind::Array;
        out.items_ =
            std::make_shared<const std::vector<JsonValue>>(
                std::move(items));
        return std::nullopt;
    }

    std::optional<Error> parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return std::nullopt;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    break;
                const char escape = text_[pos_ + 1];
                pos_ += 2;
                switch (escape) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (std::optional<Error> bad = parseUnicode(out))
                        return bad;
                    break;
                  }
                  default:
                    return makeError(ErrorCode::ParseError,
                                     "bad escape '\\", escape,
                                     "' at offset ", pos_ - 1);
                }
                continue;
            }
            out += c;
            ++pos_;
        }
        return makeError(ErrorCode::ParseError,
                         "unterminated JSON string");
    }

    /** Decode \uXXXX (already consumed) to UTF-8. */
    std::optional<Error> parseUnicode(std::string &out)
    {
        if (pos_ + 4 > text_.size()) {
            return makeError(ErrorCode::ParseError,
                             "truncated \\u escape");
        }
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            code <<= 4;
            if (c >= '0' && c <= '9') {
                code |= static_cast<unsigned>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                code |= static_cast<unsigned>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                code |= static_cast<unsigned>(c - 'A' + 10);
            } else {
                return makeError(ErrorCode::ParseError,
                                 "bad \\u escape digit '", c, "'");
            }
        }
        pos_ += 4;
        // BMP-only decoding; surrogate pairs are rejected (the
        // writer never emits them).
        if (code >= 0xD800 && code <= 0xDFFF) {
            return makeError(ErrorCode::ParseError,
                             "surrogate \\u escape unsupported");
        }
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
        return std::nullopt;
    }

    std::optional<Error> parseKeyword(JsonValue &out)
    {
        if (text_.compare(pos_, 4, "true") == 0) {
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = true;
            pos_ += 4;
            return std::nullopt;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = false;
            pos_ += 5;
            return std::nullopt;
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            out.kind_ = JsonValue::Kind::Null;
            pos_ += 4;
            return std::nullopt;
        }
        return makeError(ErrorCode::ParseError,
                         "bad JSON keyword at offset ", pos_);
    }

    std::optional<Error> parseNumber(JsonValue &out)
    {
        // Validate the JSON number grammar before strtod: strtod
        // alone accepts "inf", "nan" and hex floats, which are not
        // JSON and must fail like any other corrupt byte.
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!std::isdigit(static_cast<unsigned char>(peek()))) {
            pos_ = start;
            return makeError(ErrorCode::ParseError,
                             "bad JSON number at offset ", start);
        }
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek()))) {
                return makeError(ErrorCode::ParseError,
                                 "bad JSON fraction at offset ",
                                 pos_);
            }
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek()))) {
                return makeError(ErrorCode::ParseError,
                                 "bad JSON exponent at offset ",
                                 pos_);
            }
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            return makeError(ErrorCode::ParseError,
                             "bad JSON number '", token, "'");
        }
        out.kind_ = JsonValue::Kind::Number;
        out.number_ = value;
        out.string_ = token; // raw token: exact u64 re-reads
        return std::nullopt;
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    /** The current byte, or '\0' at end of input. */
    char peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

Result<JsonValue>
JsonValue::parse(const std::string &text)
{
    return JsonParser(text).parse();
}

bool
JsonValue::asBool() const
{
    RANA_ASSERT(isBool(), "JsonValue is not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    RANA_ASSERT(isNumber(), "JsonValue is not a number");
    return number_;
}

bool
JsonValue::asUint(std::uint64_t *out) const
{
    if (!isNumber() || string_.empty())
        return false;
    for (char c : string_) {
        if (c < '0' || c > '9')
            return false; // sign, fraction or exponent: not a u64
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(string_.c_str(), &end, 10);
    if (errno == ERANGE || end != string_.c_str() + string_.size())
        return false;
    *out = static_cast<std::uint64_t>(value);
    return true;
}

const std::string &
JsonValue::asString() const
{
    RANA_ASSERT(isString(), "JsonValue is not a string");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    RANA_ASSERT(isArray(), "JsonValue is not an array");
    return *items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    RANA_ASSERT(isObject(), "JsonValue is not an object");
    return *members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[name, value] : *members_) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

bool
JsonValue::numberOrSentinel(double *out) const
{
    if (isNumber()) {
        *out = number_;
        return true;
    }
    if (isString()) {
        if (string_ == "NaN") {
            *out = std::numeric_limits<double>::quiet_NaN();
            return true;
        }
        if (string_ == "Infinity") {
            *out = std::numeric_limits<double>::infinity();
            return true;
        }
        if (string_ == "-Infinity") {
            *out = -std::numeric_limits<double>::infinity();
            return true;
        }
    }
    return false;
}

std::optional<Error>
JsonFieldReader::missing(const char *key) const
{
    return makeError(ErrorCode::ParseError, context_,
                     " field missing or mistyped: ", key);
}

std::optional<Error>
JsonFieldReader::getString(const JsonValue &object, const char *key,
                           std::string *out) const
{
    const JsonValue *value = object.find(key);
    if (value == nullptr || !value->isString())
        return missing(key);
    *out = value->asString();
    return std::nullopt;
}

std::optional<Error>
JsonFieldReader::getDouble(const JsonValue &object, const char *key,
                           double *out) const
{
    const JsonValue *value = object.find(key);
    if (value == nullptr || !value->numberOrSentinel(out))
        return missing(key);
    return std::nullopt;
}

std::optional<Error>
JsonFieldReader::getU64(const JsonValue &object, const char *key,
                        std::uint64_t *out) const
{
    const JsonValue *value = object.find(key);
    if (value == nullptr || !value->asUint(out))
        return missing(key);
    return std::nullopt;
}

std::optional<Error>
JsonFieldReader::getBool(const JsonValue &object, const char *key,
                         bool *out) const
{
    const JsonValue *value = object.find(key);
    if (value == nullptr || !value->isBool())
        return missing(key);
    *out = value->asBool();
    return std::nullopt;
}

} // namespace rana
