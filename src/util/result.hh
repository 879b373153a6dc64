/**
 * @file
 * Expected-style error handling for the library API.
 *
 * Library entry points that can fail on user input (an infeasible
 * configuration, a malformed artifact) return Result<T> instead of
 * calling fatal(): a long-running service embedding the scheduler
 * must be able to reject one request without losing the process.
 * Each such entry point has this one form. Callers at the edges
 * (tools, benches, tests) that treat a failure as fatal call
 * valueOrDie() on the result.
 */

#ifndef RANA_UTIL_RESULT_HH_
#define RANA_UTIL_RESULT_HH_

#include <string>
#include <utility>
#include <variant>

#include "util/logging.hh"

namespace rana {

/** Machine-readable failure category. */
enum class ErrorCode {
    /** Caller passed arguments that can never be satisfied. */
    InvalidArgument,
    /** No feasible configuration exists on the hardware. */
    Infeasible,
    /** An artifact could not be read or written. */
    IoError,
    /** An artifact was syntactically malformed. */
    ParseError,
    /** Two inputs that must describe the same object disagree. */
    Mismatch,
};

/** Name string for an ErrorCode ("infeasible", ...). */
inline const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::InvalidArgument:
        return "invalid argument";
      case ErrorCode::Infeasible:
        return "infeasible";
      case ErrorCode::IoError:
        return "io error";
      case ErrorCode::ParseError:
        return "parse error";
      case ErrorCode::Mismatch:
        return "mismatch";
    }
    return "unknown";
}

/** One failure: a category plus a human-readable message. */
struct Error
{
    ErrorCode code = ErrorCode::InvalidArgument;
    std::string message;

    /** "category: message" string. */
    std::string describe() const
    {
        return std::string(errorCodeName(code)) + ": " + message;
    }
};

/** Build an Error by streaming the message parts. */
template <typename... Args>
Error
makeError(ErrorCode code, Args &&...args)
{
    return Error{code,
                 detail::concat(std::forward<Args>(args)...)};
}

/**
 * Holds either a value or an Error. The accessors assert on misuse
 * (reading the value of a failed Result is a caller bug, not a user
 * error), so check ok() first or use valueOrDie() at the edges.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : state_(std::move(value)) {}
    Result(Error error) : state_(std::move(error)) {}

    /** Whether a value is present. */
    bool ok() const { return std::holds_alternative<T>(state_); }

    /** The value; asserts when !ok(). */
    const T &value() const &
    {
        RANA_ASSERT(ok(), "value() on failed Result: ",
                    error().describe());
        return std::get<T>(state_);
    }
    T &&value() &&
    {
        RANA_ASSERT(ok(), "value() on failed Result: ",
                    error().describe());
        return std::get<T>(std::move(state_));
    }

    /** The error; asserts when ok(). */
    const Error &error() const
    {
        RANA_ASSERT(!ok(), "error() on successful Result");
        return std::get<Error>(state_);
    }

    /**
     * The value, or fatal() with the error's describe() string: the
     * abort-on-failure contract, for tools, benches and tests.
     */
    T &&valueOrDie() &&
    {
        if (!ok())
            fatal(error().describe());
        return std::get<T>(std::move(state_));
    }

  private:
    std::variant<T, Error> state_;
};

} // namespace rana

#endif // RANA_UTIL_RESULT_HH_
