/**
 * @file
 * Error types shared across the library.
 *
 * Following the CppCoreGuidelines split between programmer errors
 * (asserted) and input errors (thrown): malformed JSON or malformed
 * JSONPath raised by *user input* throws one of the exceptions below;
 * internal invariant violations use assert().
 *
 * Error handling contract (see DESIGN.md §7 for the full statement):
 * every fast-forward primitive and streaming entry point detects
 * truncated input, unbalanced containers, and unterminated strings and
 * throws ParseError with a machine-checkable ErrorCode and the byte
 * position where the damage was detected.  No primitive ever reads past
 * the end of the attached buffer, even on hostile input.
 */
#ifndef JSONSKI_UTIL_ERROR_H
#define JSONSKI_UTIL_ERROR_H

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace jsonski {

/**
 * Machine-checkable failure kind carried by ParseError, so tests (and
 * retry/telemetry layers) can assert on *what* went wrong rather than
 * string-matching the message.
 */
enum class ErrorCode {
    Unspecified,        ///< legacy sites that predate the enum
    UnexpectedEnd,      ///< input truncated mid-value
    UnterminatedString, ///< no closing quote before end of input
    UnterminatedObject, ///< '{' never balanced by '}'
    UnterminatedArray,  ///< '[' never balanced by ']'
    UnterminatedRecord, ///< record stream ends inside a record
    UnbalancedClose,    ///< '}' or ']' with no matching opener
    ExpectedPunctuation,///< missing ',', ':', '{', ... where required
    BadAttributeName,   ///< attribute name absent or not a string
    BadValue,           ///< malformed literal / missing value
    BadEscape,          ///< malformed backslash or \uXXXX escape
    DepthExceeded,      ///< nesting beyond an engine's recursion bound
    StrayByte,          ///< garbage between top-level records
    RecordTooLarge,     ///< record exceeds an engine's size limit
    IoError,            ///< read failed mid-stream (disk/socket error)
    DeadlineExpired,    ///< a read or write deadline elapsed (service)
    HeaderTooLarge,     ///< request header exceeds the byte limit
    BadRequest,         ///< malformed service request header
    MatchLimitExceeded, ///< per-request match cap reached (service)
    IndexMismatch,      ///< structural index disagrees with the document
    TooManyQueries,     ///< query list exceeds the server's cap
};

/** Short stable name for an ErrorCode ("unterminated-string", ...). */
inline std::string_view
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Unspecified: return "unspecified";
      case ErrorCode::UnexpectedEnd: return "unexpected-end";
      case ErrorCode::UnterminatedString: return "unterminated-string";
      case ErrorCode::UnterminatedObject: return "unterminated-object";
      case ErrorCode::UnterminatedArray: return "unterminated-array";
      case ErrorCode::UnterminatedRecord: return "unterminated-record";
      case ErrorCode::UnbalancedClose: return "unbalanced-close";
      case ErrorCode::ExpectedPunctuation: return "expected-punctuation";
      case ErrorCode::BadAttributeName: return "bad-attribute-name";
      case ErrorCode::BadValue: return "bad-value";
      case ErrorCode::BadEscape: return "bad-escape";
      case ErrorCode::DepthExceeded: return "depth-exceeded";
      case ErrorCode::StrayByte: return "stray-byte";
      case ErrorCode::RecordTooLarge: return "record-too-large";
      case ErrorCode::IoError: return "io-error";
      case ErrorCode::DeadlineExpired: return "deadline-expired";
      case ErrorCode::HeaderTooLarge: return "header-too-large";
      case ErrorCode::BadRequest: return "bad-request";
      case ErrorCode::MatchLimitExceeded: return "match-limit-exceeded";
      case ErrorCode::IndexMismatch: return "index-mismatch";
      case ErrorCode::TooManyQueries: return "too-many-queries";
    }
    return "unknown";
}

/** Inverse of errorCodeName(); Unspecified for unknown names. */
inline ErrorCode
errorCodeFromName(std::string_view name)
{
    for (int i = 0; i <= static_cast<int>(ErrorCode::TooManyQueries);
         ++i) {
        auto code = static_cast<ErrorCode>(i);
        if (errorCodeName(code) == name)
            return code;
    }
    return ErrorCode::Unspecified;
}

/** Malformed JSON input detected during parsing or streaming. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(std::string what, size_t position)
        : ParseError(ErrorCode::Unspecified, std::move(what), position)
    {}

    ParseError(ErrorCode code, std::string what, size_t position)
        : std::runtime_error(std::move(what) + " (at byte " +
                             std::to_string(position) + ")"),
          code_(code),
          position_(position)
    {}

    /** Byte offset in the input where the error was detected. */
    size_t position() const { return position_; }

    /** The failure kind. */
    ErrorCode code() const { return code_; }

  private:
    ErrorCode code_;
    size_t position_;
};

/**
 * Invalid process configuration from the environment or flags (e.g. an
 * unknown JSONSKI_KERNEL name).  Distinct from ParseError: the *input*
 * is fine, the *deployment* is not, and the caller should fail fast
 * rather than fall back silently.
 */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string& what)
        : std::runtime_error("bad configuration: " + what)
    {}
};

/** Malformed JSONPath query expression. */
class PathError : public std::runtime_error
{
  public:
    /** Sentinel for "no position available" (capability rejections). */
    static constexpr size_t kNoPosition = static_cast<size_t>(-1);

    explicit PathError(const std::string& what)
        : std::runtime_error("bad JSONPath: " + what),
          position_(kNoPosition)
    {}

    PathError(const std::string& what, size_t position)
        : std::runtime_error("bad JSONPath: " + what + " (at offset " +
                             std::to_string(position) + ")"),
          position_(position)
    {}

    /**
     * Byte offset in the query text where the parser rejected it, or
     * kNoPosition when the error is not tied to a specific byte (e.g.
     * an engine rejecting an unsupported-but-well-formed query).
     */
    size_t position() const { return position_; }

  private:
    size_t position_;
};

} // namespace jsonski

#endif // JSONSKI_UTIL_ERROR_H
