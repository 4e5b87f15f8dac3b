// Error codes and a lightweight Result<T> (errors-as-values).
//
// The paper's APIs report failures as data, e.g. a query returning
// {'type': 'status', 'payload': 'TIMEOUT'} (§IV-C). We mirror that with a
// small expected-like Result so no OSPREY API throws on expected failures.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace osprey {

/// Canonical error codes used across OSPREY modules.
enum class ErrorCode {
  kOk = 0,
  kTimeout,          // polling query exceeded its timeout (§IV-C)
  kNotFound,         // no such task / table / key / endpoint
  kCanceled,         // task was canceled before completion
  kInvalidArgument,  // malformed payload, bad schema, bad SQL, ...
  kPayloadTooLarge,  // FaaS 10MB input/output limit (§IV-E)
  kUnavailable,      // endpoint offline / resource down (retryable)
  kPermissionDenied, // auth token missing/expired/invalid (§IV-B)
  kConflict,         // task already claimed / duplicate key
  kInternal,         // invariant violation; indicates a bug
  kResourceExhausted,  // tenant over quota / queue depth bound (backpressure)
};

/// Human-readable name of an error code ("TIMEOUT", "NOT_FOUND", ...),
/// matching the status-payload strings of the paper's protocol.
const char* error_code_name(ErrorCode code);

/// An error: a code plus a contextual message.
struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  Error() = default;
  Error(ErrorCode c, std::string msg) : code(c), message(std::move(msg)) {}

  /// "TIMEOUT: no task of type 3 within 2.0s"
  std::string to_string() const;
};

/// Minimal expected-like result type: either a value or an Error.
template <typename T>
class Result {
 public:
  // Two overloads rather than one by-value parameter: the value goes straight
  // into the variant, with no intermediate temporary to move from.
  Result(const T& value) : data_(value) {}                 // NOLINT(google-explicit-constructor)
  Result(T&& value) : data_(std::move(value)) {}           // NOLINT(google-explicit-constructor)
  Result(Error error) : data_(std::move(error)) {}         // NOLINT(google-explicit-constructor)
  Result(ErrorCode code, std::string msg) : data_(Error{code, std::move(msg)}) {}

  bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(data_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(data_);
  }
  T&& take() && {
    assert(ok());
    return std::get<T>(std::move(data_));
  }
  /// Value if ok, otherwise the provided fallback.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

  const Error& error() const {
    assert(!ok());
    return std::get<Error>(data_);
  }
  ErrorCode code() const { return ok() ? ErrorCode::kOk : error().code; }

 private:
  std::variant<T, Error> data_;
};

/// Result specialization for operations with no payload.
class Status {
 public:
  Status() = default;  // OK
  Status(Error error) : error_(std::move(error)) {}  // NOLINT(google-explicit-constructor)
  Status(ErrorCode code, std::string msg) : error_(Error{code, std::move(msg)}) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return !error_.has_value(); }
  explicit operator bool() const { return is_ok(); }

  const Error& error() const {
    assert(!is_ok());
    return *error_;
  }
  ErrorCode code() const { return is_ok() ? ErrorCode::kOk : error_->code; }
  std::string to_string() const {
    return is_ok() ? "OK" : error_->to_string();
  }

 private:
  std::optional<Error> error_;
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kTimeout: return "TIMEOUT";
    case ErrorCode::kNotFound: return "NOT_FOUND";
    case ErrorCode::kCanceled: return "CANCELED";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kPayloadTooLarge: return "PAYLOAD_TOO_LARGE";
    case ErrorCode::kUnavailable: return "UNAVAILABLE";
    case ErrorCode::kPermissionDenied: return "PERMISSION_DENIED";
    case ErrorCode::kConflict: return "CONFLICT";
    case ErrorCode::kInternal: return "INTERNAL";
    case ErrorCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
  }
  return "UNKNOWN";
}

inline std::string Error::to_string() const {
  std::string s = error_code_name(code);
  if (!message.empty()) {
    s += ": ";
    s += message;
  }
  return s;
}

}  // namespace osprey
