// Status/Result error model of the public API (dnj::api).
//
// Every public entry point is a total function: internal exceptions are
// caught at the API boundary and come back as a typed `Status`, never as a
// throw (and never across the C ABI — see dnj_c.h, whose dnj_status_t
// values mirror StatusCode one to one; static_asserts in dnj_c.cpp pin the
// correspondence). The codes extend the serving layer's established
// kRejected / kShutdown / kError taxonomy with the boundary-validation
// cases a public surface needs:
//
//   kOk              — success
//   kInvalidArgument — the caller's inputs are malformed: null/empty views,
//                      dimensions outside [1, 65535], channels not 1 or 3,
//                      quality outside [1, 100], restart interval outside
//                      [0, 65535], comment over 65533 bytes
//   kDecodeError     — the input bytes are not a decodable JFIF stream
//                      (truncated, garbage, or unsupported features)
//   kRejected        — async service only: queue full under reject policy
//   kShutdown        — async service only: submitted after shutdown began
//   kInternal        — an unexpected internal failure; message carries the
//                      underlying exception text
//
// This header depends only on the standard library.
#pragma once

#include <optional>
#include <string>
#include <utility>

namespace dnj::api {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kDecodeError = 2,
  kRejected = 3,
  kShutdown = 4,
  kInternal = 5,
};

/// Stable lowercase identifier ("ok", "invalid_argument", ...), suitable
/// for logs and metrics labels.
const char* status_code_name(StatusCode code);

/// A status code plus a human-readable message (empty on success).
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status success() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  const char* code_name() const { return status_code_name(code_); }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A Status or a value — the return type of every value-producing API
/// call. `ok()` implies `value()` is valid; a non-ok Result holds no value.
template <typename T>
class Result {
 public:
  /*implicit*/ Result(Status status) : status_(std::move(status)) {}
  /*implicit*/ Result(T value) : value_(std::move(value)) {}

  bool ok() const { return status_.ok() && value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() { return *value_; }
  const T& value() const { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

  /// Moves the value out (call at most once, only when ok()).
  T take() { return std::move(*value_); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace dnj::api
