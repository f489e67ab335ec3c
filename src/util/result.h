// Result<T>: expected-style error carrier for recoverable runtime failures.
//
// The field systems the paper describes treat failure as a normal daily
// occurrence (GPRS drop-outs, probe silence, corrupted downloads), so the
// library distinguishes programmer errors (exceptions / assertions at
// construction time) from operational failures, which flow through Result
// and are handled by retry / fallback logic exactly as §III–§VI describe.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace gw::util {

struct Error {
  std::string message;
};

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : storage_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error error) : storage_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(storage_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const& {
    if (!ok()) throw std::logic_error("Result::value on error: " + error().message);
    return std::get<T>(storage_);
  }
  [[nodiscard]] T& value() & {
    if (!ok()) throw std::logic_error("Result::value on error: " + error().message);
    return std::get<T>(storage_);
  }
  [[nodiscard]] T&& take() && {
    if (!ok()) throw std::logic_error("Result::take on error: " + error().message);
    return std::get<T>(std::move(storage_));
  }

  [[nodiscard]] const Error& error() const {
    return std::get<Error>(storage_);
  }

  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? std::get<T>(storage_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> storage_;
};

// Status-like specialisation for operations with no payload.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(Error error) : error_(std::move(error)), failed_(true) {}  // NOLINT(google-explicit-constructor)

  static Status failure(std::string message) {
    return Status{Error{std::move(message)}};
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }
  [[nodiscard]] const Error& error() const { return error_; }

 private:
  Error error_;
  bool failed_ = false;
};

inline Error make_error(std::string message) { return Error{std::move(message)}; }

}  // namespace gw::util
