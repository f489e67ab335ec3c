// Byte archive for the snapshot layer: one symmetric persist protocol.
//
// Every persistable class implements a single template member
//
//   template <class Archive> void persist(Archive& ar) { ar.value(x_); ... }
//
// instantiated with Saver (serialise) and Loader (restore). One function for
// both directions means the field list can never drift between save and
// load — the classic cause of silently-corrupt checkpoints. Direction-
// dependent work (rebuilding scheduled events, cross-checks) branches on
// `if constexpr (Archive::kIsSaver)`.
//
// The encoding is deliberately platform-independent and boring:
//   * integers: 8-byte little-endian two's complement, whatever the width;
//   * bool: one byte (0/1); enums: their underlying integer;
//   * double: IEEE-754 bit pattern as a little-endian u64;
//   * std::string: u64 length + raw bytes;
//   * vector/deque/map/optional/pair/array: size/flag prefix + elements;
//   * util::Rng: the full RngState (xoshiro words + construction seed);
//   * quantity types (Volts, Watts, ...): their double; Bytes: its count;
//     sim::SimTime / sim::Duration: their millisecond int64 (detected
//     structurally — this layer sits below sim and never includes it);
//   * anything else: its own persist() member, recursively.
//
// A Loader that runs out of payload throws SnapshotError(kSectionUnderrun)
// immediately — short reads never yield zero-filled state.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "snapshot/error.h"
#include "util/rng.h"

namespace gw::snapshot {

namespace detail {

// sim::Duration / sim::SimTime, detected structurally so this layer does
// not depend on sim (which sits above it in the DAG).
template <class T>
concept DurationLike = requires(const T& t) {
  { t.millis() } -> std::convertible_to<std::int64_t>;
} && std::constructible_from<T, std::int64_t>;

template <class T>
concept TimePointLike = requires(const T& t) {
  { t.millis_since_epoch() } -> std::convertible_to<std::int64_t>;
} && std::constructible_from<T, std::int64_t>;

// util::Bytes and friends: an integer count.
template <class T>
concept CountLike = requires(const T& t) {
  { t.count() } -> std::convertible_to<std::int64_t>;
} && std::constructible_from<T, std::int64_t> && !DurationLike<T> &&
    !TimePointLike<T>;

// util::Quantity descendants (Volts, Watts, ...): a double value.
template <class T>
concept QuantityLike = requires(const T& t) {
  { t.value() } -> std::convertible_to<double>;
} && std::constructible_from<T, double> && !CountLike<T> &&
    !DurationLike<T> && !TimePointLike<T>;

}  // namespace detail

class Saver {
 public:
  static constexpr bool kIsSaver = true;

  // Component-owned rebuild records written so far (sim::persist_pending
  // bumps this); the fleet save cross-checks it against the kernel's live
  // event count to prove the snapshot accounts for every pending event.
  std::size_t rebuild_records = 0;

  [[nodiscard]] std::vector<std::uint8_t> take() {
    bytes_.resize(used_);
    used_ = 0;
    return std::exchange(bytes_, {});
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {bytes_.data(), used_};
  }

  template <class T>
  void value(const T& v) {
    using D = std::remove_cvref_t<T>;
    if constexpr (std::is_same_v<D, bool>) {
      *grow(1) = v ? 1 : 0;
    } else if constexpr (std::is_enum_v<D>) {
      put_u64(std::uint64_t(
          static_cast<std::underlying_type_t<D>>(v)));
    } else if constexpr (std::is_integral_v<D>) {
      put_u64(std::uint64_t(static_cast<std::int64_t>(v)));
    } else if constexpr (std::is_floating_point_v<D>) {
      put_u64(std::bit_cast<std::uint64_t>(double(v)));
    } else if constexpr (std::is_same_v<D, std::string>) {
      put_u64(v.size());
      std::copy(v.begin(), v.end(), grow(v.size()));
    } else if constexpr (std::is_same_v<D, util::Rng>) {
      const util::RngState s = v.state();
      for (const std::uint64_t word : s.words) put_u64(word);
      put_u64(s.seed);
    } else if constexpr (detail::DurationLike<D>) {
      put_u64(std::uint64_t(std::int64_t(v.millis())));
    } else if constexpr (detail::TimePointLike<D>) {
      put_u64(std::uint64_t(std::int64_t(v.millis_since_epoch())));
    } else if constexpr (detail::CountLike<D>) {
      put_u64(std::uint64_t(std::int64_t(v.count())));
    } else if constexpr (detail::QuantityLike<D>) {
      put_u64(std::bit_cast<std::uint64_t>(double(v.value())));
    } else {
      // Persistable class; const_cast lets one persist() serve both
      // directions (the saver never mutates through it).
      const_cast<D&>(v).persist(*this);
    }
  }

  template <class T>
  void value(const std::vector<T>& v) {
    put_u64(v.size());
    for (const T& item : v) value(item);
  }

  template <class T>
  void value(const std::deque<T>& v) {
    put_u64(v.size());
    for (const T& item : v) value(item);
  }

  template <class K, class V>
  void value(const std::map<K, V>& v) {
    put_u64(v.size());
    for (const auto& [key, item] : v) {
      value(key);
      value(item);
    }
  }

  template <class T>
  void value(const std::optional<T>& v) {
    value(v.has_value());
    if (v.has_value()) value(*v);
  }

  template <class A, class B>
  void value(const std::pair<A, B>& v) {
    value(v.first);
    value(v.second);
  }

  template <class T, std::size_t N>
  void value(const std::array<T, N>& v) {
    for (const T& item : v) value(item);
  }

 private:
  // Claims the next n bytes and returns where they start. The buffer grows
  // geometrically ahead of the write position; take() trims it to used_.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t end = used_ + n;
    if (end > bytes_.size()) bytes_.resize(std::max(end, 2 * bytes_.size()));
    std::uint8_t* at = bytes_.data() + used_;
    used_ = end;
    return at;
  }

  // Spelled out rather than looped: g++ -O2 leaves an eight-step byte loop
  // as it is, but merges these stores into one.
  void put_u64(std::uint64_t x) {
    std::uint8_t* at = grow(8);
    at[0] = std::uint8_t(x);
    at[1] = std::uint8_t(x >> 8);
    at[2] = std::uint8_t(x >> 16);
    at[3] = std::uint8_t(x >> 24);
    at[4] = std::uint8_t(x >> 32);
    at[5] = std::uint8_t(x >> 40);
    at[6] = std::uint8_t(x >> 48);
    at[7] = std::uint8_t(x >> 56);
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t used_ = 0;
};

class Loader {
 public:
  static constexpr bool kIsSaver = false;

  explicit Loader(std::span<const std::uint8_t> payload) : data_(payload) {}

  template <class T>
  void value(T& v) {
    using D = std::remove_cvref_t<T>;
    if constexpr (std::is_same_v<D, bool>) {
      v = take_byte() != 0;
    } else if constexpr (std::is_enum_v<D>) {
      v = static_cast<D>(
          static_cast<std::underlying_type_t<D>>(std::int64_t(take_u64())));
    } else if constexpr (std::is_integral_v<D>) {
      v = static_cast<D>(std::int64_t(take_u64()));
    } else if constexpr (std::is_floating_point_v<D>) {
      v = static_cast<D>(std::bit_cast<double>(take_u64()));
    } else if constexpr (std::is_same_v<D, std::string>) {
      const std::uint64_t n = take_u64();
      const std::span<const std::uint8_t> raw = take_bytes(n);
      v.assign(raw.begin(), raw.end());
    } else if constexpr (std::is_same_v<D, util::Rng>) {
      util::RngState s;
      for (std::uint64_t& word : s.words) word = take_u64();
      s.seed = take_u64();
      v.restore_state(s);
    } else if constexpr (detail::DurationLike<D> ||
                         detail::TimePointLike<D> || detail::CountLike<D>) {
      v = D{std::int64_t(take_u64())};
    } else if constexpr (detail::QuantityLike<D>) {
      v = D{std::bit_cast<double>(take_u64())};
    } else {
      v.persist(*this);
    }
  }

  template <class T>
  void value(std::vector<T>& v) {
    const std::uint64_t n = take_u64();
    v.clear();
    // The count is untrusted and every element takes at least one byte:
    // reserve no more than the payload left can hold.
    v.reserve(std::size_t(std::min<std::uint64_t>(n, remaining())));
    for (std::uint64_t i = 0; i < n; ++i) {
      T item{};
      value(item);
      v.push_back(std::move(item));
    }
  }

  template <class T>
  void value(std::deque<T>& v) {
    const std::uint64_t n = take_u64();
    v.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      T item{};
      value(item);
      v.push_back(std::move(item));
    }
  }

  template <class K, class V>
  void value(std::map<K, V>& v) {
    const std::uint64_t n = take_u64();
    v.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K key{};
      value(key);
      V item{};
      value(item);
      v.emplace(std::move(key), std::move(item));
    }
  }

  template <class T>
  void value(std::optional<T>& v) {
    bool present = false;
    value(present);
    if (present) {
      v.emplace();
      value(*v);
    } else {
      v.reset();
    }
  }

  template <class A, class B>
  void value(std::pair<A, B>& v) {
    value(v.first);
    value(v.second);
  }

  template <class T, std::size_t N>
  void value(std::array<T, N>& v) {
    for (T& item : v) value(item);
  }

  [[nodiscard]] std::size_t remaining() const {
    return data_.size() - pos_;
  }

  // A persist() must consume its section exactly; leftover bytes mean the
  // payload and the code disagree about the field list.
  void expect_end() const {
    if (pos_ != data_.size()) {
      throw SnapshotError(SnapshotErrc::kTrailingBytes,
                          std::to_string(data_.size() - pos_) +
                              " unread byte(s) after persist()");
    }
  }

  // Raw helpers (the framing reader reuses them).
  [[nodiscard]] std::uint64_t take_u64() {
    const std::span<const std::uint8_t> raw = take_bytes(8);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x |= std::uint64_t(raw[std::size_t(i)]) << (8 * i);
    return x;
  }

  [[nodiscard]] std::uint8_t take_byte() { return take_bytes(1)[0]; }

  [[nodiscard]] std::span<const std::uint8_t> take_bytes(std::uint64_t n) {
    if (n > data_.size() - pos_) {
      throw SnapshotError(SnapshotErrc::kSectionUnderrun,
                          "read of " + std::to_string(n) + " byte(s) with " +
                              std::to_string(data_.size() - pos_) +
                              " left");
    }
    const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace gw::snapshot
