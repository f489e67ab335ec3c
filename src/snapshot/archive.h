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
// immediately — short reads never yield zero-filled state. It accepts only
// what a Saver writes: a bool byte other than 0 or 1, or map keys that are
// not strictly increasing, are SnapshotError(kStateMismatch), so every
// payload it accepts re-saves to the same bytes. Its errors name the
// section it reads, when it was opened on one.
//
// A Saver keeps its bytes (the default), writes them in place into a
// buffer it is given, or only counts them; StateWriter counts every
// section first and then writes it in place into a container of exactly
// the counted size. A codec that moves a whole block at once (the trace's
// runs and values) claims it with Saver::block and reads it back with
// Loader::block, which bounds-checks the block once.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
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

// Little-endian words, for codecs that write or read a block at once
// (Saver::block, Loader::block). On a little-endian host a word is
// copied as it is: g++ -O2 merges eight spelled-out byte stores into one
// store in straight-line code, but not inside a block loop.
inline void store_le64(std::uint8_t* at, std::uint64_t x) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &x, sizeof x);
  } else {
    for (int i = 0; i < 8; ++i) at[i] = std::uint8_t(x >> (8 * i));
  }
}

[[nodiscard]] inline std::uint64_t load_le64(const std::uint8_t* at) {
  std::uint64_t x = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&x, at, sizeof x);
  } else {
    for (int i = 0; i < 8; ++i) x |= std::uint64_t(at[i]) << (8 * i);
  }
  return x;
}

class Saver {
 public:
  static constexpr bool kIsSaver = true;

  // Component-owned rebuild records written so far (sim::persist_pending
  // bumps this); the fleet save cross-checks it against the kernel's live
  // event count to prove the snapshot accounts for every pending event.
  std::size_t rebuild_records = 0;

  // A Saver that keeps what it writes: its buffer grows as values arrive,
  // and take() hands the bytes over.
  Saver() = default;

  // A Saver that writes in place into `out`, which must hold every byte it
  // is given: one byte more is a std::logic_error, never a write past the
  // end.
  explicit Saver(std::span<std::uint8_t> out)
      : base_(out.data()), capacity_(out.size()), in_place_(true) {}

  // A Saver that stores nothing and only adds up the bytes it is given
  // (size()), so a writer can size its buffer exactly before writing.
  [[nodiscard]] static Saver counter() { return Saver(kCounting); }

  // Savers are not copied or moved: a moved owning Saver would leave its
  // write pointer behind.
  Saver(const Saver&) = delete;
  Saver& operator=(const Saver&) = delete;

  // Hands the bytes written so far over and starts afresh.
  [[nodiscard]] std::vector<std::uint8_t> take() {
    const std::span<const std::uint8_t> written = bytes();
    std::vector<std::uint8_t> out(written.begin(), written.end());
    used_ = 0;
    return out;
  }
  // The bytes written so far; none while counting.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    if (base_ == nullptr) return {};
    return {base_, used_};
  }
  // Bytes given so far, written or counted.
  [[nodiscard]] std::size_t size() const { return used_; }

  template <class T>
  void value(const T& v) {
    using D = std::remove_cvref_t<T>;
    if constexpr (std::is_same_v<D, bool>) {
      if (std::uint8_t* at = claim(1)) *at = v ? 1 : 0;
    } else if constexpr (std::is_enum_v<D>) {
      put_u64(std::uint64_t(
          static_cast<std::underlying_type_t<D>>(v)));
    } else if constexpr (std::is_integral_v<D>) {
      put_u64(std::uint64_t(static_cast<std::int64_t>(v)));
    } else if constexpr (std::is_floating_point_v<D>) {
      put_u64(std::bit_cast<std::uint64_t>(double(v)));
    } else if constexpr (std::is_same_v<D, std::string>) {
      put_u64(v.size());
      if (std::uint8_t* at = claim(v.size())) {
        std::copy(v.begin(), v.end(), at);
      }
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

  template <class K, class V, class C>
  void value(const std::map<K, V, C>& v) {
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

  // Claims the next n bytes for a codec that encodes a block itself, and
  // returns where they start; null while the Saver only counts.
  [[nodiscard]] std::uint8_t* block(std::size_t n) { return claim(n); }

 private:
  enum Counting { kCounting };
  explicit Saver(Counting)
      : capacity_(std::numeric_limits<std::size_t>::max()) {}

  // Claims the next n bytes and returns where they start; null while the
  // Saver only counts. Nothing past the claimed bytes is touched.
  std::uint8_t* claim(std::size_t n) {
    if (n > capacity_ - used_) make_room(n);
    const std::size_t at = used_;
    used_ += n;
    return base_ == nullptr ? nullptr : base_ + at;
  }

  // An owning Saver moves to a buffer at least twice as large, copying
  // only the bytes written; an in-place Saver refuses.
  void make_room(std::size_t n) {
    if (in_place_) {
      throw std::logic_error("snapshot: Saver given more bytes than its " +
                             std::to_string(capacity_) + "-byte buffer");
    }
    const std::size_t capacity = std::max(used_ + n, 2 * capacity_);
    auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
    std::copy_n(base_, used_, grown.get());
    owned_ = std::move(grown);
    base_ = owned_.get();
    capacity_ = capacity;
  }

  void put_u64(std::uint64_t x) {
    if (std::uint8_t* at = claim(8)) store_le64(at, x);
  }

  std::unique_ptr<std::uint8_t[]> owned_;  // an owning Saver's buffer
  std::uint8_t* base_ = nullptr;           // null while counting
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  bool in_place_ = false;
};

class Loader {
 public:
  static constexpr bool kIsSaver = false;

  // A Loader over `payload`, which is the section named `section` when
  // one is given: its errors then name that section. The name is a view,
  // like the payload, and must outlive the Loader.
  explicit Loader(std::span<const std::uint8_t> payload,
                  std::string_view section = {})
      : data_(payload), section_(section) {}

  template <class T>
  void value(T& v) {
    using D = std::remove_cvref_t<T>;
    if constexpr (std::is_same_v<D, bool>) {
      // A Saver writes 0 or 1. Any other byte would load as true and
      // re-save as 1, so the payload would not survive a round trip.
      const std::uint8_t byte = take_byte();
      if (byte > 1) {
        refuse(SnapshotErrc::kStateMismatch,
               "bool byte " + std::to_string(byte) + " is neither 0 nor 1");
      }
      v = byte == 1;
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

  template <class K, class V, class C>
  void value(std::map<K, V, C>& v) {
    const std::uint64_t n = take_u64();
    v.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K key{};
      value(key);
      // A Saver writes a map in key order, so each key must follow the one
      // before it: a repeat or a step back would load a map that re-saves
      // to other bytes. In order, every entry goes in at the end.
      if (!v.empty() && !v.key_comp()(v.rbegin()->first, key)) {
        refuse(SnapshotErrc::kStateMismatch,
               "map keys are not strictly increasing");
      }
      V item{};
      value(item);
      v.emplace_hint(v.end(), std::move(key), std::move(item));
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

  // The next `count` items of `width` bytes each, as one block. The block
  // is bounds-checked once, before the caller allocates anything, so a
  // count the payload cannot hold is an underrun however large it is.
  [[nodiscard]] std::span<const std::uint8_t> block(std::uint64_t count,
                                                    std::size_t width) {
    if (count > remaining() / width) {
      refuse(SnapshotErrc::kSectionUnderrun,
             "read of " + std::to_string(count) + " item(s) of " +
                 std::to_string(width) + " byte(s) with " +
                 std::to_string(remaining()) + " left");
    }
    return take_bytes(count * width);
  }

  // Throws SnapshotError(code) with `detail`, naming this Loader's section:
  // for persist() bodies that refuse what they read.
  [[noreturn]] void refuse(SnapshotErrc code, std::string detail) const {
    throw SnapshotError(code, std::move(detail), std::string(section_));
  }

  [[nodiscard]] std::size_t remaining() const {
    return data_.size() - pos_;
  }

  // A persist() must consume its section exactly; leftover bytes mean the
  // payload and the code disagree about the field list.
  void expect_end() const {
    if (pos_ != data_.size()) {
      refuse(SnapshotErrc::kTrailingBytes,
             std::to_string(data_.size() - pos_) +
                 " unread byte(s) after persist()");
    }
  }

  // Raw helpers (the framing reader reuses them).
  [[nodiscard]] std::uint64_t take_u64() {
    return load_le64(take_bytes(8).data());
  }

  [[nodiscard]] std::uint8_t take_byte() { return take_bytes(1)[0]; }

  [[nodiscard]] std::span<const std::uint8_t> take_bytes(std::uint64_t n) {
    if (n > data_.size() - pos_) {
      refuse(SnapshotErrc::kSectionUnderrun,
             "read of " + std::to_string(n) + " byte(s) with " +
                 std::to_string(data_.size() - pos_) + " left");
    }
    const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::string_view section_;
  std::size_t pos_ = 0;
};

}  // namespace gw::snapshot
