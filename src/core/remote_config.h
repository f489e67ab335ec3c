// Remote configuration system (§V lesson, implemented).
//
// "Small adjustments could be made to the base station behaviour in order
// to try different strategies for retrieving data ... One of the many
// lessons learnt from this deployment is the importance of a reliable
// robust remote configuration system."
//
// RemoteConfig is a versioned key-value store: Southampton ships a
// ConfigUpdate (version, entries, MD5 over the canonical encoding); the
// station verifies the checksum, refuses stale or replayed versions, and
// applies atomically — a corrupted or out-of-order update can never leave
// the station half-configured. Typed getters with defaults keep missing
// keys safe. The station maps config keys onto the probe-protocol knobs,
// which is exactly the §V "different strategies for retrieving data".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "util/md5.h"
#include "util/result.h"
#include "util/strings.h"

namespace gw::core {

struct ConfigUpdate {
  std::uint32_t version = 0;
  std::map<std::string, std::string> entries;
  std::string md5;  // over canonical_encoding(version, entries)

  // Canonical form: "v=<version>\n<key>=<value>\n..." with sorted keys
  // (std::map iteration order).
  [[nodiscard]] std::string canonical_encoding() const {
    std::string body = "v=" + std::to_string(version) + "\n";
    for (const auto& [key, value] : entries) {
      body += key + "=" + value + "\n";
    }
    return body;
  }

  // Stamps the checksum (done in Southampton before sending).
  void seal() { md5 = util::Md5::hex_digest(canonical_encoding()); }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(version);
    ar.value(entries);
    ar.value(md5);
  }
};

class RemoteConfig {
 public:
  // Applies an update if and only if it verifies and advances the version.
  util::Status apply(const ConfigUpdate& update) {
    if (update.md5 != util::Md5::hex_digest(update.canonical_encoding())) {
      ++rejected_;
      return util::Status::failure("config: checksum mismatch");
    }
    if (update.version <= version_) {
      ++rejected_;
      return util::Status::failure("config: stale version " +
                                   std::to_string(update.version));
    }
    entries_ = update.entries;  // atomic: all keys replaced together
    version_ = update.version;
    ++applied_;
    return {};
  }

  [[nodiscard]] std::uint32_t version() const { return version_; }
  [[nodiscard]] int applied() const { return applied_; }
  [[nodiscard]] int rejected() const { return rejected_; }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  // Typed getters parse the whole value strictly (util::parse_int /
  // parse_finite): "42xyz", " 7", "nan" and an absent key all read as
  // `fallback`, so a garbled entry can never reach a probe-protocol knob.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const {
    const auto text = get(key);
    if (!text.has_value()) return fallback;
    return util::parse_int(*text).value_or(fallback);
  }

  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto text = get(key);
    if (!text.has_value()) return fallback;
    return util::parse_finite(*text).value_or(fallback);
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const {
    const auto text = get(key);
    if (!text.has_value()) return fallback;
    return *text == "1" || *text == "true";
  }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(entries_);
    ar.value(version_);
    ar.value(applied_);
    ar.value(rejected_);
  }

 private:
  std::map<std::string, std::string> entries_;
  std::uint32_t version_ = 0;
  int applied_ = 0;
  int rejected_ = 0;
};

}  // namespace gw::core
