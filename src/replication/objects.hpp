// Ready-made replicated objects used by the examples, tests, and benches.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "replication/replicated_object.hpp"

namespace aqueduct::replication {

// Wire type ids of the example objects (block 0x4*; registered by
// replication::register_wire_codecs()). Append-only: never renumber.
inline constexpr net::WireTypeId kWireKvPut = 0x41;
inline constexpr net::WireTypeId kWireKvGet = 0x42;
inline constexpr net::WireTypeId kWireKvResult = 0x43;
inline constexpr net::WireTypeId kWireKvSnapshot = 0x44;
inline constexpr net::WireTypeId kWireDocAppend = 0x45;
inline constexpr net::WireTypeId kWireDocRead = 0x46;
inline constexpr net::WireTypeId kWireDocContents = 0x47;
inline constexpr net::WireTypeId kWireTickerSet = 0x48;
inline constexpr net::WireTypeId kWireTickerGet = 0x49;
inline constexpr net::WireTypeId kWireTickerQuote = 0x4a;
inline constexpr net::WireTypeId kWireTickerSnapshot = 0x4b;
inline constexpr net::WireTypeId kWireRegisterBump = 0x4c;
inline constexpr net::WireTypeId kWireRegisterRead = 0x4d;
inline constexpr net::WireTypeId kWireRegisterValue = 0x4e;

// ---------------------------------------------------------------------------
// Versioned key-value store
// ---------------------------------------------------------------------------

struct KvPut final : net::Wire<KvPut, kWireKvPut, "kv.put"> {
  std::string key;
  std::string value;

  template <typename V>
  void fields(V& v) {
    v(key, value);
  }
};

struct KvGet final : net::Wire<KvGet, kWireKvGet, "kv.get"> {
  std::string key;

  template <typename V>
  void fields(V& v) {
    v(key);
  }
};

struct KvResult final : net::Wire<KvResult, kWireKvResult, "kv.result"> {
  std::optional<std::string> value;
  /// Number of updates applied to the store when this result was produced.
  std::uint64_t version = 0;

  template <typename V>
  void fields(V& v) {
    v(value, version);
  }
};

struct KvSnapshot final : net::Wire<KvSnapshot, kWireKvSnapshot, "kv.snapshot"> {
  std::map<std::string, std::string> entries;
  std::uint64_t version = 0;

  template <typename V>
  void fields(V& v) {
    v(entries, version);
  }
};

/// A string->string store whose version counts applied updates.
class KeyValueStore final : public ReplicatedObject {
 public:
  net::MessagePtr apply_update(const net::MessagePtr& op) override;
  net::MessagePtr apply_read(const net::MessagePtr& op) const override;
  net::MessagePtr snapshot() const override;
  void install_snapshot(const net::MessagePtr& snapshot) override;

  std::uint64_t version() const { return version_; }
  std::size_t size() const { return entries_.size(); }
  /// Full contents — lets shard tests assert that a group only ever holds
  /// keys its shard owns (no cross-shard leakage).
  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
  std::uint64_t version_ = 0;
};

// ---------------------------------------------------------------------------
// Shared document (the paper's Section 2 motivating example)
// ---------------------------------------------------------------------------

struct DocAppend final : net::Wire<DocAppend, kWireDocAppend, "doc.append"> {
  std::string line;

  template <typename V>
  void fields(V& v) {
    v(line);
  }
};

struct DocRead final : net::Wire<DocRead, kWireDocRead, "doc.read"> {
  template <typename V>
  void fields(V&) {}
};

struct DocContents final : net::Wire<DocContents, kWireDocContents, "doc.contents"> {
  std::vector<std::string> lines;
  std::uint64_t version = 0;

  template <typename V>
  void fields(V& v) {
    v(lines, version);
  }
};

/// An append-only shared document; each append is one version.
class SharedDocument final : public ReplicatedObject {
 public:
  net::MessagePtr apply_update(const net::MessagePtr& op) override;
  net::MessagePtr apply_read(const net::MessagePtr& op) const override;
  net::MessagePtr snapshot() const override;
  void install_snapshot(const net::MessagePtr& snapshot) override;

  std::uint64_t version() const { return static_cast<std::uint64_t>(lines_.size()); }

 private:
  std::vector<std::string> lines_;
};

// ---------------------------------------------------------------------------
// Stock ticker (real-time database example from the paper's introduction)
// ---------------------------------------------------------------------------

struct TickerSet final : net::Wire<TickerSet, kWireTickerSet, "ticker.set"> {
  std::string symbol;
  double price = 0.0;

  template <typename V>
  void fields(V& v) {
    v(symbol, price);
  }
};

struct TickerGet final : net::Wire<TickerGet, kWireTickerGet, "ticker.get"> {
  std::string symbol;

  template <typename V>
  void fields(V& v) {
    v(symbol);
  }
};

struct TickerQuote final : net::Wire<TickerQuote, kWireTickerQuote, "ticker.quote"> {
  std::string symbol;
  std::optional<double> price;
  std::uint64_t version = 0;  // updates applied when the quote was taken

  template <typename V>
  void fields(V& v) {
    v(symbol, price, version);
  }
};

struct TickerSnapshot final : net::Wire<TickerSnapshot, kWireTickerSnapshot, "ticker.snapshot"> {
  std::map<std::string, double> prices;
  std::uint64_t version = 0;

  template <typename V>
  void fields(V& v) {
    v(prices, version);
  }
};

/// Latest-price table for a set of stock symbols.
class StockTicker final : public ReplicatedObject {
 public:
  net::MessagePtr apply_update(const net::MessagePtr& op) override;
  net::MessagePtr apply_read(const net::MessagePtr& op) const override;
  net::MessagePtr snapshot() const override;
  void install_snapshot(const net::MessagePtr& snapshot) override;

  std::uint64_t version() const { return version_; }

 private:
  std::map<std::string, double> prices_;
  std::uint64_t version_ = 0;
};

// ---------------------------------------------------------------------------
// Versioned register (minimal object for tests: the value is the version)
// ---------------------------------------------------------------------------

struct RegisterBump final : net::Wire<RegisterBump, kWireRegisterBump, "reg.bump"> {
  template <typename V>
  void fields(V&) {}
};

struct RegisterRead final : net::Wire<RegisterRead, kWireRegisterRead, "reg.read"> {
  template <typename V>
  void fields(V&) {}
};

struct RegisterValue final : net::Wire<RegisterValue, kWireRegisterValue, "reg.value"> {
  std::uint64_t value = 0;

  template <typename V>
  void fields(V& v) {
    v(value);
  }
};

/// Counts its own updates; reads return the count. Tests use it to verify
/// ordering and staleness invariants directly.
class VersionedRegister final : public ReplicatedObject {
 public:
  net::MessagePtr apply_update(const net::MessagePtr& op) override;
  net::MessagePtr apply_read(const net::MessagePtr& op) const override;
  net::MessagePtr snapshot() const override;
  void install_snapshot(const net::MessagePtr& snapshot) override;

  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

}  // namespace aqueduct::replication
