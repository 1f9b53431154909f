// Wire codec: byte-level serialization of net::Message frames.
//
// Everything on the wire is little-endian and length-prefixed. A frame is
//
//   u32  magic   0x41515746 ("AQWF")
//   u8   version kWireVersion (bumped on any incompatible layout change)
//   u32  type id (stable per concrete message type; see CodecRegistry)
//   u32  payload length in bytes
//   ...  payload (exactly `length` bytes, produced by Message::encode)
//
// Encoding needs no registry — a message that overrides wire_type() and
// encode() can always be framed. Decoding resolves the type id through the
// process-wide CodecRegistry, so a receiving composition root must first
// call its layers' register_wire_codecs() functions. Every decode failure
// (bad magic, unknown version or type, truncation, trailing bytes) throws
// CodecError; transports catch it, count net.decode_errors, and drop the
// datagram — malformed input can never reach protocol code.
//
// Round-trip guarantee: for every registered type, encode(decode(bytes))
// reproduces `bytes` exactly (tests/codec_test.cpp enforces it per type).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "net/node.hpp"
#include "sim/time.hpp"

namespace aqueduct::net {

inline constexpr std::uint32_t kWireMagic = 0x41515746u;  // "AQWF"
inline constexpr std::uint8_t kWireVersion = 3;
/// Frame header: magic + version + type id + payload length.
inline constexpr std::size_t kFrameHeaderSize = 4 + 1 + 4 + 4;

/// Thrown on any malformed input; also thrown when asked to encode a
/// message (or a nested payload) whose type is not codec-enabled.
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only little-endian byte sink.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void node(NodeId id) { u32(id.value()); }
  void duration(sim::Duration d) { i64(d.count()); }
  void raw(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  /// Patches a previously written u32 at `offset` (for length back-fill).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.at(offset + i) = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian byte source over a borrowed buffer.
/// Every accessor throws CodecError instead of reading past the end.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(le<std::uint64_t>()); }
  double f64() {
    const std::uint64_t bits = le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw CodecError("bool byte out of range");
    return v == 1;
  }
  std::string str() {
    const std::uint32_t n = u32();
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  NodeId node() { return NodeId{u32()}; }
  sim::Duration duration() { return sim::Duration(i64()); }

  /// A sub-reader over the next `n` bytes (consumed from this reader).
  Reader sub(std::size_t n) {
    const std::uint8_t* p = take(n);
    return Reader(p, n);
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (n > remaining()) throw CodecError("truncated input");
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  template <typename T>
  T le() {
    const std::uint8_t* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    }
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Maps stable wire type ids to their decoders. Process-wide: composition
/// roots that receive serialized frames call each protocol layer's
/// register_wire_codecs() before decoding (registration is idempotent).
class CodecRegistry {
 public:
  using DecodeFn = MessagePtr (*)(Reader&);

  static CodecRegistry& global();

  /// Registers `decode` for `id`. Re-registering the same id is a no-op
  /// if the decoder matches, and an error otherwise (two message types
  /// must never share a wire id).
  void add(WireTypeId id, std::string type_name, DecodeFn decode);

  bool contains(WireTypeId id) const { return entries_.contains(id); }
  /// nullptr when the id is unknown.
  DecodeFn find(WireTypeId id) const {
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : it->second.decode;
  }
  const std::string* type_name(WireTypeId id) const {
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second.type_name;
  }
  /// All registered ids, ascending (the codec round-trip suite iterates
  /// this to prove coverage).
  std::vector<WireTypeId> ids() const;
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string type_name;
    DecodeFn decode;
  };
  std::map<WireTypeId, Entry> entries_;
};

/// Frames `msg` into `w`: header + encode()d payload. Throws CodecError if
/// the message (or any nested payload) is not codec-enabled.
void encode_frame(const Message& msg, Writer& w);

/// Convenience: a freshly framed byte vector.
std::vector<std::uint8_t> encode_frame(const Message& msg);

/// Parses one frame from `r` and decodes it through `registry`. Throws
/// CodecError on bad magic/version/length, unknown type id, or a decoder
/// that does not consume exactly the payload.
MessagePtr decode_frame(Reader& r, const CodecRegistry& registry);
inline MessagePtr decode_frame(Reader& r) {
  return decode_frame(r, CodecRegistry::global());
}

/// Nested-payload helpers: protocol messages carry application payloads as
/// MessagePtr fields. On the wire these are a presence byte plus (when
/// present) a complete nested frame, so payload types resolve through the
/// registry exactly like top-level messages.
void encode_nested(Writer& w, const MessagePtr& msg);
MessagePtr decode_nested(Reader& r, const CodecRegistry& registry);
inline MessagePtr decode_nested(Reader& r) {
  return decode_nested(r, CodecRegistry::global());
}

// ---------------------------------------------------------------------------
// Aggregate helpers shared by the per-layer codecs
// ---------------------------------------------------------------------------

inline void encode_node_vector(Writer& w, const std::vector<NodeId>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (NodeId n : v) w.node(n);
}

inline std::vector<NodeId> decode_node_vector(Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<NodeId> v;
  v.reserve(std::min<std::size_t>(n, r.remaining() / 4 + 1));
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.node());
  return v;
}

/// NodeId-sorted (node, value) pairs, unique by node: the flat form of a
/// std::map<NodeId, std::uint64_t>, with the same wire encoding.
using NodeU64Pairs = std::vector<std::pair<NodeId, std::uint64_t>>;

/// Writes a count and then the (node, value) pairs in iteration order —
/// ascending by node for both a std::map and a NodeU64Pairs.
template <typename Pairs>
void encode_node_u64_map(Writer& w, const Pairs& m) {
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [node, seq] : m) {
    w.node(node);
    w.u64(seq);
  }
}

/// The length encode_node_u64_map() writes for `n` pairs: the count, then
/// a node id and a value per pair.
inline constexpr std::size_t node_u64_map_size(std::size_t n) {
  return sizeof(std::uint32_t) + n * (sizeof(std::uint32_t) + sizeof(std::uint64_t));
}

inline std::map<NodeId, std::uint64_t> decode_node_u64_map(Reader& r) {
  const std::uint32_t n = r.u32();
  std::map<NodeId, std::uint64_t> m;
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId node = r.node();
    m[node] = r.u64();
  }
  return m;
}

/// decode_node_u64_map() into the flat form. A well-formed encoder writes
/// the pairs sorted and unique; other input is normalized exactly as the
/// map decoder would (sorted by node, last value wins).
inline NodeU64Pairs decode_node_u64_pairs(Reader& r) {
  const std::uint32_t n = r.u32();
  NodeU64Pairs v;
  v.reserve(std::min<std::size_t>(n, r.remaining() / 12 + 1));
  bool sorted = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId node = r.node();
    const std::uint64_t value = r.u64();
    sorted = sorted && (v.empty() || v.back().first < node);
    v.emplace_back(node, value);
  }
  if (!sorted) {
    std::map<NodeId, std::uint64_t> m;
    for (const auto& [node, value] : v) m[node] = value;
    v.assign(m.begin(), m.end());
  }
  return v;
}

/// Value of `node` in sorted pairs, or nullptr.
inline const std::uint64_t* find_node(const NodeU64Pairs& v, NodeId node) {
  auto it = std::lower_bound(
      v.begin(), v.end(), node,
      [](const auto& pair, NodeId n) { return pair.first < n; });
  return it != v.end() && it->first == node ? &it->second : nullptr;
}

inline void encode_optional_str(Writer& w, const std::optional<std::string>& s) {
  w.boolean(s.has_value());
  if (s) w.str(*s);
}

inline std::optional<std::string> decode_optional_str(Reader& r) {
  if (!r.boolean()) return std::nullopt;
  return r.str();
}

}  // namespace aqueduct::net
