// Wire codec: byte-level serialization of net::Message frames.
//
// Everything on the wire is little-endian and length-prefixed. A frame is
//
//   u32  magic   0x41515746 ("AQWF")
//   u8   version kWireVersion (bumped on any incompatible layout change)
//   u32  type id (stable per concrete message type; see CodecRegistry)
//   u32  payload length in bytes
//   ...  payload (exactly `length` bytes, the message's fields)
//
// A codec-enabled message derives from net::Wire<Self, id, "name">, which
// states its type id and name once, and declares its layout once, as a
// field list: a member `template <typename V> void fields(V& v)` that hands
// its fields to `v` in wire order. Three walkers read that one list:
// FieldEncoder<Writer> writes the payload, FieldDecoder reads it back
// through a Reader, and FieldSizer counts its bytes without writing them.
// So encode(), the registered decoder and Message::wire_size() cannot
// disagree. The walkers below spell out each field kind's encoding. A
// field list may also call v.check(ok, what): the decoder throws CodecError
// when `ok` is false, the encoder and the sizer ignore it.
//
// Encoding needs no registry. Decoding resolves the type id through the
// process-wide CodecRegistry, so a receiving composition root must first
// call its layers' register_wire_codecs() functions, which register their
// Wire types. Every decode failure (bad magic, unknown version or type,
// truncation, trailing bytes, a failed check) throws CodecError;
// transports catch it, count net.decode_errors, and drop the datagram —
// malformed input can never reach protocol code.
//
// Round-trip guarantee: for every registered type, encode(decode(bytes))
// reproduces `bytes` exactly (tests/codec_test.cpp enforces it per type,
// and pins every exemplar's frame bytes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/node.hpp"
#include "sim/time.hpp"

namespace aqueduct::net {

inline constexpr std::uint32_t kWireMagic = 0x41515746u;  // "AQWF"
inline constexpr std::uint8_t kWireVersion = 7;
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
  void add(WireTypeId id, DecodeFn decode);

  /// nullptr when the id is unknown.
  DecodeFn find(WireTypeId id) const {
    auto it = decoders_.find(id);
    return it == decoders_.end() ? nullptr : it->second;
  }
  /// All registered ids, ascending (the codec round-trip suite iterates
  /// this to prove coverage).
  std::vector<WireTypeId> ids() const;
  std::size_t size() const { return decoders_.size(); }

 private:
  std::map<WireTypeId, DecodeFn> decoders_;
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

// ---------------------------------------------------------------------------
// Field walkers
// ---------------------------------------------------------------------------

/// NodeId-sorted (node, value) pairs, unique by node: the flat form of a
/// std::map<NodeId, std::uint64_t>, with the same wire encoding.
using NodeU64Pairs = std::vector<std::pair<NodeId, std::uint64_t>>;

/// Value of `node` in sorted pairs, or nullptr.
inline const std::uint64_t* find_node(const NodeU64Pairs& v, NodeId node) {
  auto it = std::lower_bound(
      v.begin(), v.end(), node,
      [](const auto& pair, NodeId n) { return pair.first < n; });
  return it != v.end() && it->first == node ? &it->second : nullptr;
}

/// The last field of a message: items with no count in front, running to
/// the end of the payload. Used as `v(net::rest(items))`.
template <typename T>
struct Rest {
  std::vector<T>& items;
};

template <typename T>
Rest<T> rest(std::vector<T>& items) {
  return {items};
}

/// The sink of FieldSizer: counts the bytes a Writer would append.
class ByteCount {
 public:
  void u8(std::uint8_t) { bytes_ += 1; }
  void u32(std::uint32_t) { bytes_ += 4; }
  void u64(std::uint64_t) { bytes_ += 8; }
  void f64(double) { bytes_ += 8; }
  void boolean(bool) { bytes_ += 1; }
  void str(const std::string& s) { bytes_ += 4 + s.size(); }
  void node(NodeId) { bytes_ += 4; }
  void duration(sim::Duration) { bytes_ += 8; }
  /// A nested frame, sized by its own field list.
  void frame(const Message& msg) { bytes_ += kFrameHeaderSize + msg.body_size(); }

  std::size_t size() const { return bytes_; }

 private:
  std::size_t bytes_ = 0;
};

namespace detail {

template <typename T> inline constexpr bool kOptional = false;
template <typename T> inline constexpr bool kOptional<std::optional<T>> = true;
template <typename T> inline constexpr bool kVector = false;
template <typename T> inline constexpr bool kVector<std::vector<T>> = true;
template <typename T> inline constexpr bool kMap = false;
template <typename K, typename V> inline constexpr bool kMap<std::map<K, V>> = true;
template <typename T> inline constexpr bool kPair = false;
template <typename A, typename B> inline constexpr bool kPair<std::pair<A, B>> = true;
template <typename T> inline constexpr bool kRest = false;
template <typename T> inline constexpr bool kRest<Rest<T>> = true;
template <typename T> inline constexpr bool kShared = false;
template <typename T> inline constexpr bool kShared<std::shared_ptr<const T>> = true;

inline void write_frame(Writer& w, const Message& msg) { encode_frame(msg, w); }
inline void write_frame(ByteCount& c, const Message& msg) { c.frame(msg); }

}  // namespace detail

/// Walks a field list into `Sink`: a Writer (encoding) or a ByteCount
/// (sizing). A field of type
///   bool, std::uint8_t/32/64, double  is fixed-width, little-endian;
///   an enum                           is its underlying type;
///   NodeId, sim::Duration             is a u32, an i64;
///   std::string                       is a u32 length and the bytes;
///   std::optional<T>                  is a presence byte, then T;
///   std::vector<T>, std::map<K, V>    is a u32 count, then each item;
///   MessagePtr                        is a presence byte, then a nested frame;
///   shared_ptr<const M>, M a message  is a nested frame that must be an M;
///   shared_ptr<const S>, S a struct   is S;
///   Rest<T>                           is each item, with no count;
///   any other struct                  is the list of its own fields().
template <typename Sink>
class FieldEncoder {
 public:
  explicit FieldEncoder(Sink& out) : out_(out) {}

  template <typename... F>
  void operator()(const F&... fields) {
    (put(fields), ...);
  }
  void check(bool, const char*) {}

 private:
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      out_.boolean(v);
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      out_.u8(v);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      out_.u32(v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      out_.u64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      out_.f64(v);
    } else if constexpr (std::is_same_v<T, NodeId>) {
      out_.node(v);
    } else if constexpr (std::is_same_v<T, sim::Duration>) {
      out_.duration(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out_.str(v);
    } else if constexpr (detail::kOptional<T>) {
      out_.boolean(v.has_value());
      if (v) put(*v);
    } else if constexpr (detail::kVector<T> || detail::kMap<T>) {
      out_.u32(static_cast<std::uint32_t>(v.size()));
      for (const auto& item : v) put(item);
    } else if constexpr (detail::kPair<T>) {
      put(v.first);
      put(v.second);
    } else if constexpr (detail::kRest<T>) {
      for (const auto& item : v.items) put(item);
    } else if constexpr (std::is_same_v<T, MessagePtr>) {
      out_.boolean(v != nullptr);
      if (v) detail::write_frame(out_, *v);
    } else if constexpr (detail::kShared<T>) {
      if constexpr (std::is_base_of_v<Message, typename T::element_type>) {
        detail::write_frame(out_, *v);
      } else {
        put(*v);
      }
    } else {
      // Walking never changes a field; fields() is non-const only so that
      // the decoder can fill the same list.
      const_cast<T&>(v).fields(*this);
    }
  }

  Sink& out_;
};

using FieldSizer = FieldEncoder<ByteCount>;

/// Walks a field list out of a Reader: the inverse of FieldEncoder<Writer>.
class FieldDecoder {
 public:
  explicit FieldDecoder(Reader& in) : in_(in) {}

  template <typename... F>
  void operator()(F&&... fields) {
    (get(fields), ...);
  }
  void check(bool ok, const char* what) {
    if (!ok) throw CodecError(what);
  }

 private:
  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = in_.boolean();
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw{};
      get(raw);
      v = static_cast<T>(raw);
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      v = in_.u8();
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      v = in_.u32();
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      v = in_.u64();
    } else if constexpr (std::is_same_v<T, double>) {
      v = in_.f64();
    } else if constexpr (std::is_same_v<T, NodeId>) {
      v = in_.node();
    } else if constexpr (std::is_same_v<T, sim::Duration>) {
      v = in_.duration();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = in_.str();
    } else if constexpr (detail::kOptional<T>) {
      v.reset();
      if (in_.boolean()) get(v.emplace());
    } else if constexpr (detail::kVector<T>) {
      const std::uint32_t n = in_.u32();
      v.clear();
      v.reserve(std::min<std::size_t>(n, in_.remaining()));
      for (std::uint32_t i = 0; i < n; ++i) get(v.emplace_back());
      if constexpr (std::is_same_v<T, NodeU64Pairs>) sort_unique(v);
    } else if constexpr (detail::kMap<T>) {
      const std::uint32_t n = in_.u32();
      v.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        typename T::key_type key{};
        typename T::mapped_type value{};
        get(key);
        get(value);
        v.insert_or_assign(std::move(key), std::move(value));
      }
    } else if constexpr (detail::kPair<T>) {
      get(v.first);
      get(v.second);
    } else if constexpr (detail::kRest<T>) {
      v.items.clear();
      while (!in_.done()) get(v.items.emplace_back());
    } else if constexpr (std::is_same_v<T, MessagePtr>) {
      v = in_.boolean() ? decode_frame(in_) : nullptr;
    } else if constexpr (detail::kShared<T>) {
      using U = std::remove_const_t<typename T::element_type>;
      if constexpr (std::is_base_of_v<Message, U>) {
        v = message_cast<U>(decode_frame(in_));
        if (!v) throw CodecError("nested frame is not " + std::string(U::kTypeName));
      } else {
        auto item = std::make_shared<U>();
        get(*item);
        v = std::move(item);
      }
    } else {
      v.fields(*this);
    }
  }

  /// A well-formed encoder writes NodeU64Pairs sorted and unique; other
  /// input is normalized exactly as decoding it into a std::map would be
  /// (sorted by node, the last value winning).
  static void sort_unique(NodeU64Pairs& v) {
    const bool sorted = std::adjacent_find(v.begin(), v.end(), [](const auto& a, const auto& b) {
                          return !(a.first < b.first);
                        }) == v.end();
    if (sorted) return;
    std::map<NodeId, std::uint64_t> m;
    for (const auto& [node, value] : v) m[node] = value;
    v.assign(m.begin(), m.end());
  }

  Reader& in_;
};

// ---------------------------------------------------------------------------
// Codec-enabled messages
// ---------------------------------------------------------------------------

/// A string literal as a template argument: a wire type's name.
template <std::size_t N>
struct WireName {
  constexpr WireName(const char (&s)[N]) { std::copy_n(s, N, chars); }
  char chars[N];
};

/// Base of every codec-enabled message: `Self` states its wire id and name
/// here, and its layout as a `template <typename V> void fields(V& v)`
/// member. encode(), body_size() (hence wire_size()) and the registered
/// decoder all walk that one field list.
template <typename Self, WireTypeId Id, WireName Name>
class Wire : public Message {
 public:
  static constexpr WireTypeId kWireType = Id;
  static constexpr std::string_view kTypeName{Name.chars, sizeof(Name.chars) - 1};

  std::string type_name() const final { return std::string(kTypeName); }
  WireTypeId wire_type() const final { return Id; }
  void encode(Writer& w) const final { FieldEncoder<Writer>{w}(self()); }
  std::size_t body_size() const final {
    ByteCount count;
    FieldSizer{count}(self());
    return count.size();
  }

  /// The decoder registered for Id.
  static MessagePtr decode(Reader& r) {
    auto msg = std::make_shared<Self>();
    FieldDecoder{r}(*msg);
    return msg;
  }

 private:
  const Self& self() const { return static_cast<const Self&>(*this); }
};

/// Registers the decoders of the Wire types `M...` in the global registry.
template <typename... M>
void register_wire_types() {
  (CodecRegistry::global().add(M::kWireType, &M::decode), ...);
}

}  // namespace aqueduct::net
