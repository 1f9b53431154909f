// Wire codec: byte-level serialization of net::Message frames.
//
// Integers travel as canonical LEB128 varints: seven bits per byte, low
// group first, the high bit set on every byte but the last, and no
// trailing zero group (so every value has exactly one encoding, 1 to 10
// bytes long). A frame is
//
//   u32     magic   0x41515746 ("AQWF"), little-endian
//   u8      version kWireVersion (bumped on any incompatible layout change)
//   varint  type id (stable per concrete message type; see CodecRegistry)
//   varint  payload length in bytes
//   ...     payload (exactly `length` bytes, the message's fields)
//
// and a nested frame (a message carried inside another) is the same frame.
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
// truncation, a non-canonical varint or map order, trailing bytes, a
// failed check) throws CodecError; transports catch it, count
// net.decode_errors, and drop the datagram — malformed input can never
// reach protocol code.
//
// Round-trip guarantee: the decoder accepts canonical input only, so
// encode(decode(bytes)) reproduces `bytes` exactly for every `bytes` it
// accepts (tests/codec_test.cpp enforces it per type and under corruption,
// and pins every exemplar's frame bytes).
#pragma once

#include <algorithm>
#include <bit>
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
inline constexpr std::uint8_t kWireVersion = 8;

/// Thrown on any malformed input; also thrown when asked to encode a
/// message (or a nested payload) whose type is not codec-enabled.
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Length of `v` as an unsigned LEB128 varint: one byte per started group
/// of seven significant bits, 1 to 10. (9 * bits + 64) / 64 equals
/// ceil(bits / 7) for every bits in 1..64 and needs no division, which
/// keeps sizing a message cheap.
constexpr std::size_t varint_size(std::uint64_t v) {
  return (9 * static_cast<std::size_t>(std::bit_width(v | 1)) + 64) / 64;
}

/// Zigzag mapping of a signed value to an unsigned one, so that values of
/// small magnitude, negative or not, get short varints: 0, -1, 1, -2, ...
/// map to 0, 1, 2, 3, ...
constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Length of a whole frame of type `id` whose payload is `body` bytes.
constexpr std::size_t frame_size(WireTypeId id, std::size_t body) {
  return 4 + 1 + varint_size(id) + varint_size(body) + body;
}

/// Append-only byte sink: varint integers, little-endian f64.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { varint(v); }
  void u64(std::uint64_t v) { varint(v); }
  /// Four bytes, little-endian (the frame magic).
  void fixed32(std::uint32_t v) { le(v); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void node(NodeId id) { varint(id.value()); }
  void duration(sim::Duration d) { varint(zigzag(d.count())); }
  void raw(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  void varint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) buf_.push_back(static_cast<std::uint8_t>(v | 0x80));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked byte source over a borrowed buffer, the inverse of
/// Writer. Every accessor throws CodecError instead of reading past the
/// end, and on any varint that is not canonical or does not fit its field.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() {
    const std::uint64_t v = varint();
    if (v > UINT32_MAX) throw CodecError("varint exceeds 32 bits");
    return static_cast<std::uint32_t>(v);
  }
  std::uint64_t u64() { return varint(); }
  std::uint32_t fixed32() { return le<std::uint32_t>(); }
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
  sim::Duration duration() { return sim::Duration(unzigzag(varint())); }

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
  /// A canonical varint: at most 10 bytes, the 10th holding only bit 63,
  /// and no trailing zero group.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t b = u8();
      if (shift == 63 && b > 1) throw CodecError("varint exceeds 64 bits");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (b < 0x80) {
        if (b == 0 && shift > 0) throw CodecError("overlong varint");
        return v;
      }
    }
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
/// std::map<NodeId, std::uint64_t>, with the same wire encoding (and the
/// same decoding: out-of-order or repeated nodes are malformed input).
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
  void u32(std::uint32_t v) { bytes_ += varint_size(v); }
  void u64(std::uint64_t v) { bytes_ += varint_size(v); }
  void f64(double) { bytes_ += 8; }
  void boolean(bool) { bytes_ += 1; }
  void str(const std::string& s) { bytes_ += varint_size(s.size()) + s.size(); }
  void node(NodeId id) { bytes_ += varint_size(id.value()); }
  void duration(sim::Duration d) { bytes_ += varint_size(zigzag(d.count())); }
  /// A nested frame, sized by its own field list.
  void frame(const Message& msg) { bytes_ += frame_size(msg.wire_type(), msg.body_size()); }

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
///   bool, std::uint8_t                is one byte (a bool is 0 or 1);
///   std::uint32_t, std::uint64_t      is an unsigned varint;
///   double                            is 8 bytes, little-endian IEEE 754;
///   an enum                           is its underlying type;
///   NodeId                            is an unsigned varint of its value;
///   sim::Duration                     is a zigzag varint of its tick count;
///   std::string                       is a varint length and the bytes;
///   std::optional<T>                  is a presence byte, then T;
///   std::vector<T>, std::map<K, V>    is a varint count, then each item
///                                     (a map's in ascending key order);
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
      if constexpr (std::is_same_v<T, NodeU64Pairs>) {
        const bool ascending =
            std::adjacent_find(v.begin(), v.end(), [](const auto& a, const auto& b) {
              return !(a.first < b.first);
            }) == v.end();
        check(ascending, "node pairs not in strictly ascending node order");
      }
    } else if constexpr (detail::kMap<T>) {
      const std::uint32_t n = in_.u32();
      v.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        typename T::key_type key{};
        typename T::mapped_type value{};
        get(key);
        get(value);
        check(v.empty() || v.rbegin()->first < key, "map keys not in strictly ascending order");
        v.emplace_hint(v.end(), std::move(key), std::move(value));
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
