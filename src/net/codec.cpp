#include "net/codec.hpp"

#include "sim/check.hpp"

namespace aqueduct::net {

void Message::encode(Writer&) const {
  throw CodecError("message type '" + type_name() + "' is not codec-enabled");
}

std::size_t Message::body_size() const {
  throw CodecError("message type '" + type_name() + "' is not codec-enabled");
}

namespace {

std::uint32_t sized_frame(const Message& msg) {
  if (msg.wire_type() == 0) return 64;  // nominal size for non-wire types
  try {
    return static_cast<std::uint32_t>(frame_size(msg.wire_type(), msg.body_size()));
  } catch (const CodecError&) {
    // A codec-enabled envelope carrying a non-encodable payload, at any
    // depth (tests wrap ad-hoc local messages in gcs frames): fall back to
    // the nominal estimate for the whole frame rather than poison
    // bandwidth accounting.
    return 64;
  }
}

}  // namespace

std::size_t Message::wire_size() const {
  std::uint32_t bytes = wire_size_memo_.bytes.load(std::memory_order_relaxed);
  if (bytes == 0) {
    bytes = sized_frame(*this);
    wire_size_memo_.bytes.store(bytes, std::memory_order_relaxed);
  }
  return bytes;
}

CodecRegistry& CodecRegistry::global() {
  static CodecRegistry registry;
  return registry;
}

void CodecRegistry::add(WireTypeId id, DecodeFn decode) {
  AQUEDUCT_CHECK_MSG(id != 0, "wire type id 0 is reserved");
  auto [it, inserted] = decoders_.emplace(id, decode);
  if (!inserted) {
    // Idempotent re-registration (several composition roots may register
    // the same layer); a *different* decoder under the same id is a
    // protocol-definition bug.
    AQUEDUCT_CHECK_MSG(it->second == decode, "conflicting decoder for wire type id");
  }
}

std::vector<WireTypeId> CodecRegistry::ids() const {
  std::vector<WireTypeId> out;
  out.reserve(decoders_.size());
  for (const auto& [id, decode] : decoders_) out.push_back(id);
  return out;
}

void encode_frame(const Message& msg, Writer& w) {
  const WireTypeId id = msg.wire_type();
  if (id == 0) {
    throw CodecError("message type '" + msg.type_name() +
                     "' is not codec-enabled");
  }
  // Sized first, so the length goes in front and nothing is written for a
  // message that cannot be encoded.
  const std::size_t len = msg.body_size();
  w.fixed32(kWireMagic);
  w.u8(kWireVersion);
  w.u32(id);
  w.u64(len);
  const std::size_t body_start = w.size();
  msg.encode(w);
  AQUEDUCT_CHECK_MSG(w.size() - body_start == len, "encode() and body_size() disagree");
}

std::vector<std::uint8_t> encode_frame(const Message& msg) {
  Writer w;
  encode_frame(msg, w);
  return w.bytes();
}

MessagePtr decode_frame(Reader& r, const CodecRegistry& registry) {
  if (r.fixed32() != kWireMagic) throw CodecError("bad frame magic");
  const std::uint8_t version = r.u8();
  if (version != kWireVersion) {
    throw CodecError("unsupported wire version " + std::to_string(version));
  }
  const WireTypeId id = r.u32();
  const std::uint64_t len = r.u64();
  if (len > r.remaining()) throw CodecError("frame length exceeds input");
  const CodecRegistry::DecodeFn decode = registry.find(id);
  if (decode == nullptr) {
    throw CodecError("unknown wire type id " + std::to_string(id));
  }
  Reader body = r.sub(len);
  MessagePtr msg = decode(body);
  AQUEDUCT_CHECK(msg != nullptr);
  if (!body.done()) throw CodecError("decoder left trailing payload bytes");
  return msg;
}

}  // namespace aqueduct::net
