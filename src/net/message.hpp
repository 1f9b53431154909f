// Base message type exchanged over a net::Transport.
//
// Protocol layers define concrete messages by deriving from Message; the
// receiving layer recovers the concrete type with dynamic_pointer_cast, or
// from the stable wire_type() where one id names exactly one type.
// Messages are immutable after send (shared by sender-side retransmission
// buffers and receivers), hence they travel as shared_ptr<const Message> —
// which is also what lets wire_size() size a frame once and remember it.
//
// Codec surface: a message that can cross a process boundary derives from
// net::Wire (net/codec.hpp), which supplies wire_type(), encode(),
// body_size() and the registered decoder from the one field list the type
// declares. In-process transports never serialize — the codec is
// exercised only by socket transports and the round-trip tests; the
// simulator only sizes frames.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace aqueduct::net {

class Writer;

/// Stable identifier of a concrete message type on the wire. 0 is
/// reserved for "not codec-enabled". Ids are assigned once per type and
/// never reused; see the kWire* constants in each layer's messages header.
using WireTypeId = std::uint32_t;

class Message {
 public:
  virtual ~Message() = default;

  /// Human-readable type tag used in logs and traces.
  virtual std::string type_name() const = 0;

  /// The type's stable wire id, or 0 if the message cannot be serialized
  /// (test-local and process-local types).
  virtual WireTypeId wire_type() const { return 0; }

  /// Appends the message body (no frame header) to `w`. The default
  /// throws CodecError; net::Wire overrides it with a walk of the type's
  /// field list.
  virtual void encode(Writer& w) const;

  /// Length of the body encode() writes, computed by walking the same
  /// field list without writing. The default throws CodecError.
  virtual std::size_t body_size() const;

  /// Wire size in bytes, used for bandwidth accounting in traces and the
  /// protocol-overhead benches; delivery latency is governed by the
  /// link's latency model. For codec-enabled messages the default is the
  /// frame header plus body_size(); types outside the codec, and frames
  /// with a nested payload outside it, fall back to a nominal 64 bytes.
  /// The default computes the size on its first call and returns the
  /// memoized value afterwards, so a multicast shared by every destination
  /// is sized once, not once per send.
  virtual std::size_t wire_size() const;

 private:
  /// wire_size()'s memo; 0 means "not computed yet" (no frame is empty).
  /// Relaxed atomic: the value is a pure function of the immutable message,
  /// so racing first calls store the same number. A copy starts empty — it
  /// may be mutated before it is sent.
  struct WireSizeMemo {
    WireSizeMemo() = default;
    WireSizeMemo(const WireSizeMemo&) noexcept {}
    WireSizeMemo& operator=(const WireSizeMemo&) noexcept {
      bytes.store(0, std::memory_order_relaxed);
      return *this;
    }
    std::atomic<std::uint32_t> bytes{0};
  };
  mutable WireSizeMemo wire_size_memo_;
};

using MessagePtr = std::shared_ptr<const Message>;

/// Downcasts a received message to the expected concrete type.
/// Returns nullptr if the message is of a different type.
template <typename T>
std::shared_ptr<const T> message_cast(const MessagePtr& msg) {
  return std::dynamic_pointer_cast<const T>(msg);
}

}  // namespace aqueduct::net
