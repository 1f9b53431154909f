#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "sim/check.hpp"

namespace aqueduct::net {

namespace {

// A peer address packed as (ipv4 << 16) | port, both host byte order —
// avoids leaking <netinet/in.h> types into the header.
std::uint64_t pack_addr(std::uint32_t ip, std::uint16_t port) {
  return (static_cast<std::uint64_t>(ip) << 16) | port;
}

sockaddr_in unpack_addr(std::uint64_t packed) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(static_cast<std::uint32_t>(packed >> 16));
  addr.sin_port = htons(static_cast<std::uint16_t>(packed & 0xffff));
  return addr;
}

std::uint32_t resolve_ipv4(const std::string& host) {
  if (host.empty() || host == "localhost") return INADDR_LOOPBACK;
  in_addr parsed{};
  if (inet_pton(AF_INET, host.c_str(), &parsed) != 1) {
    throw std::runtime_error("UdpTransport: not an IPv4 address: " + host);
  }
  return ntohl(parsed.s_addr);
}

}  // namespace

UdpTransport::UdpTransport(runtime::Executor& exec, UdpConfig config)
    : exec_(exec),
      config_(std::move(config)),
      recv_buf_(64 * 1024),
      c_sent_(obs_.metrics.counter("net.messages_sent")),
      c_delivered_(obs_.metrics.counter("net.messages_delivered")),
      c_dropped_detached_(obs_.metrics.counter("net.messages_dropped_detached")),
      c_dropped_unroutable_(
          obs_.metrics.counter("net.messages_dropped_unroutable")),
      c_decode_errors_(obs_.metrics.counter("net.decode_errors")),
      c_bytes_sent_(obs_.metrics.counter("net.bytes_sent")) {
  AQUEDUCT_CHECK_MSG(config_.local_id.valid(),
                     "UdpTransport requires a valid local node id");
  for (const UdpPeer& peer : config_.peers) add_peer(peer);

  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("UdpTransport: socket(): ") +
                             std::strerror(errno));
  }
  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_addr.s_addr = htonl(resolve_ipv4(config_.listen_host));
  bind_addr.sin_port = htons(config_.listen_port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&bind_addr),
             sizeof(bind_addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("UdpTransport: bind(" + config_.listen_host + ":" +
                             std::to_string(config_.listen_port) + "): " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    local_port_ = ntohs(bound.sin_port);
  }
  schedule_poll();
}

UdpTransport::~UdpTransport() {
  exec_.cancel(poll_handle_);
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::add_peer(const UdpPeer& peer) {
  AQUEDUCT_CHECK_MSG(peer.id.valid(), "peer with invalid node id");
  peer_addrs_[peer.id] = pack_addr(resolve_ipv4(peer.host), peer.port);
}

NodeId UdpTransport::attach(Endpoint& endpoint) {
  AQUEDUCT_CHECK_MSG(endpoint_ == nullptr,
                     "UdpTransport hosts one endpoint per process");
  endpoint_ = &endpoint;
  return config_.local_id;
}

void UdpTransport::detach(NodeId id) {
  if (id == config_.local_id) endpoint_ = nullptr;
}

void UdpTransport::send(NodeId from, NodeId to, MessagePtr msg) {
  AQUEDUCT_CHECK(msg != nullptr);
  AQUEDUCT_CHECK_MSG(from.valid() && to.valid(), "send with invalid node id");
  c_sent_.inc();
  if (!is_attached(from)) {
    // A detached (crashed) local endpoint cannot send; a foreign `from`
    // would forge another node's identity.
    c_dropped_detached_.inc();
    trace_send(obs_.trace, exec_.now(), from, to, *msg, "detached");
    return;
  }
  auto it = peer_addrs_.find(to);
  if (it == peer_addrs_.end()) {
    c_dropped_unroutable_.inc();
    trace_send(obs_.trace, exec_.now(), from, to, *msg, "unroutable");
    return;
  }
  // The envelope: sender and destination ids ahead of the frame, which
  // stays address-agnostic (reusable as-is for storage or replay).
  Writer w;
  w.node(from);
  w.node(to);
  try {
    encode_frame(*msg, w);
  } catch (const CodecError&) {
    // Not serializable (ad-hoc local type): cannot cross a process
    // boundary. Surface it like a decode error — dropped, counted, never
    // silently corrupted.
    c_decode_errors_.inc();
    trace_send(obs_.trace, exec_.now(), from, to, *msg, "encode_error");
    return;
  }
  c_bytes_sent_.inc(w.size());
  trace_send(obs_.trace, exec_.now(), from, to, *msg, "");
  const sockaddr_in addr = unpack_addr(it->second);
  // Best effort, exactly like the wire: a full socket buffer or an
  // oversized frame is message loss, and the gcs layer's NACK/heartbeat
  // machinery recovers.
  (void)::sendto(fd_, w.bytes().data(), w.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
}

void UdpTransport::schedule_poll() {
  poll_handle_ = exec_.after(config_.poll_interval, [this] {
    drain_socket();
    schedule_poll();
  });
}

void UdpTransport::drain_socket() {
  for (;;) {
    const ssize_t n =
        ::recvfrom(fd_, recv_buf_.data(), recv_buf_.size(), 0, nullptr, nullptr);
    if (n < 0) return;  // EAGAIN/EWOULDBLOCK: drained (other errors: retry next poll)
    Reader r(recv_buf_.data(), static_cast<std::size_t>(n));
    NodeId from, to;
    MessagePtr msg;
    try {
      from = r.node();
      to = r.node();
      msg = decode_frame(r);
      if (!r.done()) throw CodecError("trailing bytes after frame");
      if (!from.valid() || !to.valid()) throw CodecError("invalid node id");
    } catch (const CodecError&) {
      c_decode_errors_.inc();
      continue;
    }
    if (to != config_.local_id || endpoint_ == nullptr) {
      c_dropped_detached_.inc();
      continue;
    }
    c_delivered_.inc();
    endpoint_->on_message(from, msg);
  }
}

TransportStats UdpTransport::stats() const {
  TransportStats s;
  s.messages_sent = c_sent_.value();
  s.messages_delivered = c_delivered_.value();
  s.messages_dropped_detached = c_dropped_detached_.value();
  s.messages_dropped_unroutable = c_dropped_unroutable_.value();
  s.decode_errors = c_decode_errors_.value();
  s.bytes_sent = c_bytes_sent_.value();
  return s;
}

}  // namespace aqueduct::net
