// Real-socket backend of net::Transport: one non-blocking UDP socket per
// process, driven by the executor's timer loop.
//
// Each process is one node. The local identity and the peer address book
// are fixed configuration (live_cli assembles them from --listen/--peer):
// send() frames the message with the wire codec (net/codec.hpp), prefixes
// the (from, to) node ids as varints, and writes one datagram to the peer's
// address; a self-rescheduling poll task drains the socket every
// `poll_interval` and delivers decoded messages to the attached endpoint.
// Datagrams that fail to decode are dropped and counted in
// net.decode_errors — malformed or mis-versioned input never reaches
// protocol code.
//
// Delivery guarantees match UDP: messages can be lost, reordered, and
// duplicated; the gcs layer's reliable FIFO machinery recovers, exactly
// as over the chaos decorator's injected loss. Like the loopback, the bare
// socket injects no faults (fault_injection() is nullptr); live_cli's
// --chaos-* flags wrap it in the chaos decorator (net/chaos.hpp) to inject
// them over real sockets.
//
// The receiving process must register the wire codecs of every layer
// whose messages it expects (gcs::register_wire_codecs(),
// replication::register_wire_codecs()) before messages arrive.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/codec.hpp"
#include "net/transport.hpp"

namespace aqueduct::net {

/// One address-book entry: where datagrams for `id` go.
struct UdpPeer {
  NodeId id;
  std::string host;  // IPv4 dotted quad or "localhost"
  std::uint16_t port = 0;
};

struct UdpConfig {
  /// This process's node identity; attach() hands it to the endpoint.
  NodeId local_id;
  /// Bind address. Port 0 binds an ephemeral port (see local_port()).
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  /// Peer address book; an entry for local_id is allowed and ignored on
  /// send (self-sends loop through the socket like any other datagram).
  std::vector<UdpPeer> peers;
  /// Cadence of the socket-drain poll task.
  runtime::Duration poll_interval = std::chrono::milliseconds(1);
};

class UdpTransport final : public Transport {
 public:
  /// Opens and binds the socket and starts the poll task on `exec`.
  /// Throws std::runtime_error if the socket cannot be created or bound.
  UdpTransport(runtime::Executor& exec, UdpConfig config);
  ~UdpTransport() override;

  // ---- Transport ----
  /// Returns the configured local id. One endpoint at a time; attach
  /// again after detach() to model a process restart.
  NodeId attach(Endpoint& endpoint) override;
  void detach(NodeId id) override;
  bool is_attached(NodeId id) const override {
    return endpoint_ != nullptr && id == config_.local_id;
  }
  void send(NodeId from, NodeId to, MessagePtr msg) override;
  TransportStats stats() const override;
  obs::Observability& observability() override { return obs_; }
  runtime::Executor& executor() override { return exec_; }

  /// The bound UDP port (useful when listen_port was 0).
  std::uint16_t local_port() const { return local_port_; }
  NodeId local_id() const { return config_.local_id; }
  /// Adds or replaces an address-book entry (tests wire two ephemeral
  /// transports together after both have bound).
  void add_peer(const UdpPeer& peer);

 private:
  void schedule_poll();
  void drain_socket();

  runtime::Executor& exec_;
  UdpConfig config_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::unordered_map<NodeId, std::uint64_t> peer_addrs_;  // packed ip:port
  Endpoint* endpoint_ = nullptr;
  runtime::TaskHandle poll_handle_;
  std::vector<std::uint8_t> recv_buf_;

  obs::Observability obs_;  // must precede the instrument references below
  obs::Counter& c_sent_;
  obs::Counter& c_delivered_;
  obs::Counter& c_dropped_detached_;
  obs::Counter& c_dropped_unroutable_;
  obs::Counter& c_decode_errors_;
  obs::Counter& c_bytes_sent_;
};

}  // namespace aqueduct::net
