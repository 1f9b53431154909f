// Wire encode/decode of the gcs messages (see messages.hpp for the id
// block). Each encode() writes fields in declaration order; the decoders
// read them back symmetrically, so encode(decode(bytes)) == bytes.
#include <cstddef>
#include <cstdint>
#include <memory>

#include "gcs/messages.hpp"

namespace aqueduct::gcs {

namespace {

using net::Reader;
using net::Writer;

constexpr std::size_t kGroupSize = sizeof(std::uint32_t);
void encode_group(Writer& w, GroupId g) { w.u32(g.value()); }
GroupId decode_group(Reader& r) { return GroupId{r.u32()}; }

void encode_view(Writer& w, const View& v) {
  encode_group(w, v.group);
  w.u64(v.id);
  net::encode_node_vector(w, v.members);
  net::encode_node_vector(w, v.listeners);
}

View decode_view(Reader& r) {
  View v;
  v.group = decode_group(r);
  v.id = r.u64();
  v.members = net::decode_node_vector(r);
  v.listeners = net::decode_node_vector(r);
  return v;
}

// Held/resolution entries are complete DataMsg frames, so their nested
// payloads resolve through the registry like any other message.
void encode_data_vector(Writer& w, const std::vector<DataMsgPtr>& msgs) {
  w.u32(static_cast<std::uint32_t>(msgs.size()));
  for (const DataMsgPtr& m : msgs) net::encode_frame(*m, w);
}

std::vector<DataMsgPtr> decode_data_vector(Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<DataMsgPtr> msgs;
  msgs.reserve(std::min<std::size_t>(n, 1024));
  for (std::uint32_t i = 0; i < n; ++i) {
    net::MessagePtr m = net::decode_frame(r);
    DataMsgPtr data = net::message_cast<DataMsg>(m);
    if (!data) throw net::CodecError("flush/install entry is not gcs.data");
    msgs.push_back(std::move(data));
  }
  return msgs;
}

net::MessagePtr decode_data(Reader& r) {
  auto m = std::make_shared<DataMsg>();
  m->group = decode_group(r);
  m->is_mcast = r.boolean();
  m->sender = r.node();
  m->dest = r.node();
  m->seq = r.u64();
  m->payload = net::decode_nested(r);
  return m;
}

void decode_section(Reader& r, HeartbeatSection& s) {
  s.group = decode_group(r);
  s.my_mcast_seq = r.u64();
  s.my_p2p_seq = net::decode_node_u64_pairs(r);
  s.mcast_acks = net::decode_node_u64_pairs(r);
  s.p2p_acks = net::decode_node_u64_pairs(r);
}

// The riders run to the end of the frame body; a truncated one throws.
net::MessagePtr decode_heartbeat(Reader& r) {
  auto m = std::make_shared<HeartbeatMsg>();
  decode_section(r, *m);
  while (!r.done()) {
    auto rider = std::make_shared<HeartbeatSection>();
    decode_section(r, *rider);
    m->riders.push_back(std::move(rider));
  }
  return m;
}

net::MessagePtr decode_nack(Reader& r) {
  auto m = std::make_shared<NackMsg>();
  m->group = decode_group(r);
  m->is_mcast = r.boolean();
  m->from_seq = r.u64();
  m->to_seq = r.u64();
  return m;
}

net::MessagePtr decode_join(Reader& r) {
  auto m = std::make_shared<JoinMsg>();
  m->group = decode_group(r);
  const std::uint8_t role = r.u8();
  if (role > static_cast<std::uint8_t>(Role::kListener)) {
    throw net::CodecError("gcs.join: unknown role");
  }
  m->role = static_cast<Role>(role);
  return m;
}

net::MessagePtr decode_leave(Reader& r) {
  auto m = std::make_shared<LeaveMsg>();
  m->group = decode_group(r);
  return m;
}

net::MessagePtr decode_suspect(Reader& r) {
  auto m = std::make_shared<SuspectMsg>();
  m->group = decode_group(r);
  m->suspect = r.node();
  return m;
}

net::MessagePtr decode_propose(Reader& r) {
  auto m = std::make_shared<ProposeMsg>();
  m->group = decode_group(r);
  m->proposal = r.u64();
  m->members = net::decode_node_vector(r);
  return m;
}

net::MessagePtr decode_flush(Reader& r) {
  auto m = std::make_shared<FlushMsg>();
  m->group = decode_group(r);
  m->proposal = r.u64();
  m->delivered = net::decode_node_u64_map(r);
  m->held = decode_data_vector(r);
  return m;
}

net::MessagePtr decode_install(Reader& r) {
  auto m = std::make_shared<InstallMsg>();
  m->group = decode_group(r);
  m->proposal = r.u64();
  m->view = decode_view(r);
  m->deliver_up_to = net::decode_node_u64_map(r);
  m->resolution = decode_data_vector(r);
  return m;
}

}  // namespace

void DataMsg::encode(Writer& w) const {
  encode_group(w, group);
  w.boolean(is_mcast);
  w.node(sender);
  w.node(dest);
  w.u64(seq);
  net::encode_nested(w, payload);
}

void HeartbeatSection::encode_section(Writer& w) const {
  encode_group(w, group);
  w.u64(my_mcast_seq);
  net::encode_node_u64_map(w, my_p2p_seq);
  net::encode_node_u64_map(w, mcast_acks);
  net::encode_node_u64_map(w, p2p_acks);
}

// Field by field what encode_section() writes.
std::size_t HeartbeatSection::encoded_size() const {
  return kGroupSize + sizeof(std::uint64_t) + net::node_u64_map_size(my_p2p_seq.size()) +
         net::node_u64_map_size(mcast_acks.size()) + net::node_u64_map_size(p2p_acks.size());
}

void HeartbeatMsg::encode(Writer& w) const {
  encode_section(w);
  for (const HeartbeatSectionPtr& rider : riders) rider->encode_section(w);
}

std::size_t HeartbeatMsg::wire_size() const {
  std::size_t bytes = net::kFrameHeaderSize + encoded_size();
  for (const HeartbeatSectionPtr& rider : riders) bytes += rider->encoded_size();
  return bytes;
}

void NackMsg::encode(Writer& w) const {
  encode_group(w, group);
  w.boolean(is_mcast);
  w.u64(from_seq);
  w.u64(to_seq);
}

void JoinMsg::encode(Writer& w) const {
  encode_group(w, group);
  w.u8(static_cast<std::uint8_t>(role));
}

void LeaveMsg::encode(Writer& w) const { encode_group(w, group); }

void SuspectMsg::encode(Writer& w) const {
  encode_group(w, group);
  w.node(suspect);
}

void ProposeMsg::encode(Writer& w) const {
  encode_group(w, group);
  w.u64(proposal);
  net::encode_node_vector(w, members);
}

void FlushMsg::encode(Writer& w) const {
  encode_group(w, group);
  w.u64(proposal);
  net::encode_node_u64_map(w, delivered);
  encode_data_vector(w, held);
}

void InstallMsg::encode(Writer& w) const {
  encode_group(w, group);
  w.u64(proposal);
  encode_view(w, view);
  net::encode_node_u64_map(w, deliver_up_to);
  encode_data_vector(w, resolution);
}

void register_wire_codecs() {
  auto& reg = net::CodecRegistry::global();
  reg.add(kWireData, "gcs.data", decode_data);
  reg.add(kWireHeartbeat, "gcs.heartbeat", decode_heartbeat);
  reg.add(kWireNack, "gcs.nack", decode_nack);
  reg.add(kWireJoin, "gcs.join", decode_join);
  reg.add(kWireLeave, "gcs.leave", decode_leave);
  reg.add(kWireSuspect, "gcs.suspect", decode_suspect);
  reg.add(kWirePropose, "gcs.propose", decode_propose);
  reg.add(kWireFlush, "gcs.flush", decode_flush);
  reg.add(kWireInstall, "gcs.install", decode_install);
}

}  // namespace aqueduct::gcs
