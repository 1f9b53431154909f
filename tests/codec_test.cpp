// Wire-codec round-trip suite: every registered message type must encode
// to a frame that decodes back to an equal message, byte for byte
// (encode(decode(bytes)) == bytes), and every malformed input must throw
// CodecError instead of crashing or silently misparsing.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gcs/messages.hpp"
#include "net/codec.hpp"
#include "net/message.hpp"
#include "replication/messages.hpp"
#include "replication/objects.hpp"
#include "sim/random.hpp"

namespace aqueduct {
namespace {

net::MessagePtr make_kv_put() {
  auto op = std::make_shared<replication::KvPut>();
  op->key = "k3";
  op->value = "v-\x01\x02 with bytes";
  return op;
}

std::shared_ptr<const gcs::DataMsg> make_data_msg() {
  auto data = std::make_shared<gcs::DataMsg>();
  data->group = gcs::GroupId{17};
  data->is_mcast = false;
  data->sender = net::NodeId{3};
  data->seq = 41;
  data->payload = make_kv_put();
  return data;
}

std::shared_ptr<const gcs::HeartbeatShared> shared_part(std::uint64_t my_mcast_seq,
                                                        net::NodeU64Pairs mcast_acks) {
  return std::make_shared<const gcs::HeartbeatShared>(
      gcs::HeartbeatShared{my_mcast_seq, std::move(mcast_acks)});
}

/// One fully populated exemplar per registered wire type. Coverage is
/// enforced against CodecRegistry::global().ids(): adding a codec-enabled
/// message without extending this list fails the suite.
std::vector<net::MessagePtr> exemplars() {
  std::vector<net::MessagePtr> out;

  // ---- gcs (0x1*) ----
  out.push_back(make_data_msg());
  {
    auto m = std::make_shared<gcs::HeartbeatMsg>();
    m->group = gcs::GroupId{18};
    m->p2p_sent = 7;
    m->p2p_acked = 3;
    m->shared = shared_part(100, {{net::NodeId{1}, 99}});
    m->riders = {gcs::HeartbeatSection{gcs::GroupId{20}, 0, 0,
                                       shared_part(0, {{net::NodeId{2}, 8}})}};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::NackMsg>();
    m->group = gcs::GroupId{18};
    m->is_mcast = false;
    m->from_seq = 10;
    m->to_seq = 15;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::JoinMsg>();
    m->group = gcs::GroupId{19};
    m->role = gcs::Role::kListener;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::LeaveMsg>();
    m->group = gcs::GroupId{19};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::SuspectMsg>();
    m->group = gcs::GroupId{17};
    m->suspect = net::NodeId{11};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::ProposeMsg>();
    m->group = gcs::GroupId{17};
    m->proposal = 9;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::FlushMsg>();
    m->group = gcs::GroupId{17};
    m->proposal = 9;
    m->delivered = {{net::NodeId{1}, 12}, {net::NodeId{2}, 0}};
    m->held = {make_data_msg()};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::InstallMsg>();
    m->group = gcs::GroupId{17};
    m->view.group = gcs::GroupId{17};
    m->view.id = 10;
    m->view.members = {net::NodeId{1}, net::NodeId{3}};
    m->view.listeners = {net::NodeId{3}};
    m->deliver_up_to = {{net::NodeId{1}, 12}};
    m->resolution = {make_data_msg()};
    out.push_back(m);
  }

  // ---- replication protocol (0x2*) ----
  {
    auto m = std::make_shared<replication::UpdateRequest>();
    m->id = {net::NodeId{21}, 5};
    m->op = make_kv_put();
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::ReadRequest>();
    m->id = {net::NodeId{21}, 6};
    auto op = std::make_shared<replication::KvGet>();
    op->key = "k3";
    m->op = op;
    m->bound = 4;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::GsnAssign>();
    m->id = {net::NodeId{21}, 5};
    m->gsn = 77;
    m->is_update = true;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::Reply>();
    m->id = {net::NodeId{21}, 6};
    auto result = std::make_shared<replication::KvResult>();
    result->value = "v";
    result->version = 8;
    m->result = result;
    m->replica = net::NodeId{12};
    m->ts = std::chrono::milliseconds(20);
    m->tq = std::chrono::milliseconds(5);
    m->tb = sim::Duration::zero();
    m->deferred = true;
    m->staleness = 2;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::LazyUpdate>();
    m->csn = 8;
    auto snap = std::make_shared<replication::KvSnapshot>();
    snap->entries = {{"a", "1"}, {"b", "2"}};
    snap->version = 8;
    m->snapshot = snap;
    out.push_back(m);
  }
  out.push_back(std::make_shared<replication::StateRequest>());
  {
    auto m = std::make_shared<replication::StateSnapshot>();
    m->csn = 8;
    m->gsn = 9;
    auto snap = std::make_shared<replication::KvSnapshot>();
    snap->version = 8;
    m->snapshot = snap;
    m->committed = {{net::NodeId{21}, 5}, {net::NodeId{22}, 1}};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::PerfPublication>();
    m->replica = net::NodeId{12};
    m->has_sample = true;
    m->ts = std::chrono::milliseconds(20);
    m->tq = std::chrono::milliseconds(5);
    m->tb = std::chrono::milliseconds(1);
    m->deferred = true;
    m->lazy = replication::LazyInfo{3, std::chrono::milliseconds(500), 2,
                                    std::chrono::milliseconds(900),
                                    std::chrono::milliseconds(500)};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::GroupInfo>();
    m->epoch = 4;
    m->sequencer = net::NodeId{1};
    m->primaries = {net::NodeId{2}, net::NodeId{3}};
    m->secondaries = {net::NodeId{11}, net::NodeId{12}};
    m->lazy_publisher = net::NodeId{3};
    out.push_back(m);
  }

  // ---- example replicated objects (0x4*) ----
  out.push_back(make_kv_put());
  {
    auto m = std::make_shared<replication::KvGet>();
    m->key = "k3";
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::KvResult>();
    m->value = std::nullopt;  // absent-optional branch
    m->version = 9;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::KvSnapshot>();
    m->entries = {{"x", ""}, {"", "y"}};  // empty strings survive framing
    m->version = 2;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::DocAppend>();
    m->line = "line one";
    out.push_back(m);
  }
  out.push_back(std::make_shared<replication::DocRead>());
  {
    auto m = std::make_shared<replication::DocContents>();
    m->lines = {"a", "b", "c"};
    m->version = 3;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::TickerSet>();
    m->symbol = "ACME";
    m->price = 101.25;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::TickerGet>();
    m->symbol = "ACME";
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::TickerQuote>();
    m->symbol = "ACME";
    m->price = 101.25;
    m->version = 1;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::TickerSnapshot>();
    m->prices = {{"ACME", 101.25}, {"ZZZ", 0.5}};
    m->version = 2;
    out.push_back(m);
  }
  out.push_back(std::make_shared<replication::RegisterBump>());
  out.push_back(std::make_shared<replication::RegisterRead>());
  {
    auto m = std::make_shared<replication::RegisterValue>();
    m->value = 5;
    out.push_back(m);
  }

  return out;
}

class CodecTest : public ::testing::Test {
 protected:
  void SetUp() override { replication::register_wire_codecs(); }
};

TEST_F(CodecTest, ExemplarsCoverEveryRegisteredType) {
  std::set<net::WireTypeId> covered;
  for (const auto& m : exemplars()) {
    EXPECT_NE(m->wire_type(), 0u) << m->type_name();
    EXPECT_TRUE(covered.insert(m->wire_type()).second)
        << "duplicate exemplar for id " << m->wire_type();
  }
  const auto ids = net::CodecRegistry::global().ids();
  const std::set<net::WireTypeId> registered(ids.begin(), ids.end());
  EXPECT_EQ(covered, registered)
      << "every registered type needs an exemplar here, and every exemplar "
         "must be registered";
}

TEST_F(CodecTest, RegistrationIsIdempotent) {
  const std::size_t before = net::CodecRegistry::global().size();
  replication::register_wire_codecs();
  gcs::register_wire_codecs();
  EXPECT_EQ(net::CodecRegistry::global().size(), before);
}

TEST_F(CodecTest, EncodeDecodeEncodeIsByteIdentical) {
  for (const auto& m : exemplars()) {
    SCOPED_TRACE(m->type_name());
    const std::vector<std::uint8_t> bytes = net::encode_frame(*m);
    ASSERT_EQ(bytes.size(), net::frame_size(m->wire_type(), m->body_size()));

    net::Reader r(bytes);
    net::MessagePtr decoded;
    ASSERT_NO_THROW(decoded = net::decode_frame(r));
    ASSERT_TRUE(decoded);
    EXPECT_TRUE(r.done()) << "decoder left trailing bytes";
    EXPECT_EQ(decoded->wire_type(), m->wire_type());
    EXPECT_EQ(decoded->type_name(), m->type_name());

    // Field fidelity without per-type comparators: the decoded message
    // must re-encode to exactly the original bytes.
    EXPECT_EQ(net::encode_frame(*decoded), bytes);
  }
}

// The round trip above cannot see a layout change made the same way in
// encode and decode. These frames pin the bytes of every exemplar, and
// its wire_size(). Each is written at the wire version it was last
// changed in: version 8 made every integer a varint, so today that is
// every frame. A frame of an earlier version must encode today exactly as
// it did then, save the version byte of each frame header in it (offset 4
// of the frame, and of a nested frame).
struct GoldenFrame {
  const char* type_name;
  std::size_t wire_size;
  std::uint8_t version;
  const char* hex;
};

const GoldenFrame kGoldenFrames[] = {
    {"gcs.data", 38, 8,
      "4657514108111f110003290146575141084113026b330f762d01022077697468"
      "206279746573"},
    {"gcs.heartbeat", 21, 8,
      "4657514108120e1207036401016314000000010208"},
    {"gcs.nack", 11, 8,
      "4657514108130412000a0f"},
    {"gcs.join", 9, 8,
      "465751410814021301"},
    {"gcs.leave", 8, 8,
      "4657514108150113"},
    {"gcs.suspect", 9, 8,
      "46575141081602110b"},
    {"gcs.propose", 9, 8,
      "465751410817021109"},
    {"gcs.flush", 53, 8,
      "4657514108182e110902010c0200014657514108111f11000329014657514108"
      "4113026b330f762d01022077697468206279746573"},
    {"gcs.install", 57, 8,
      "4657514108193211110a020103010301010c014657514108111f110003290146"
      "575141084113026b330f762d01022077697468206279746573"},
    {"repl.update", 36, 8,
      "4657514108211d15050146575141084113026b330f762d010220776974682062"
      "79746573"},
    {"repl.read", 21, 8,
      "4657514108220e15060146575141084203026b3304"},
    {"repl.gsn", 11, 8,
      "4657514108230415054d01"},
    {"repl.reply", 33, 8,
      "4657514108241a15060146575141084304010176080c80b4891380ade2040001"
      "02"},
    {"repl.lazy", 26, 8,
      "4657514108251308014657514108440a02016101310162013208"},
    {"repl.state_req", 7, 8,
      "46575141082600"},
    {"repl.state_snap", 24, 8,
      "465751410827110809014657514108440200080215051601"},
    {"repl.perf", 39, 8,
      "465751410828200c0180b4891380ade20480897a0101038094ebdc030280a4a7"
      "da068094ebdc03"},
    {"repl.groupinfo", 16, 8,
      "465751410829090401020203020b0c03"},
    {"kv.put", 26, 8,
      "46575141084113026b330f762d01022077697468206279746573"},
    {"kv.get", 10, 8,
      "46575141084203026b33"},
    {"kv.result", 9, 8,
      "465751410843020009"},
    {"kv.snapshot", 15, 8,
      "465751410844080200017901780002"},
    {"doc.append", 16, 8,
      "46575141084509086c696e65206f6e65"},
    {"doc.read", 7, 8,
      "46575141084600"},
    {"doc.contents", 15, 8,
      "465751410847080301610162016303"},
    {"ticker.set", 20, 8,
      "4657514108480d0441434d450000000000505940"},
    {"ticker.get", 12, 8,
      "465751410849050441434d45"},
    {"ticker.quote", 22, 8,
      "46575141084a0f0441434d4501000000000050594001"},
    {"ticker.snapshot", 34, 8,
      "46575141084b1b020441434d450000000000505940035a5a5a000000000000e0"
      "3f02"},
    {"reg.bump", 7, 8,
      "46575141084c00"},
    {"reg.read", 7, 8,
      "46575141084d00"},
    {"reg.value", 8, 8,
      "46575141084e0105"},
};

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  return hex;
}

/// `hex` with the version byte of every frame header in it (the byte after
/// each "AQWF" magic) set to `version`.
std::string with_version(std::string hex, std::uint8_t version) {
  const std::string magic = "46575141";
  const std::string byte = to_hex({version});
  for (std::size_t at = hex.find(magic); at != std::string::npos; at = hex.find(magic, at + 1)) {
    if (at % 2 == 0) hex.replace(at + magic.size(), 2, byte);
  }
  return hex;
}

TEST_F(CodecTest, GoldenFramesPinEveryExemplar) {
  ASSERT_EQ(net::kWireVersion, 8);
  const auto all = exemplars();
  ASSERT_EQ(all.size(), std::size(kGoldenFrames));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const GoldenFrame& golden = kGoldenFrames[i];
    SCOPED_TRACE(golden.type_name);
    EXPECT_EQ(all[i]->type_name(), golden.type_name);
    const std::string hex = to_hex(net::encode_frame(*all[i]));
    EXPECT_EQ(hex, with_version(golden.hex, net::kWireVersion));
    EXPECT_EQ(all[i]->wire_size(), golden.wire_size);
    if (golden.version == net::kWireVersion) continue;
    // The frames of earlier versions differ only in the version bytes.
    ASSERT_EQ(hex.size(), std::string(golden.hex).size());
    for (std::size_t at = 0; at < hex.size(); at += 2) {
      if (hex.compare(at, 2, golden.hex, at, 2) == 0) continue;
      EXPECT_EQ(hex.substr(at >= 8 ? at - 8 : 0, 8), "46575141")
          << "byte " << at / 2 << " is not a version byte";
    }
  }
}

// The byte round trip above proves re-encoding fidelity; this pins every
// field of the two hottest gcs messages by value after a decode.
TEST_F(CodecTest, DataAndHeartbeatFieldsSurviveTheRoundTrip) {
  const auto data = make_data_msg();
  const std::vector<std::uint8_t> data_bytes = net::encode_frame(*data);
  net::Reader dr(data_bytes);
  const auto got = net::message_cast<gcs::DataMsg>(net::decode_frame(dr));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->group, data->group);
  EXPECT_EQ(got->is_mcast, data->is_mcast);
  EXPECT_EQ(got->sender, data->sender);
  EXPECT_EQ(got->seq, data->seq);
  ASSERT_TRUE(got->payload);
  EXPECT_EQ(net::encode_frame(*got->payload), net::encode_frame(*data->payload));

  gcs::HeartbeatMsg hb;
  hb.group = gcs::GroupId{18};
  hb.p2p_sent = 7;
  hb.p2p_acked = 3;
  hb.shared = shared_part(100, {{net::NodeId{1}, 99}, {net::NodeId{6}, 4}});
  const std::vector<std::uint8_t> hb_bytes = net::encode_frame(hb);
  net::Reader hr(hb_bytes);
  const auto back = net::message_cast<gcs::HeartbeatMsg>(net::decode_frame(hr));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->group, hb.group);
  EXPECT_EQ(back->p2p_sent, hb.p2p_sent);
  EXPECT_EQ(back->p2p_acked, hb.p2p_acked);
  ASSERT_TRUE(back->shared);
  EXPECT_EQ(back->shared->my_mcast_seq, hb.shared->my_mcast_seq);
  EXPECT_EQ(back->shared->mcast_acks, hb.shared->mcast_acks);

  // A heartbeat with nothing to list is the group id, the two p2p marks,
  // the mcast seq and an empty ack vector's count: five one-byte varints.
  gcs::HeartbeatMsg empty;
  empty.group = gcs::GroupId{18};
  empty.shared = shared_part(0, {});
  EXPECT_EQ(empty.wire_size(), net::frame_size(gcs::kWireHeartbeat, 1 + 1 + 1 + 1 + 1));
  EXPECT_EQ(empty.wire_size(), 12u);
}

gcs::HeartbeatSection section(std::uint32_t group, std::uint64_t seq, std::uint32_t acks) {
  net::NodeU64Pairs mcast_acks;
  for (std::uint32_t i = 1; i <= acks; ++i) mcast_acks.emplace_back(net::NodeId{i}, seq + i);
  return {gcs::GroupId{group}, seq + 1, seq + 2, shared_part(seq, std::move(mcast_acks))};
}

/// A frame of type `id` around `payload`, built by hand, so that it can
/// carry a payload the type's own encoder would never write.
std::vector<std::uint8_t> frame_of(net::WireTypeId id, const std::vector<std::uint8_t>& payload) {
  net::Writer w;
  w.fixed32(net::kWireMagic);
  w.u8(net::kWireVersion);
  w.u32(id);
  w.u64(payload.size());
  w.raw(payload.data(), payload.size());
  return w.bytes();
}

/// The payload of an encoded frame, found through its header.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  net::Reader r(frame);
  EXPECT_EQ(r.fixed32(), net::kWireMagic);
  EXPECT_EQ(r.u8(), net::kWireVersion);
  (void)r.u32();  // type id
  const std::uint64_t len = r.u64();
  EXPECT_EQ(len, r.remaining());
  return {frame.end() - static_cast<std::ptrdiff_t>(r.remaining()), frame.end()};
}

/// Encoded length of one section: the payload of a frame carrying only it.
/// Measured by encoding, so it checks the sizer rather than using it.
std::size_t section_bytes(const gcs::HeartbeatSection& s) {
  gcs::HeartbeatMsg alone;
  static_cast<gcs::HeartbeatSection&>(alone) = s;
  return payload_of(net::encode_frame(alone)).size();
}

TEST_F(CodecTest, HeartbeatBundleRoundTripsEverySection) {
  gcs::HeartbeatMsg bundle;
  static_cast<gcs::HeartbeatSection&>(bundle) = section(3, 10, 1);
  const std::vector<gcs::HeartbeatSection> riders = {section(5, 20, 2), section(9, 0, 0)};
  // The riders add their sections' bytes to the payload and nothing else.
  std::size_t payload = section_bytes(bundle);
  for (std::size_t n = 0; n <= riders.size(); ++n) {
    bundle.riders.assign(riders.begin(), riders.begin() + static_cast<std::ptrdiff_t>(n));
    if (n > 0) payload += section_bytes(riders[n - 1]);
    const std::size_t expected = net::frame_size(gcs::kWireHeartbeat, payload);
    // wire_size() is memoized per message; a copy is sized afresh.
    const gcs::HeartbeatMsg sized = bundle;
    EXPECT_EQ(sized.wire_size(), net::encode_frame(bundle).size()) << n << " riders";
    EXPECT_EQ(sized.wire_size(), expected) << n << " riders";
  }

  const std::vector<std::uint8_t> bytes = net::encode_frame(bundle);
  net::Reader r(bytes);
  const auto back = net::message_cast<gcs::HeartbeatMsg>(net::decode_frame(r));
  ASSERT_TRUE(back);
  EXPECT_EQ(static_cast<const gcs::HeartbeatSection&>(*back),
            static_cast<const gcs::HeartbeatSection&>(bundle));
  ASSERT_EQ(back->riders.size(), 2u);
  for (std::size_t i = 0; i < riders.size(); ++i) {
    EXPECT_EQ(back->riders[i], riders[i]) << "rider " << i;
  }
  EXPECT_EQ(net::encode_frame(*back), bytes);
}

TEST_F(CodecTest, TruncatedHeartbeatRiderThrows) {
  gcs::HeartbeatMsg bundle;
  static_cast<gcs::HeartbeatSection&>(bundle) = section(3, 10, 1);
  bundle.riders = {section(5, 20, 2)};
  const std::vector<std::uint8_t> whole = payload_of(net::encode_frame(bundle));
  // Cut the rider short by `cut` bytes and frame what is left, so the frame
  // itself is well formed and only the rider is truncated.
  for (std::size_t cut = 1; cut < section_bytes(bundle.riders[0]); ++cut) {
    const std::vector<std::uint8_t> bytes = frame_of(
        gcs::kWireHeartbeat, {whole.begin(), whole.end() - static_cast<std::ptrdiff_t>(cut)});
    net::Reader r(bytes);
    EXPECT_THROW(net::decode_frame(r), net::CodecError) << "cut " << cut;
  }
}

TEST_F(CodecTest, JoinRoleAndViewListenersSurviveTheRoundTrip) {
  for (const gcs::Role role : {gcs::Role::kMember, gcs::Role::kListener}) {
    gcs::JoinMsg join;
    join.group = gcs::GroupId{19};
    join.role = role;
    const std::vector<std::uint8_t> bytes = net::encode_frame(join);
    net::Reader r(bytes);
    const auto back = net::message_cast<gcs::JoinMsg>(net::decode_frame(r));
    ASSERT_TRUE(back);
    EXPECT_EQ(back->group, join.group);
    EXPECT_EQ(back->role, role);
  }
  // A role byte past the last role is malformed input, not a new role.
  gcs::JoinMsg join;
  join.group = gcs::GroupId{19};
  std::vector<std::uint8_t> bytes = net::encode_frame(join);
  bytes.back() = 2;
  net::Reader bad(bytes);
  EXPECT_THROW(net::decode_frame(bad), net::CodecError);

  gcs::InstallMsg install;
  install.group = gcs::GroupId{17};
  install.view.group = gcs::GroupId{17};
  install.view.id = 4;
  install.view.members = {net::NodeId{5}, net::NodeId{2}, net::NodeId{9}};
  install.view.listeners = {net::NodeId{2}, net::NodeId{9}};
  const std::vector<std::uint8_t> install_bytes = net::encode_frame(install);
  net::Reader ir(install_bytes);
  const auto got = net::message_cast<gcs::InstallMsg>(net::decode_frame(ir));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->view.members, install.view.members);
  EXPECT_EQ(got->view.listeners, install.view.listeners);
  EXPECT_TRUE(got->view.is_listener(net::NodeId{9}));
  EXPECT_FALSE(got->view.is_listener(net::NodeId{5}));
  EXPECT_EQ(got->view.full_members(), std::vector<net::NodeId>{net::NodeId{5}});
}

TEST_F(CodecTest, WireSizeIsTheEncodedFrameSize) {
  for (const auto& m : exemplars()) {
    SCOPED_TRACE(m->type_name());
    EXPECT_EQ(m->wire_size(), net::encode_frame(*m).size());
  }
}

TEST_F(CodecTest, MemoizedWireSizeMatchesEveryRegisteredType) {
  // wire_size() encodes once and then answers from its memo: both calls
  // must be the real frame length, for every registered type.
  for (const auto& m : exemplars()) {
    SCOPED_TRACE(m->type_name());
    const std::size_t frame = net::encode_frame(*m).size();
    EXPECT_EQ(m->wire_size(), frame);
    EXPECT_EQ(m->wire_size(), frame);
  }
}

TEST_F(CodecTest, WireSizeFallbacksSurviveTheMemo) {
  struct PlainMsg final : net::Message {
    std::string type_name() const override { return "test.plain"; }
  };
  // A type outside the codec.
  const auto plain = std::make_shared<PlainMsg>();
  EXPECT_EQ(plain->wire_size(), 64u);
  EXPECT_EQ(plain->wire_size(), 64u);
  // A gcs envelope whose payload cannot be encoded.
  auto data = std::make_shared<gcs::DataMsg>();
  data->group = gcs::GroupId{3};
  data->sender = net::NodeId{1};
  data->seq = 1;
  data->payload = plain;
  EXPECT_THROW(net::encode_frame(*data), net::CodecError);
  EXPECT_EQ(data->wire_size(), 64u);
  EXPECT_EQ(data->wire_size(), 64u);
  // Two levels down: a gcs envelope carrying a lazy update whose snapshot
  // cannot be encoded. Both frames fall back as a whole; the outer one
  // does not add its own fields to the inner fallback.
  auto lazy = std::make_shared<replication::LazyUpdate>();
  lazy->csn = 4;
  lazy->snapshot = plain;
  auto outer = std::make_shared<gcs::DataMsg>();
  outer->group = gcs::GroupId{3};
  outer->sender = net::NodeId{1};
  outer->seq = 2;
  outer->payload = lazy;
  EXPECT_THROW(net::encode_frame(*outer), net::CodecError);
  EXPECT_EQ(outer->wire_size(), 64u);
  EXPECT_EQ(lazy->wire_size(), 64u);
  EXPECT_EQ(outer->wire_size(), 64u);
}

TEST_F(CodecTest, CopiedMessageDoesNotInheritTheWireSizeMemo) {
  gcs::HeartbeatMsg original;
  original.group = gcs::GroupId{2};
  original.shared = shared_part(0, {});
  const std::size_t before = original.wire_size();
  gcs::HeartbeatMsg copy = original;  // may be mutated before it is sent
  copy.shared = shared_part(0, {{net::NodeId{1}, 5}, {net::NodeId{2}, 6}});
  EXPECT_EQ(copy.wire_size(), net::encode_frame(copy).size());
  // Two entries of a one-byte node and a one-byte value each.
  EXPECT_EQ(copy.wire_size(), before + 2 * (1 + 1));
  EXPECT_EQ(original.wire_size(), before);
}

/// `entries` written as a count and (node, value) pairs, in the given order.
std::vector<std::uint8_t> node_pairs(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& entries) {
  net::Writer w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [node, value] : entries) {
    w.node(net::NodeId{node});
    w.u64(value);
  }
  return w.bytes();
}

TEST_F(CodecTest, FlatNodeValuePairsDecodeLikeTheMap) {
  // Both forms decode canonical input only: nodes strictly ascending.
  // Out-of-order and repeated nodes have no canonical encoding, so either
  // decoder throws on them rather than normalize (normalizing would make
  // encode(decode(b)) differ from b).
  for (const auto& bad : {node_pairs({{5, 50}, {2, 20}}), node_pairs({{2, 20}, {2, 21}})}) {
    net::Reader as_map(bad);
    net::Reader as_pairs(bad);
    std::map<net::NodeId, std::uint64_t> map;
    net::NodeU64Pairs pairs;
    EXPECT_THROW(net::FieldDecoder{as_map}(map), net::CodecError);
    EXPECT_THROW(net::FieldDecoder{as_pairs}(pairs), net::CodecError);
  }
  const std::vector<std::uint8_t> good = node_pairs({{2, 20}, {3, 30}, {5, 51}});
  net::Reader as_map(good);
  net::Reader as_pairs(good);
  std::map<net::NodeId, std::uint64_t> map;
  net::NodeU64Pairs pairs;
  net::FieldDecoder{as_map}(map);
  net::FieldDecoder{as_pairs}(pairs);
  EXPECT_TRUE(as_map.done());
  EXPECT_TRUE(as_pairs.done());
  EXPECT_EQ(pairs, net::NodeU64Pairs(map.begin(), map.end()));
  EXPECT_EQ(pairs, (net::NodeU64Pairs{{net::NodeId{2}, 20},
                                      {net::NodeId{3}, 30},
                                      {net::NodeId{5}, 51}}));
  ASSERT_NE(net::find_node(pairs, net::NodeId{3}), nullptr);
  EXPECT_EQ(*net::find_node(pairs, net::NodeId{3}), 30u);
  EXPECT_EQ(net::find_node(pairs, net::NodeId{4}), nullptr);
}

TEST_F(CodecTest, EveryTruncationThrows) {
  for (const auto& m : exemplars()) {
    SCOPED_TRACE(m->type_name());
    const std::vector<std::uint8_t> bytes = net::encode_frame(*m);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      net::Reader r(bytes.data(), len);
      EXPECT_THROW(net::decode_frame(r), net::CodecError)
          << "prefix of " << len << "/" << bytes.size()
          << " bytes decoded without error";
    }
  }
}

TEST_F(CodecTest, BadMagicThrows) {
  auto bytes = net::encode_frame(*make_kv_put());
  bytes[0] ^= 0xff;
  net::Reader r(bytes);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

TEST_F(CodecTest, UnknownVersionThrows) {
  auto bytes = net::encode_frame(*make_kv_put());
  bytes[4] = net::kWireVersion + 1;
  net::Reader r(bytes);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

TEST_F(CodecTest, UnknownTypeIdThrows) {
  // 0xffffffff is never registered.
  const auto bytes = frame_of(0xffffffffu, payload_of(net::encode_frame(*make_kv_put())));
  net::Reader r(bytes);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

TEST_F(CodecTest, RetiredFifoTypeIdsThrow) {
  // 0x31-0x35 were the former FIFO handler's own messages; the ids are
  // retired for good, so frames carrying them must not decode.
  const auto payload = payload_of(net::encode_frame(*make_kv_put()));
  for (net::WireTypeId id = 0x31; id <= 0x35; ++id) {
    const auto bytes = frame_of(id, payload);
    net::Reader r(bytes);
    EXPECT_THROW(net::decode_frame(r), net::CodecError) << "type id " << id;
  }
}

TEST_F(CodecTest, TrailingPayloadBytesThrow) {
  // Frame the payload with one stray byte appended: the decoder no longer
  // consumes exactly the payload, which must be an error (anything else
  // would let frames smuggle undetected junk).
  const auto put = make_kv_put();
  auto payload = payload_of(net::encode_frame(*put));
  payload.push_back(0);
  const auto bytes = frame_of(put->wire_type(), payload);
  net::Reader r(bytes);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

/// Reads `bytes` with `read` and checks that it consumed them all.
template <typename Read>
auto read_all(const std::vector<std::uint8_t>& bytes, Read read) {
  net::Reader r(bytes);
  auto v = read(r);
  EXPECT_TRUE(r.done());
  return v;
}

TEST_F(CodecTest, VarintsRoundTripAtEveryLength) {
  for (int bits = 0; bits <= 64; ++bits) {
    for (const std::uint64_t v :
         {bits == 64 ? ~0ull : (1ull << bits) - 1, bits == 64 ? ~0ull : 1ull << bits}) {
      SCOPED_TRACE(v);
      net::Writer w;
      w.u64(v);
      EXPECT_EQ(w.size(), net::varint_size(v));
      EXPECT_EQ(read_all(w.bytes(), [](net::Reader& r) { return r.u64(); }), v);
    }
  }
  EXPECT_EQ(net::varint_size(127), 1u);
  EXPECT_EQ(net::varint_size(128), 2u);
  EXPECT_EQ(net::varint_size(UINT32_MAX), 5u);
  EXPECT_EQ(net::varint_size(UINT64_MAX), 10u);
  // The longest canonical varint: nine full groups and a 10th byte of 1.
  std::vector<std::uint8_t> max(9, 0xff);
  max.push_back(0x01);
  EXPECT_EQ(read_all(max, [](net::Reader& r) { return r.u64(); }), UINT64_MAX);
}

TEST_F(CodecTest, NonCanonicalVarintsThrow) {
  const auto rejects = [](std::vector<std::uint8_t> bytes, const char* what) {
    net::Reader r(bytes);
    EXPECT_THROW(r.u64(), net::CodecError) << what;
  };
  // Overlong: a trailing zero group, at any length.
  rejects({0x80, 0x00}, "zero in two bytes");
  rejects({0x81, 0x80, 0x00}, "one in three bytes");
  rejects({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00}, "ten bytes, last zero");
  // More than ten bytes.
  std::vector<std::uint8_t> eleven(10, 0x80);
  eleven.push_back(0x01);
  rejects(eleven, "eleven bytes");
  // A 10th byte above 0x01 sets bits past bit 63.
  std::vector<std::uint8_t> wide(9, 0xff);
  wide.push_back(0x02);
  rejects(wide, "10th byte 0x02");
  // Truncated: the input ends on a continuation byte.
  rejects({}, "empty");
  rejects({0x80}, "one continuation byte");
  rejects({0xff, 0xff, 0xff}, "three continuation bytes");
}

TEST_F(CodecTest, ThirtyTwoBitFieldsRejectWiderVarints) {
  net::Writer w;
  w.u64(std::uint64_t{UINT32_MAX} + 1);
  const std::vector<std::uint8_t> wide = w.bytes();
  EXPECT_THROW(read_all(wide, [](net::Reader& r) { return r.u32(); }), net::CodecError);
  EXPECT_THROW(read_all(wide, [](net::Reader& r) { return r.node(); }), net::CodecError);
  enum class Wide : std::uint32_t {};
  EXPECT_THROW(read_all(wide, [](net::Reader& r) {
                 Wide v{};
                 net::FieldDecoder{r}(v);
                 return v;
               }),
               net::CodecError);
  // One below still fits.
  net::Writer edge;
  edge.u32(UINT32_MAX);
  EXPECT_EQ(edge.size(), 5u);
  EXPECT_EQ(read_all(edge.bytes(), [](net::Reader& r) { return r.u32(); }), UINT32_MAX);
}

TEST_F(CodecTest, DurationsAreZigzagVarints) {
  EXPECT_EQ(net::zigzag(0), 0u);
  EXPECT_EQ(net::zigzag(-1), 1u);
  EXPECT_EQ(net::zigzag(1), 2u);
  EXPECT_EQ(net::zigzag(INT64_MIN), UINT64_MAX);
  EXPECT_EQ(net::zigzag(INT64_MAX), UINT64_MAX - 1);
  const std::pair<std::int64_t, std::size_t> cases[] = {
      {0, 1}, {-1, 1}, {1, 1}, {-64, 1}, {64, 2}, {INT64_MIN, 10}, {INT64_MAX, 10}};
  for (const auto& [ticks, size] : cases) {
    SCOPED_TRACE(ticks);
    const sim::Duration d(ticks);
    EXPECT_EQ(net::unzigzag(net::zigzag(ticks)), ticks);
    net::Writer w;
    w.duration(d);
    EXPECT_EQ(w.size(), size);
    net::ByteCount count;
    count.duration(d);
    EXPECT_EQ(count.size(), size);
    EXPECT_EQ(read_all(w.bytes(), [](net::Reader& r) { return r.duration(); }), d);
  }
}

TEST_F(CodecTest, MessageWithoutCodecSupportIsRejected) {
  struct PlainMsg final : net::Message {
    std::string type_name() const override { return "test.plain"; }
  };
  const PlainMsg plain;
  EXPECT_EQ(plain.wire_type(), 0u);
  EXPECT_THROW(net::encode_frame(plain), net::CodecError);
  // wire_size() falls back to the pre-codec simulator estimate.
  EXPECT_EQ(plain.wire_size(), 64u);
}

TEST_F(CodecTest, NestedPayloadAbsentRoundTrips) {
  const net::MessagePtr absent;
  net::Writer w;
  net::FieldEncoder<net::Writer>{w}(absent);
  EXPECT_EQ(w.size(), 1u);
  net::Reader r(w.bytes());
  net::MessagePtr decoded = make_kv_put();
  net::FieldDecoder{r}(decoded);
  EXPECT_EQ(decoded, nullptr);
  EXPECT_TRUE(r.done());
}

// A gcs.data frame from the network without a payload is malformed: the
// member that took it would read the missing payload's type.
TEST_F(CodecTest, DataWithoutPayloadIsRejected) {
  gcs::DataMsg data;
  data.group = gcs::GroupId{3};
  data.sender = net::NodeId{7};
  data.seq = 1;
  const std::vector<std::uint8_t> bytes = net::encode_frame(data);
  net::Reader r(bytes);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

TEST_F(CodecTest, FlushHeldEntryMustBeDataMsg) {
  // Hand-craft a gcs.flush whose held list contains a kv.put frame: the
  // decoder must reject it (held/resolution carry gcs.data only).
  net::Writer payload;
  payload.u32(17);                    // group
  payload.u64(9);                     // proposal
  payload.u32(0);                     // delivered: empty
  payload.u32(1);                     // held: one entry
  net::encode_frame(*make_kv_put(), payload);

  const auto frame = frame_of(gcs::kWireFlush, payload.bytes());
  net::Reader r(frame);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

TEST_F(CodecTest, RandomBytesNeverCrashTheDecoder) {
  // Property check: arbitrary input either decodes or throws CodecError —
  // no other exception, no hang, no crash. Seeded, so deterministic.
  sim::Rng rng(2026);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(128));
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    net::Reader r(bytes);
    try {
      (void)net::decode_frame(r);
    } catch (const net::CodecError&) {
      // expected for almost every trial
    }
  }
}

TEST_F(CodecTest, SingleByteCorruptionNeverCrashesTheDecoder) {
  // Flip each byte of each valid frame in turn: the decoder must either
  // throw CodecError or produce some message — never crash or misbehave.
  // A corrupted frame that decodes is canonical input too, so it must
  // re-encode to exactly its own bytes.
  for (const auto& m : exemplars()) {
    SCOPED_TRACE(m->type_name());
    const std::vector<std::uint8_t> original = net::encode_frame(*m);
    for (std::size_t i = 0; i < original.size(); ++i) {
      std::vector<std::uint8_t> bytes = original;
      bytes[i] ^= 0x2a;
      net::Reader r(bytes);
      net::MessagePtr decoded;
      try {
        decoded = net::decode_frame(r);
      } catch (const net::CodecError&) {
        continue;  // fine: corruption detected
      }
      ASSERT_TRUE(decoded);
      const std::size_t used = bytes.size() - r.remaining();
      const std::vector<std::uint8_t> consumed(
          bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(used));
      EXPECT_EQ(net::encode_frame(*decoded), consumed) << "byte " << i << " flipped";
    }
  }
}

}  // namespace
}  // namespace aqueduct
