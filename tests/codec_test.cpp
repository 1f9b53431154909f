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
    ASSERT_GE(bytes.size(), net::kFrameHeaderSize);

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
// changed in: gcs.install and repl.reply at version 6, and gcs.data,
// gcs.propose and repl.lazy at version 5 (and gcs.flush, which nests a
// gcs.data), both of which dropped fields no receiver read; gcs.heartbeat
// at version 4, which gave a section per-destination p2p marks, and every
// other type at version 3. Version 7 changed no layout: it made a gcs.data
// with seq 0 a best-effort message. A frame of an
// earlier version must encode today exactly as it did then, save the
// version byte of each frame header in it (offset 4 of the frame, and of a
// nested frame).
struct GoldenFrame {
  const char* type_name;
  std::size_t wire_size;
  std::uint8_t version;
  const char* hex;
};

const GoldenFrame kGoldenFrames[] = {
    {"gcs.data", 69, 5,
      "4657514105110000003800000011000000000300000029000000000000000146"
      "575141054100000019000000020000006b330f000000762d0102207769746820"
      "6279746573"},
    {"gcs.heartbeat", 101, 4,
      "4657514104120000005800000012000000070000000000000003000000000000"
      "0064000000000000000100000001000000630000000000000014000000000000"
      "0000000000000000000000000000000000000000000100000002000000080000"
      "0000000000"},
    {"gcs.nack", 34, 3,
      "4657514103130000001500000012000000000a000000000000000f0000000000"
      "0000"},
    {"gcs.join", 18, 3,
      "465751410314000000050000001300000001"},
    {"gcs.leave", 17, 3,
      "4657514103150000000400000013000000"},
    {"gcs.suspect", 21, 3,
      "46575141031600000008000000110000000b000000"},
    {"gcs.propose", 25, 5,
      "4657514105170000000c000000110000000900000000000000"},
    {"gcs.flush", 126, 5,
      "4657514105180000007100000011000000090000000000000002000000010000"
      "000c000000000000000200000000000000000000000100000046575141051100"
      "0000380000001100000000030000002900000000000000014657514105410000"
      "0019000000020000006b330f000000762d01022077697468206279746573"},
    {"gcs.install", 138, 6,
      "4657514106190000007d00000011000000110000000a00000000000000020000"
      "000100000003000000010000000300000001000000010000000c000000000000"
      "0001000000465751410611000000380000001100000000030000002900000000"
      "0000000146575141064100000019000000020000006b330f000000762d010220"
      "77697468206279746573"},
    {"repl.update", 64, 3,
      "4657514103210000003300000015000000050000000000000001465751410341"
      "00000019000000020000006b330f000000762d01022077697468206279746573"},
    {"repl.read", 53, 3,
      "4657514103220000002800000015000000060000000000000001465751410342"
      "00000006000000020000006b330400000000000000"},
    {"repl.gsn", 34, 3,
      "465751410323000000150000001500000005000000000000004d000000000000"
      "0001"},
    {"repl.reply", 90, 6,
      "4657514106240000004d00000015000000060000000000000001465751410643"
      "0000000e00000001010000007608000000000000000c000000002d3101000000"
      "00404b4c00000000000000000000000000010200000000000000"},
    {"repl.lazy", 67, 5,
      "4657514105250000003600000008000000000000000146575141054400000020"
      "0000000200000001000000610100000031010000006201000000320800000000"
      "000000"},
    {"repl.state_req", 13, 3,
      "46575141032600000000000000"},
    {"repl.state_snap", 83, 3,
      "4657514103270000004600000008000000000000000900000000000000014657"
      "514103440000000c000000000000000800000000000000020000001500000005"
      "00000000000000160000000100000000000000"},
    {"repl.perf", 76, 3,
      "4657514103280000003f0000000c00000001002d310100000000404b4c000000"
      "000040420f00000000000101030000000065cd1d000000000200000000e9a435"
      "000000000065cd1d00000000"},
    {"repl.groupinfo", 53, 3,
      "4657514103290000002800000004000000000000000100000002000000020000"
      "0003000000020000000b0000000c00000003000000"},
    {"kv.put", 38, 3,
      "46575141034100000019000000020000006b330f000000762d01022077697468"
      "206279746573"},
    {"kv.get", 19, 3,
      "46575141034200000006000000020000006b33"},
    {"kv.result", 22, 3,
      "46575141034300000009000000000900000000000000"},
    {"kv.snapshot", 43, 3,
      "4657514103440000001e00000002000000000000000100000079010000007800"
      "0000000200000000000000"},
    {"doc.append", 25, 3,
      "4657514103450000000c000000080000006c696e65206f6e65"},
    {"doc.read", 13, 3,
      "46575141034600000000000000"},
    {"doc.contents", 40, 3,
      "4657514103470000001b00000003000000010000006101000000620100000063"
      "0300000000000000"},
    {"ticker.set", 29, 3,
      "465751410348000000100000000400000041434d450000000000505940"},
    {"ticker.get", 21, 3,
      "465751410349000000080000000400000041434d45"},
    {"ticker.quote", 38, 3,
      "46575141034a000000190000000400000041434d450100000000005059400100"
      "000000000000"},
    {"ticker.snapshot", 56, 3,
      "46575141034b0000002b000000020000000400000041434d4500000000005059"
      "40030000005a5a5a000000000000e03f0200000000000000"},
    {"reg.bump", 13, 3,
      "46575141034c00000000000000"},
    {"reg.read", 13, 3,
      "46575141034d00000000000000"},
    {"reg.value", 21, 3,
      "46575141034e000000080000000500000000000000"},
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
  ASSERT_EQ(net::kWireVersion, 7);
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
  // the mcast seq and an empty ack vector's count.
  gcs::HeartbeatMsg empty;
  empty.group = gcs::GroupId{18};
  empty.shared = shared_part(0, {});
  EXPECT_EQ(empty.wire_size(), net::kFrameHeaderSize + 4 + 8 + 8 + 8 + 4);
}

gcs::HeartbeatSection section(std::uint32_t group, std::uint64_t seq, std::uint32_t acks) {
  net::NodeU64Pairs mcast_acks;
  for (std::uint32_t i = 1; i <= acks; ++i) mcast_acks.emplace_back(net::NodeId{i}, seq + i);
  return {gcs::GroupId{group}, seq + 1, seq + 2, shared_part(seq, std::move(mcast_acks))};
}

/// Encoded length of one section: a frame carrying only it, without the
/// header. Measured by encoding, so it checks the sizer rather than using it.
std::size_t section_bytes(const gcs::HeartbeatSection& s) {
  gcs::HeartbeatMsg alone;
  static_cast<gcs::HeartbeatSection&>(alone) = s;
  return net::encode_frame(alone).size() - net::kFrameHeaderSize;
}

TEST_F(CodecTest, HeartbeatBundleRoundTripsEverySection) {
  gcs::HeartbeatMsg bundle;
  static_cast<gcs::HeartbeatSection&>(bundle) = section(3, 10, 1);
  const std::vector<gcs::HeartbeatSection> riders = {section(5, 20, 2), section(9, 0, 0)};
  // The riders add their sections' bytes and nothing else.
  std::size_t expected = net::kFrameHeaderSize + section_bytes(bundle);
  for (std::size_t n = 0; n <= riders.size(); ++n) {
    bundle.riders.assign(riders.begin(), riders.begin() + static_cast<std::ptrdiff_t>(n));
    if (n > 0) expected += section_bytes(riders[n - 1]);
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
  const std::vector<std::uint8_t> whole = net::encode_frame(bundle);
  // Cut the rider short by `cut` bytes and fix the frame length, so the
  // frame itself is well formed and only the rider is truncated.
  for (std::size_t cut = 1; cut < section_bytes(bundle.riders[0]); ++cut) {
    std::vector<std::uint8_t> bytes(whole.begin(), whole.end() - static_cast<std::ptrdiff_t>(cut));
    net::Writer len;
    len.u32(static_cast<std::uint32_t>(bytes.size() - net::kFrameHeaderSize));
    std::copy(len.bytes().begin(), len.bytes().end(), bytes.begin() + 9);
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
  EXPECT_EQ(copy.wire_size(), before + 2 * (4 + 8));
  EXPECT_EQ(original.wire_size(), before);
}

TEST_F(CodecTest, FlatNodeValuePairsDecodeLikeTheMap) {
  // Out-of-order and duplicate entries are normalized exactly as the map
  // decoder does: sorted by node, the last value winning.
  net::Writer w;
  w.u32(4);
  for (const auto& [node, value] :
       {std::pair{5u, 50ull}, std::pair{2u, 20ull}, std::pair{5u, 51ull},
        std::pair{3u, 30ull}}) {
    w.node(net::NodeId{node});
    w.u64(value);
  }
  net::Reader as_map(w.bytes());
  net::Reader as_pairs(w.bytes());
  std::map<net::NodeId, std::uint64_t> map;
  net::NodeU64Pairs pairs;
  net::FieldDecoder{as_map}(map);
  net::FieldDecoder{as_pairs}(pairs);
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
  auto bytes = net::encode_frame(*make_kv_put());
  // Type id is bytes 5..8 (little-endian); 0xffffffff is never registered.
  bytes[5] = bytes[6] = bytes[7] = bytes[8] = 0xff;
  net::Reader r(bytes);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

TEST_F(CodecTest, RetiredFifoTypeIdsThrow) {
  // 0x31-0x35 were the former FIFO handler's own messages; the ids are
  // retired for good, so frames carrying them must not decode.
  for (std::uint8_t id = 0x31; id <= 0x35; ++id) {
    auto bytes = net::encode_frame(*make_kv_put());
    bytes[5] = id;  // type id is bytes 5..8, little-endian
    bytes[6] = bytes[7] = bytes[8] = 0;
    net::Reader r(bytes);
    EXPECT_THROW(net::decode_frame(r), net::CodecError) << "type id " << int{id};
  }
}

TEST_F(CodecTest, TrailingPayloadBytesThrow) {
  // Grow the declared payload length by one and append a stray byte: the
  // decoder no longer consumes exactly the payload, which must be an error
  // (anything else would let frames smuggle undetected junk).
  auto bytes = net::encode_frame(*make_kv_put());
  const std::uint32_t len = static_cast<std::uint32_t>(bytes[9]) |
                            (static_cast<std::uint32_t>(bytes[10]) << 8) |
                            (static_cast<std::uint32_t>(bytes[11]) << 16) |
                            (static_cast<std::uint32_t>(bytes[12]) << 24);
  const std::uint32_t grown = len + 1;
  bytes[9] = static_cast<std::uint8_t>(grown);
  bytes[10] = static_cast<std::uint8_t>(grown >> 8);
  bytes[11] = static_cast<std::uint8_t>(grown >> 16);
  bytes[12] = static_cast<std::uint8_t>(grown >> 24);
  bytes.push_back(0);
  net::Reader r(bytes);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
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

  net::Writer frame;
  frame.u32(net::kWireMagic);
  frame.u8(net::kWireVersion);
  frame.u32(gcs::kWireFlush);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.raw(payload.bytes().data(), payload.size());

  net::Reader r(frame.bytes());
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
  for (const auto& m : exemplars()) {
    SCOPED_TRACE(m->type_name());
    const std::vector<std::uint8_t> original = net::encode_frame(*m);
    for (std::size_t i = 0; i < original.size(); ++i) {
      std::vector<std::uint8_t> bytes = original;
      bytes[i] ^= 0x2a;
      net::Reader r(bytes);
      try {
        const net::MessagePtr decoded = net::decode_frame(r);
        ASSERT_TRUE(decoded);
      } catch (const net::CodecError&) {
        // fine: corruption detected
      }
    }
  }
}

}  // namespace
}  // namespace aqueduct
