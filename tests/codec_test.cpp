// Wire-codec round-trip suite: every registered message type must encode
// to a frame that decodes back to an equal message, byte for byte
// (encode(decode(bytes)) == bytes), and every malformed input must throw
// CodecError instead of crashing or silently misparsing.
#include <gtest/gtest.h>

#include <cstring>
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
  data->dest = net::NodeId{9};
  data->seq = 41;
  data->view_sent = 6;
  data->payload = make_kv_put();
  return data;
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
    m->view = 4;
    m->my_mcast_seq = 100;
    m->my_p2p_seq = {{net::NodeId{2}, 7}, {net::NodeId{5}, 0}};
    m->mcast_acks = {{net::NodeId{1}, 99}};
    m->p2p_acks = {{net::NodeId{4}, 3}};
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
    m->members = {net::NodeId{1}, net::NodeId{2}, net::NodeId{3}};
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
    m->proposal = 10;
    m->view.group = gcs::GroupId{17};
    m->view.id = 10;
    m->view.members = {net::NodeId{1}, net::NodeId{3}};
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
    m->is_update = false;
    auto result = std::make_shared<replication::KvResult>();
    result->value = "v";
    result->version = 8;
    m->result = result;
    m->replica = net::NodeId{12};
    m->t1 = std::chrono::milliseconds(25);
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
    m->lazy_seq = 3;
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
}

TEST_F(CodecTest, CopiedMessageDoesNotInheritTheWireSizeMemo) {
  gcs::HeartbeatMsg original;
  original.group = gcs::GroupId{2};
  const std::size_t before = original.wire_size();
  gcs::HeartbeatMsg copy = original;  // may be mutated before it is sent
  copy.mcast_acks = {{net::NodeId{1}, 5}, {net::NodeId{2}, 6}};
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
  const auto map = net::decode_node_u64_map(as_map);
  const net::NodeU64Pairs pairs = net::decode_node_u64_pairs(as_pairs);
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
  net::Writer w;
  net::encode_nested(w, nullptr);
  net::Reader r(w.bytes());
  EXPECT_EQ(net::decode_nested(r), nullptr);
  EXPECT_TRUE(r.done());
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
