// Wire encode/decode of the replication layer: the replication protocol
// (messages.hpp, 0x2*) and the example replicated objects (objects.hpp,
// 0x4*). Field order mirrors declaration
// order; encode(decode(bytes)) == bytes for every type here.
#include <memory>

#include "gcs/messages.hpp"
#include "net/codec.hpp"
#include "replication/messages.hpp"
#include "replication/objects.hpp"

namespace aqueduct::replication {

namespace {

using net::Reader;
using net::Writer;

void encode_request_id(Writer& w, const RequestId& id) {
  w.node(id.client);
  w.u64(id.seq);
}

RequestId decode_request_id(Reader& r) {
  RequestId id;
  id.client = r.node();
  id.seq = r.u64();
  return id;
}

void encode_request_id_vector(Writer& w, const std::vector<RequestId>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const RequestId& id : v) encode_request_id(w, id);
}

std::vector<RequestId> decode_request_id_vector(Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<RequestId> v;
  v.reserve(std::min<std::size_t>(n, r.remaining() / 12 + 1));
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(decode_request_id(r));
  return v;
}

void encode_str_str_map(Writer& w,
                        const std::map<std::string, std::string>& m) {
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [k, v] : m) {
    w.str(k);
    w.str(v);
  }
}

std::map<std::string, std::string> decode_str_str_map(Reader& r) {
  const std::uint32_t n = r.u32();
  std::map<std::string, std::string> m;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k = r.str();
    m[std::move(k)] = r.str();
  }
  return m;
}

// ---- replication protocol (0x2*) ----

net::MessagePtr decode_update(Reader& r) {
  auto m = std::make_shared<UpdateRequest>();
  m->id = decode_request_id(r);
  m->op = net::decode_nested(r);
  return m;
}

net::MessagePtr decode_read(Reader& r) {
  auto m = std::make_shared<ReadRequest>();
  m->id = decode_request_id(r);
  m->op = net::decode_nested(r);
  m->bound = r.u64();
  return m;
}

net::MessagePtr decode_gsn(Reader& r) {
  auto m = std::make_shared<GsnAssign>();
  m->id = decode_request_id(r);
  m->gsn = r.u64();
  m->is_update = r.boolean();
  return m;
}

net::MessagePtr decode_reply(Reader& r) {
  auto m = std::make_shared<Reply>();
  m->id = decode_request_id(r);
  m->is_update = r.boolean();
  m->result = net::decode_nested(r);
  m->replica = r.node();
  m->t1 = r.duration();
  m->ts = r.duration();
  m->tq = r.duration();
  m->tb = r.duration();
  m->deferred = r.boolean();
  m->staleness = r.u64();
  return m;
}

net::MessagePtr decode_lazy(Reader& r) {
  auto m = std::make_shared<LazyUpdate>();
  m->csn = r.u64();
  m->snapshot = net::decode_nested(r);
  m->lazy_seq = r.u64();
  return m;
}

net::MessagePtr decode_state_req(Reader&) {
  return std::make_shared<StateRequest>();
}

net::MessagePtr decode_state_snap(Reader& r) {
  auto m = std::make_shared<StateSnapshot>();
  m->csn = r.u64();
  m->gsn = r.u64();
  m->snapshot = net::decode_nested(r);
  m->committed = decode_request_id_vector(r);
  return m;
}

net::MessagePtr decode_perf(Reader& r) {
  auto m = std::make_shared<PerfPublication>();
  m->replica = r.node();
  m->has_sample = r.boolean();
  m->ts = r.duration();
  m->tq = r.duration();
  m->tb = r.duration();
  m->deferred = r.boolean();
  if (r.boolean()) {
    LazyInfo info;
    info.n_u = r.u32();
    info.t_u = r.duration();
    info.n_l = r.u32();
    info.t_l = r.duration();
    info.period = r.duration();
    m->lazy = info;
  }
  return m;
}

net::MessagePtr decode_groupinfo(Reader& r) {
  auto m = std::make_shared<GroupInfo>();
  m->epoch = r.u64();
  m->sequencer = r.node();
  m->primaries = net::decode_node_vector(r);
  m->secondaries = net::decode_node_vector(r);
  m->lazy_publisher = r.node();
  return m;
}

// ---- example objects (0x4*) ----

net::MessagePtr decode_kv_put(Reader& r) {
  auto m = std::make_shared<KvPut>();
  m->key = r.str();
  m->value = r.str();
  return m;
}

net::MessagePtr decode_kv_get(Reader& r) {
  auto m = std::make_shared<KvGet>();
  m->key = r.str();
  return m;
}

net::MessagePtr decode_kv_result(Reader& r) {
  auto m = std::make_shared<KvResult>();
  m->value = net::decode_optional_str(r);
  m->version = r.u64();
  return m;
}

net::MessagePtr decode_kv_snapshot(Reader& r) {
  auto m = std::make_shared<KvSnapshot>();
  m->entries = decode_str_str_map(r);
  m->version = r.u64();
  return m;
}

net::MessagePtr decode_doc_append(Reader& r) {
  auto m = std::make_shared<DocAppend>();
  m->line = r.str();
  return m;
}

net::MessagePtr decode_doc_read(Reader&) { return std::make_shared<DocRead>(); }

net::MessagePtr decode_doc_contents(Reader& r) {
  auto m = std::make_shared<DocContents>();
  const std::uint32_t n = r.u32();
  m->lines.reserve(std::min<std::size_t>(n, r.remaining() / 4 + 1));
  for (std::uint32_t i = 0; i < n; ++i) m->lines.push_back(r.str());
  m->version = r.u64();
  return m;
}

net::MessagePtr decode_ticker_set(Reader& r) {
  auto m = std::make_shared<TickerSet>();
  m->symbol = r.str();
  m->price = r.f64();
  return m;
}

net::MessagePtr decode_ticker_get(Reader& r) {
  auto m = std::make_shared<TickerGet>();
  m->symbol = r.str();
  return m;
}

net::MessagePtr decode_ticker_quote(Reader& r) {
  auto m = std::make_shared<TickerQuote>();
  m->symbol = r.str();
  if (r.boolean()) m->price = r.f64();
  m->version = r.u64();
  return m;
}

net::MessagePtr decode_ticker_snapshot(Reader& r) {
  auto m = std::make_shared<TickerSnapshot>();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string symbol = r.str();
    m->prices[std::move(symbol)] = r.f64();
  }
  m->version = r.u64();
  return m;
}

net::MessagePtr decode_reg_bump(Reader&) {
  return std::make_shared<RegisterBump>();
}

net::MessagePtr decode_reg_read(Reader&) {
  return std::make_shared<RegisterRead>();
}

net::MessagePtr decode_reg_value(Reader& r) {
  auto m = std::make_shared<RegisterValue>();
  m->value = r.u64();
  return m;
}

}  // namespace

// ---- sequencer protocol ----

void UpdateRequest::encode(Writer& w) const {
  encode_request_id(w, id);
  net::encode_nested(w, op);
}

void ReadRequest::encode(Writer& w) const {
  encode_request_id(w, id);
  net::encode_nested(w, op);
  w.u64(bound);
}

void GsnAssign::encode(Writer& w) const {
  encode_request_id(w, id);
  w.u64(gsn);
  w.boolean(is_update);
}

void Reply::encode(Writer& w) const {
  encode_request_id(w, id);
  w.boolean(is_update);
  net::encode_nested(w, result);
  w.node(replica);
  w.duration(t1);
  w.duration(ts);
  w.duration(tq);
  w.duration(tb);
  w.boolean(deferred);
  w.u64(staleness);
}

void LazyUpdate::encode(Writer& w) const {
  w.u64(csn);
  net::encode_nested(w, snapshot);
  w.u64(lazy_seq);
}

void StateRequest::encode(Writer&) const {}

void StateSnapshot::encode(Writer& w) const {
  w.u64(csn);
  w.u64(gsn);
  net::encode_nested(w, snapshot);
  encode_request_id_vector(w, committed);
}

void PerfPublication::encode(Writer& w) const {
  w.node(replica);
  w.boolean(has_sample);
  w.duration(ts);
  w.duration(tq);
  w.duration(tb);
  w.boolean(deferred);
  w.boolean(lazy.has_value());
  if (lazy) {
    w.u32(lazy->n_u);
    w.duration(lazy->t_u);
    w.u32(lazy->n_l);
    w.duration(lazy->t_l);
    w.duration(lazy->period);
  }
}

void GroupInfo::encode(Writer& w) const {
  w.u64(epoch);
  w.node(sequencer);
  net::encode_node_vector(w, primaries);
  net::encode_node_vector(w, secondaries);
  w.node(lazy_publisher);
}

// ---- example objects ----

void KvPut::encode(Writer& w) const {
  w.str(key);
  w.str(value);
}

void KvGet::encode(Writer& w) const { w.str(key); }

void KvResult::encode(Writer& w) const {
  net::encode_optional_str(w, value);
  w.u64(version);
}

void KvSnapshot::encode(Writer& w) const {
  encode_str_str_map(w, entries);
  w.u64(version);
}

void DocAppend::encode(Writer& w) const { w.str(line); }

void DocRead::encode(Writer&) const {}

void DocContents::encode(Writer& w) const {
  w.u32(static_cast<std::uint32_t>(lines.size()));
  for (const std::string& line : lines) w.str(line);
  w.u64(version);
}

void TickerSet::encode(Writer& w) const {
  w.str(symbol);
  w.f64(price);
}

void TickerGet::encode(Writer& w) const { w.str(symbol); }

void TickerQuote::encode(Writer& w) const {
  w.str(symbol);
  w.boolean(price.has_value());
  if (price) w.f64(*price);
  w.u64(version);
}

void TickerSnapshot::encode(Writer& w) const {
  w.u32(static_cast<std::uint32_t>(prices.size()));
  for (const auto& [symbol, price] : prices) {
    w.str(symbol);
    w.f64(price);
  }
  w.u64(version);
}

void RegisterBump::encode(Writer&) const {}

void RegisterRead::encode(Writer&) const {}

void RegisterValue::encode(Writer& w) const { w.u64(value); }

void register_wire_codecs() {
  gcs::register_wire_codecs();  // gcs frames carry these types as payloads
  auto& reg = net::CodecRegistry::global();
  reg.add(kWireUpdate, "repl.update", decode_update);
  reg.add(kWireRead, "repl.read", decode_read);
  reg.add(kWireGsnAssign, "repl.gsn", decode_gsn);
  reg.add(kWireReply, "repl.reply", decode_reply);
  reg.add(kWireLazyUpdate, "repl.lazy", decode_lazy);
  reg.add(kWireStateRequest, "repl.state_req", decode_state_req);
  reg.add(kWireStateSnapshot, "repl.state_snap", decode_state_snap);
  reg.add(kWirePerf, "repl.perf", decode_perf);
  reg.add(kWireGroupInfo, "repl.groupinfo", decode_groupinfo);
  reg.add(kWireKvPut, "kv.put", decode_kv_put);
  reg.add(kWireKvGet, "kv.get", decode_kv_get);
  reg.add(kWireKvResult, "kv.result", decode_kv_result);
  reg.add(kWireKvSnapshot, "kv.snapshot", decode_kv_snapshot);
  reg.add(kWireDocAppend, "doc.append", decode_doc_append);
  reg.add(kWireDocRead, "doc.read", decode_doc_read);
  reg.add(kWireDocContents, "doc.contents", decode_doc_contents);
  reg.add(kWireTickerSet, "ticker.set", decode_ticker_set);
  reg.add(kWireTickerGet, "ticker.get", decode_ticker_get);
  reg.add(kWireTickerQuote, "ticker.quote", decode_ticker_quote);
  reg.add(kWireTickerSnapshot, "ticker.snapshot", decode_ticker_snapshot);
  reg.add(kWireRegisterBump, "reg.bump", decode_reg_bump);
  reg.add(kWireRegisterRead, "reg.read", decode_reg_read);
  reg.add(kWireRegisterValue, "reg.value", decode_reg_value);
}

}  // namespace aqueduct::replication
