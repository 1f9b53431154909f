// Wire registration of the replication layer: the replication protocol
// (messages.hpp, 0x2*) and the example replicated objects (objects.hpp,
// 0x4*). Each type's layout is its field list in those headers; the net
// codec's walkers derive its encoder, decoder and wire size from it, so
// nothing here restates a field.
#include "gcs/messages.hpp"
#include "replication/messages.hpp"
#include "replication/objects.hpp"

namespace aqueduct::replication {

void register_wire_codecs() {
  gcs::register_wire_codecs();  // gcs frames carry these types as payloads
  net::register_wire_types<UpdateRequest, ReadRequest, GsnAssign, Reply, LazyUpdate, StateRequest,
                           StateSnapshot, PerfPublication, GroupInfo>();
  net::register_wire_types<KvPut, KvGet, KvResult, KvSnapshot, DocAppend, DocRead, DocContents,
                           TickerSet, TickerGet, TickerQuote, TickerSnapshot, RegisterBump,
                           RegisterRead, RegisterValue>();
}

}  // namespace aqueduct::replication
