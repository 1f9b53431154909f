// Wire registration of the gcs messages (see messages.hpp for the id
// block). Each type's layout is its field list in messages.hpp; the net
// codec's walkers derive its encoder, decoder and wire size from it, so
// nothing here restates a field.
#include "gcs/messages.hpp"

namespace aqueduct::gcs {

void register_wire_codecs() {
  net::register_wire_types<DataMsg, HeartbeatMsg, NackMsg, JoinMsg, LeaveMsg, SuspectMsg,
                           ProposeMsg, FlushMsg, InstallMsg>();
}

}  // namespace aqueduct::gcs
