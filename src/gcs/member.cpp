#include "gcs/member.hpp"

#include <algorithm>
#include <utility>

#include "sim/check.hpp"

namespace aqueduct::gcs {

namespace {
/// A gap is NACKed this long after it shows (the message is probably
/// still in flight).
constexpr sim::Duration kNackDelay = std::chrono::milliseconds(100);
/// A joiner without a view re-contacts the coordinator at this period
/// (covers the coordinator crashing while the join was pending).
constexpr sim::Duration kJoinRetry = std::chrono::milliseconds(1000);
/// A flush round not complete within this period is re-proposed.
constexpr sim::Duration kFlushTimeout = std::chrono::milliseconds(2000);
}  // namespace

Member::Member(runtime::Executor& exec, Directory& directory, GroupId group,
               net::NodeId self, SendFn send, obs::Observability& obs)
    : exec_(exec),
      directory_(directory),
      group_(group),
      self_(self),
      send_(std::move(send)),
      stats_(&obs.metrics, "gcs.") {
  AQUEDUCT_CHECK(group_.valid());
  AQUEDUCT_CHECK(self_.valid());
  AQUEDUCT_CHECK(send_ != nullptr);
}

Member::~Member() { stop(); }

void Member::stop() {
  if (stopped_) return;
  stopped_ = true;
  joined_ = false;
  neighbors_.clear();
  exec_.cancel(flush_timeout_);
  exec_.cancel(join_retry_);
}

// ---------------------------------------------------------------------------
// Join / leave
// ---------------------------------------------------------------------------

void Member::join(Role role) {
  AQUEDUCT_CHECK(!stopped_);
  AQUEDUCT_CHECK_MSG(!joined_ && !join_requested_, "join() called twice");
  role_ = role;
  if (directory_.claim_or_get(group_, self_)) {
    join_requested_ = true;
    send_join_request();
    return;
  }
  // The group is empty: install its first view, of this member alone.
  auto install = std::make_shared<InstallMsg>();
  install->group = group_;
  install->view = View{group_, 1, {self_}, {}};
  if (role_ == Role::kListener) install->view.listeners.push_back(self_);
  handle_install(install);
}

void Member::send_join_request() {
  if (stopped_ || joined_) return;
  const auto coordinator = directory_.lookup(group_);
  if (coordinator && *coordinator != self_) {
    auto msg = std::make_shared<JoinMsg>();
    msg->group = group_;
    msg->role = role_;
    send_(*coordinator, msg);
  }
  join_retry_ = exec_.after(kJoinRetry, [this] { send_join_request(); });
}

void Member::leave() {
  if (!joined_ || stopped_) return;
  leave_requested_ = true;
  const net::NodeId coordinator = acting_coordinator();
  if (coordinator == self_) {
    pending_leavers_.insert(self_);
    start_view_change();
    return;
  }
  auto msg = std::make_shared<LeaveMsg>();
  msg->group = group_;
  send_p2p(coordinator, msg);
}

// ---------------------------------------------------------------------------
// Application send path
// ---------------------------------------------------------------------------

void Member::multicast(net::MessagePtr payload) {
  AQUEDUCT_CHECK(payload != nullptr);
  AQUEDUCT_CHECK_MSG(joined_ || blocked_ || join_requested_,
                     "multicast before join");
  AQUEDUCT_CHECK_MSG(role_ != Role::kListener, "a listener never multicasts");
  if (blocked_ || !joined_) {
    pending_sends_.push_back({true, net::NodeId{}, std::move(payload)});
    return;
  }
  auto msg = std::make_shared<DataMsg>();
  msg->group = group_;
  msg->is_mcast = true;
  msg->sender = self_;
  msg->seq = ++mcast_send_seq_;
  msg->payload = std::move(payload);
  const DataMsgPtr frozen = msg;
  sent_mcast_.emplace(frozen->seq, frozen);
  stats_.inc(&MemberStats::mcasts_sent);
  transmit_mcast(frozen);
}

void Member::transmit_mcast(const DataMsgPtr& msg) {
  for (const net::NodeId dest : view_.members) {
    if (dest == self_) continue;
    send_(dest, msg);
  }
  deliver_locally(msg);
}

void Member::deliver_locally(const DataMsgPtr& msg) {
  exec_.after(sim::Duration::zero(), [this, msg, alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired() || stopped_) return;
    accept(msg->sender, msg);
  });
}

void Member::send_to(net::NodeId dest, net::MessagePtr payload) {
  AQUEDUCT_CHECK(payload != nullptr);
  AQUEDUCT_CHECK(dest.valid());
  AQUEDUCT_CHECK_MSG(joined_ || blocked_ || join_requested_,
                     "send_to before join");
  if (blocked_ || !joined_) {
    pending_sends_.push_back({false, dest, std::move(payload)});
    return;
  }
  send_p2p(dest, std::move(payload));
}

// Membership control traffic (propose/flush/install/suspect/leave between
// current members) travels over the same reliable FIFO p2p channels as
// application data — a lost control message would otherwise stall or
// corrupt a view change — but bypasses the flush send-block, which only
// gates *application* sends.
void Member::send_p2p(net::NodeId dest, net::MessagePtr payload) {
  Peer& peer = peers_[dest];
  auto msg = std::make_shared<DataMsg>();
  msg->group = group_;
  msg->is_mcast = false;
  msg->sender = self_;
  msg->seq = ++peer.p2p_send_seq;
  msg->payload = std::move(payload);
  const DataMsgPtr frozen = msg;
  stats_.inc(&MemberStats::p2p_sent);
  if (dest == self_) {
    // Delivered locally, so it cannot be lost: no copy is kept.
    deliver_locally(frozen);
    return;
  }
  peer.sent_p2p.emplace(frozen->seq, frozen);
  send_(dest, frozen);
}

void Member::send_to_set(const std::vector<net::NodeId>& dests,
                         const net::MessagePtr& payload) {
  for (const net::NodeId dest : dests) send_to(dest, payload);
}

void Member::send_best_effort(const std::vector<net::NodeId>& dests,
                              net::MessagePtr payload) {
  AQUEDUCT_CHECK(payload != nullptr);
  if (!joined_) return;
  auto msg = std::make_shared<DataMsg>();
  msg->group = group_;
  msg->is_mcast = false;
  msg->sender = self_;
  msg->seq = 0;
  msg->payload = std::move(payload);
  const DataMsgPtr frozen = msg;
  for (const net::NodeId dest : dests) {
    if (dest != self_) send_(dest, frozen);
  }
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

// Receive dispatch switches on the stable wire id: each gcs id belongs to
// exactly one concrete type, so the static casts below are exact.
void Member::handle(net::NodeId from, const net::MessagePtr& msg) {
  if (stopped_) return;
  switch (msg->wire_type()) {
    case kWireData: {
      // Every copy, a retransmission too, comes from its own sender, so one
      // that claims another sender's stream is forged.
      const auto data = std::static_pointer_cast<const DataMsg>(msg);
      if (data->sender != from) break;
      if (data->seq > 0) {
        accept(from, data);
      } else if (joined_ && view_.contains(from) &&
                 !is_gcs_wire(data->payload->wire_type())) {
        // Best-effort (send_best_effort): no stream state to touch.
        stats_.inc(&MemberStats::delivered);
        if (on_deliver_) on_deliver_(from, data->payload);
      }
      break;
    }
    case kWireNack:
      handle_nack(from, static_cast<const NackMsg&>(*msg));
      break;
    case kWireJoin:
      handle_join(from, static_cast<const JoinMsg&>(*msg));
      break;
    case kWireInstall:
      // Raw installs are for joiners and for evictees, who hear from their
      // own view's coordinator.
      if (heeds(from)) handle_install(std::static_pointer_cast<const InstallMsg>(msg));
      break;
    default:
      break;  // control messages count only inside the reliable p2p stream
  }
}

bool Member::dispatch_control(net::NodeId from, const net::MessagePtr& payload) {
  // A control message is consumed whoever sent it, and acted on only if
  // heeds(from): the reliable stream does not make its sender a member.
  const bool act = heeds(from);
  switch (payload->wire_type()) {
    case kWirePropose:
      if (act) handle_propose(from, static_cast<const ProposeMsg&>(*payload));
      return true;
    case kWireFlush:
      if (act) handle_flush(from, std::static_pointer_cast<const FlushMsg>(payload));
      return true;
    case kWireInstall:
      if (act) handle_install(std::static_pointer_cast<const InstallMsg>(payload));
      return true;
    case kWireSuspect:
      if (act) suspect(static_cast<const SuspectMsg&>(*payload).suspect);
      return true;
    case kWireLeave:
      if (act) handle_leave(from);
      return true;
    default:
      return false;  // application payload
  }
}

void Member::accept(net::NodeId sender, const DataMsgPtr& msg) {
  InChannel& chan = peers_[sender].in(msg->is_mcast);
  if (msg->seq <= chan.delivered || chan.buffered.contains(msg->seq)) {
    stats_.inc(&MemberStats::duplicates_dropped);
    return;
  }
  chan.buffered.emplace(msg->seq, msg);
  if (msg->seq > chan.delivered + 1) {
    // Out-of-order arrival exposes a gap below it: ask the sender to
    // retransmit whatever is still missing after kNackDelay.
    schedule_nack_check(sender, msg->is_mcast, msg->seq);
  }
  deliver_ready(sender, msg->is_mcast);
}

void Member::deliver_ready(net::NodeId sender, bool is_mcast) {
  // The peer is re-looked-up every iteration: delivering a message can
  // install a view (via dispatch_control) that erases the sender's entry —
  // a held reference would dangle.
  while (true) {
    auto pit = peers_.find(sender);
    if (pit == peers_.end()) return;  // sender departed mid-delivery
    InChannel& chan = pit->second.in(is_mcast);
    auto it = chan.buffered.find(chan.delivered + 1);
    if (it == chan.buffered.end()) break;
    DataMsgPtr msg = it->second;
    chan.buffered.erase(it);
    chan.delivered = msg->seq;
    if (is_mcast) {
      // Retain a copy for the flush protocol until the message is stable.
      chan.retained.emplace(msg->seq, msg);
      ack_own(sender, chan.delivered);
    }
    if (dispatch_control(sender, msg->payload)) {
      if (stopped_) return;
      continue;
    }
    stats_.inc(&MemberStats::delivered);
    if (on_deliver_) on_deliver_(sender, msg->payload);
    if (stopped_) return;  // the callback may have crashed us
  }
}

void Member::schedule_nack_check(net::NodeId sender, bool is_mcast,
                                 std::uint64_t up_to) {
  InChannel& chan = peers_[sender].in(is_mcast);
  if (chan.nack_pending_up_to && *chan.nack_pending_up_to >= up_to) return;
  chan.nack_pending_up_to = up_to;
  exec_.after(kNackDelay, [this, sender, is_mcast, up_to,
                           alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired() || stopped_) return;
    auto pit = peers_.find(sender);
    if (pit == peers_.end()) return;  // the sender left the view
    InChannel& c = pit->second.in(is_mcast);
    c.nack_pending_up_to.reset();
    // Determine the first gap below `up_to`.
    std::uint64_t first_missing = c.delivered + 1;
    while (first_missing <= up_to && c.buffered.contains(first_missing)) {
      ++first_missing;
    }
    if (first_missing > up_to) return;  // nothing missing any more
    auto nack = std::make_shared<NackMsg>();
    nack->group = group_;
    nack->is_mcast = is_mcast;
    nack->from_seq = first_missing;
    nack->to_seq = up_to;
    stats_.inc(&MemberStats::nacks_sent);
    send_(sender, nack);
  });
}

void Member::handle_nack(net::NodeId from, const NackMsg& msg) {
  const auto& copies = msg.is_mcast ? sent_mcast_ : peers_[from].sent_p2p;
  for (auto it = copies.lower_bound(msg.from_seq);
       it != copies.end() && it->first <= msg.to_seq; ++it) {
    stats_.inc(&MemberStats::retransmissions);
    send_(from, it->second);
  }
}

// ---------------------------------------------------------------------------
// Heartbeats, stability, failure detection
// ---------------------------------------------------------------------------

void Member::heartbeat(std::vector<HeartbeatRoute>& routes) {
  if (!joined_ || stopped_) return;
  const auto part = [&](net::NodeU64Pairs acks) {
    auto shared = std::make_shared<HeartbeatShared>();
    shared->my_mcast_seq = mcast_send_seq_;
    shared->mcast_acks = std::move(acks);
    return std::shared_ptr<const HeartbeatShared>(std::move(shared));
  };
  // The leader's row stands for the listeners towards the full members, and
  // for the full members towards the listeners; any other member's row is
  // its own delivery.
  std::shared_ptr<const HeartbeatShared> to_full, to_listeners;
  if (leads_listeners_) {
    to_full = part(listener_acks_.stable_row());
    to_listeners = part(acks_.stable_row());
  } else {
    to_full = to_listeners = part(own_acks());
  }
  for (const Neighbor& n : neighbors_) {
    Peer& peer = *n.peer;
    const bool unacked = !peer.sent_p2p.empty();
    if (!n.monitored && !unacked && !peer.answer) continue;
    peer.answer = false;
    routes.push_back({n.node, {group_, unacked ? peer.p2p_send_seq : 0, peer.p2p_in.delivered,
                               n.listener ? to_listeners : to_full}});
  }
}

net::NodeU64Pairs Member::own_acks() const {
  // Only senders whose multicasts were delivered are listed: receivers
  // read a missing node as 0. peers_ iterates in NodeId order, so the
  // vector comes out sorted.
  net::NodeU64Pairs acks;
  for (const auto& [node, peer] : peers_) {
    if (peer.mcast_in.delivered > 0) acks.emplace_back(node, peer.mcast_in.delivered);
  }
  return acks;
}

AckMatrix* Member::rows_of(net::NodeId from) {
  if (!joined_) return &acks_;
  const bool listener = view_.is_listener(from);
  if (leads_listeners_) return listener ? &listener_acks_ : &acks_;
  if (from == view_.leader()) return &acks_;
  return listener || view_.is_listener(self_) ? nullptr : &acks_;
}

namespace {

/// Drops the copies with seq <= `up_to` — a prefix of the seq-keyed map.
void erase_up_to(std::map<std::uint64_t, DataMsgPtr>& copies,
                 std::uint64_t up_to) {
  if (!copies.empty() && copies.begin()->first <= up_to) {
    copies.erase(copies.begin(), copies.upper_bound(up_to));
  }
}

}  // namespace

void Member::handle_heartbeat(net::NodeId from, const HeartbeatSection& msg) {
  if (stopped_) return;
  Peer& peer = peers_[from];
  peer.answer |= msg.p2p_sent > 0;
  // Stability bookkeeping.
  if (AckMatrix* rows = rows_of(from)) {
    stability_moved_ |= rows->set_row(from, msg.shared->mcast_acks);
  }
  if (stability_moved_) collect_stability();

  // Garbage-collect the p2p send buffer towards `from`.
  erase_up_to(peer.sent_p2p, msg.p2p_acked);

  // Loss detection on the mcast stream of `from`: anything between our
  // contiguous high-water mark and the sender's announced seq might be a
  // gap (trailing or interior) worth NACKing.
  if (msg.shared->my_mcast_seq > peer.mcast_in.delivered) {
    schedule_nack_check(from, /*is_mcast=*/true, msg.shared->my_mcast_seq);
  }
  // Same for the from->me p2p channel.
  if (msg.p2p_sent > peer.p2p_in.delivered) {
    schedule_nack_check(from, /*is_mcast=*/false, msg.p2p_sent);
  }
  // A listener hears no other sender: every full member has delivered what
  // the leader announces, and the sender still holds it.
  if (joined_ && view_.leader() == from && view_.is_listener(self_)) {
    for (const auto& [sender, ack] : msg.shared->mcast_acks) {
      auto it = peers_.find(sender);
      if (it != peers_.end() && ack > it->second.mcast_in.delivered) {
        schedule_nack_check(sender, /*is_mcast=*/true, ack);
      }
    }
  }
}

void Member::reset_acks() {
  stability_moved_ = true;
  const std::vector<net::NodeId> senders = view_.full_members();
  const net::NodeId leader = view_.leader();
  leads_listeners_ = leader == self_ && !view_.listeners.empty();
  std::vector<net::NodeId> rows = senders;
  if (leads_listeners_) {
    std::vector<net::NodeId> listener_rows = view_.listeners;
    listener_rows.push_back(self_);
    listener_acks_.set_view(listener_rows, senders, self_);
    listener_acks_.set_row(self_, own_acks());
  } else {
    listener_acks_.set_view({}, {}, self_);
    if (view_.is_listener(self_)) rows = {self_};
    rows.push_back(leader);
  }
  acks_.set_view(rows, senders, self_);
}

void Member::collect_stability() {
  if (!joined_) return;
  stability_moved_ = false;
  // A multicast (sender, seq) is stable once every member whose acks count
  // here has delivered it; stable copies can be dropped from retained logs
  // and from the sender's own buffer. The per-sender minima are maintained
  // by acks_, so this is one lookup and one front-of-buffer compare per
  // sender; only a buffer whose oldest copy became stable is trimmed.
  for (auto& [sender, peer] : peers_) {
    auto& retained = peer.mcast_in.retained;
    if (!retained.empty()) erase_up_to(retained, stable(sender));
  }
  if (!sent_mcast_.empty()) erase_up_to(sent_mcast_, stable(self_));
}

std::uint64_t Member::stable(net::NodeId sender) const {
  const std::uint64_t full = acks_.stable(sender);
  return leads_listeners_ ? std::min(full, listener_acks_.stable(sender)) : full;
}

void Member::ack_own(net::NodeId sender, std::uint64_t delivered) {
  stability_moved_ |= acks_.set_cell(self_, sender, delivered);
  if (leads_listeners_) {
    stability_moved_ |= listener_acks_.set_cell(self_, sender, delivered);
  }
}

bool Member::monitors(net::NodeId node) const {
  return (!view_.is_listener(self_) && !view_.is_listener(node)) ||
         view_.leader() == self_ || view_.leader() == node;
}

void Member::rebuild_neighbors() {
  neighbors_.clear();
  for (const net::NodeId m : view_.members) {
    if (m == self_) continue;
    // Every view member has an entry: handle_install creates them all.
    neighbors_.push_back({m, &peers_.at(m), monitors(m), view_.is_listener(m)});
  }
}

void Member::suspect(net::NodeId node) {
  // stop() clears joined_, so a stopped member suspects nobody either.
  if (!joined_ || node == self_ || !view_.contains(node)) return;
  if (!suspects_.insert(node).second) return;  // already suspected
  const net::NodeId coordinator = acting_coordinator();
  if (coordinator == self_) {
    start_view_change();
  } else {
    auto msg = std::make_shared<SuspectMsg>();
    msg->group = group_;
    msg->suspect = node;
    send_p2p(coordinator, msg);
  }
}

net::NodeId Member::acting_coordinator() const {
  for (const net::NodeId m : view_.members) {
    if (!suspects_.contains(m)) return m;
  }
  return self_;
}

Member::BufferSizes Member::buffer_sizes() const {
  BufferSizes sizes;
  for (const auto& [node, peer] : peers_) {
    sizes.retained += peer.mcast_in.retained.size();
    sizes.p2p += peer.sent_p2p.size();
  }
  sizes.sent = sent_mcast_.size();
  return sizes;
}

// ---------------------------------------------------------------------------
// Membership coordination (view changes with virtually synchronous flush)
// ---------------------------------------------------------------------------

void Member::handle_join(net::NodeId from, const JoinMsg& msg) {
  if (!joined_) return;
  if (view_.contains(from)) {
    // Already admitted — its install was probably lost; re-send it.
    if (last_install_ && last_install_->view.id == view_.id) {
      send_(from, last_install_);
    }
    return;
  }
  pending_joiners_.emplace(from, msg.role);
  start_view_change();
}

void Member::handle_leave(net::NodeId from) {
  if (!joined_ || !view_.contains(from)) return;
  pending_leavers_.insert(from);
  start_view_change();
}

void Member::start_view_change() {
  if (!joined_ || stopped_) return;
  if (acting_coordinator() != self_) return;
  if (coordinating_) {
    rerun_change_after_install_ = true;
    return;
  }

  // New membership: survivors in old order, then joiners in id order. The
  // listeners are the surviving ones plus the joiners that asked to be.
  std::vector<net::NodeId> members;
  std::vector<net::NodeId> listeners;
  for (const net::NodeId m : view_.members) {
    if (!suspects_.contains(m) && !pending_leavers_.contains(m)) {
      members.push_back(m);
      if (view_.is_listener(m)) listeners.push_back(m);
    }
  }
  for (const auto& [joiner, role] : pending_joiners_) {
    if (std::find(members.begin(), members.end(), joiner) == members.end()) {
      members.push_back(joiner);
      if (role == Role::kListener) listeners.push_back(joiner);
    }
  }
  if (members == view_.members) {
    pending_joiners_.clear();
    return;  // nothing to change
  }
  std::sort(listeners.begin(), listeners.end());

  my_proposal_ = std::max(last_proposal_seen_, view_.id) + 1;
  last_proposal_seen_ = my_proposal_;
  coordinating_ = true;
  proposed_ = View{group_, my_proposal_, std::move(members), std::move(listeners)};
  flush_replies_.clear();
  flush_waiting_.clear();
  for (const net::NodeId m : view_.members) {
    if (!suspects_.contains(m) && m != self_) flush_waiting_.insert(m);
  }

  // Block and flush locally.
  blocked_ = true;
  flush_replies_[self_] = build_flush(my_proposal_);

  auto propose = std::make_shared<ProposeMsg>();
  propose->group = group_;
  propose->proposal = my_proposal_;
  for (const net::NodeId m : flush_waiting_) send_p2p(m, propose);

  exec_.cancel(flush_timeout_);
  flush_timeout_ = exec_.after(kFlushTimeout, [this] {
    if (!coordinating_ || flush_waiting_.empty()) return;
    // Slow round (e.g. repair in progress): re-propose with a fresh
    // proposal number. Genuinely crashed members are removed when the
    // failure detector suspects them, not here.
    coordinating_ = false;
    start_view_change();
  });

  if (flush_waiting_.empty()) finish_flush();
}

std::shared_ptr<FlushMsg> Member::build_flush(std::uint64_t proposal) const {
  auto flush = std::make_shared<FlushMsg>();
  flush->group = group_;
  flush->proposal = proposal;
  for (const auto& [sender, peer] : peers_) {
    const InChannel& chan = peer.mcast_in;
    // A missing sender reads as 0, as in heartbeats.
    if (chan.delivered > 0) flush->delivered[sender] = chan.delivered;
    for (const auto& [seq, msg] : chan.retained) flush->held.push_back(msg);
    for (const auto& [seq, msg] : chan.buffered) flush->held.push_back(msg);
  }
  for (const auto& [seq, msg] : sent_mcast_) flush->held.push_back(msg);
  return flush;
}

void Member::handle_propose(net::NodeId from, const ProposeMsg& msg) {
  if (!joined_) return;
  if (msg.proposal < last_proposal_seen_) return;  // stale coordinator
  last_proposal_seen_ = msg.proposal;
  blocked_ = true;
  send_p2p(from, build_flush(msg.proposal));
}

void Member::handle_flush(net::NodeId from,
                          const std::shared_ptr<const FlushMsg>& msg) {
  if (!coordinating_ || msg->proposal != my_proposal_) return;
  flush_replies_[from] = msg;
  flush_waiting_.erase(from);
  if (flush_waiting_.empty()) finish_flush();
}

void Member::finish_flush() {
  exec_.cancel(flush_timeout_);

  auto install = std::make_shared<InstallMsg>();
  install->group = group_;
  install->view = proposed_;

  std::map<std::pair<net::NodeId, std::uint64_t>, DataMsgPtr> resolution;
  for (const auto& [member, flush] : flush_replies_) {
    for (const auto& [sender, delivered] : flush->delivered) {
      auto& target = install->deliver_up_to[sender];
      target = std::max(target, delivered);
    }
    for (const DataMsgPtr& msg : flush->held) {
      auto& target = install->deliver_up_to[msg->sender];
      target = std::max(target, msg->seq);
      resolution.try_emplace({msg->sender, msg->seq}, msg);
    }
  }
  install->resolution.reserve(resolution.size());
  for (auto& [key, msg] : resolution) install->resolution.push_back(std::move(msg));

  // Everyone that flushed (including leavers) plus joiners learns the view.
  // Flushed members have live reliable channels; joiners do not yet, so
  // they get a raw send (re-repaired by their join-retry loop if lost).
  std::set<net::NodeId> recipients(proposed_.members.begin(), proposed_.members.end());
  for (const auto& [member, flush] : flush_replies_) recipients.insert(member);
  for (const net::NodeId m : recipients) {
    if (m == self_) continue;
    if (view_.contains(m)) {
      send_p2p(m, install);
    } else {
      send_(m, install);
    }
  }
  // Suspected old-view members excluded from the new view get a raw,
  // best-effort copy too: a *live* evictee (gray failure — slow or
  // partially partitioned, not crashed) would otherwise never learn it was
  // ejected and would run on forever with a dead membership. Raw because
  // its reliable channels die with the view; loss is acceptable — a
  // genuinely crashed or fully partitioned evictee is unreachable anyway.
  for (const net::NodeId m : view_.members) {
    if (m != self_ && !recipients.contains(m) && !install->view.contains(m)) {
      send_(m, install);
    }
  }
  last_install_ = install;
  coordinating_ = false;
  handle_install(install);

  if (rerun_change_after_install_) {
    rerun_change_after_install_ = false;
    start_view_change();
  }
}

void Member::handle_install(const std::shared_ptr<const InstallMsg>& msg) {
  if (stopped_ || msg->view.id <= view_.id) return;  // stale or duplicate install
  const bool fresh_joiner = !joined_;

  if (fresh_joiner) {
    // A joiner has no history: it starts at the cut without delivering the
    // old view's messages (application-level state transfer brings it up to
    // date — see the replication layer).
    for (const auto& [sender, target] : msg->deliver_up_to) {
      InChannel& chan = peers_[sender].mcast_in;
      chan.delivered = std::max(chan.delivered, target);
      std::erase_if(chan.buffered,
                    [&](const auto& kv) { return kv.first <= chan.delivered; });
      ack_own(sender, chan.delivered);
    }
    // Messages multicast in the *new* view can race ahead of this install;
    // drain anything that became contiguous once the baseline was set.
    // (Collect the senders first: delivery can mutate the peer table.)
    std::vector<net::NodeId> senders;
    senders.reserve(peers_.size());
    for (const auto& [sender, peer] : peers_) senders.push_back(sender);
    for (const net::NodeId sender : senders) {
      deliver_ready(sender, /*is_mcast=*/true);
      if (stopped_) return;
    }
  } else {
    // Surviving member: complete delivery up to the agreed cut.
    for (const DataMsgPtr& m : msg->resolution) {
      InChannel& chan = peers_[m->sender].mcast_in;
      if (m->seq > chan.delivered && !chan.buffered.contains(m->seq)) {
        chan.buffered.emplace(m->seq, m);
      }
    }
    for (const auto& [sender, target] : msg->deliver_up_to) {
      peers_[sender];  // the cut can reference senders we never heard
      deliver_ready(sender, /*is_mcast=*/true);
      if (stopped_) return;
      while (true) {
        auto pit = peers_.find(sender);
        if (pit == peers_.end() || pit->second.mcast_in.delivered >= target) break;
        InChannel& chan = pit->second.mcast_in;
        // Gap that no survivor can fill: the only holders crashed. Count it
        // and move on (allowed for a crashed sender's unstable messages).
        stats_.inc(&MemberStats::flush_gaps);
        chan.delivered += 1;
        ack_own(sender, chan.delivered);
        deliver_ready(sender, /*is_mcast=*/true);
        if (stopped_) return;
      }
    }
  }

  view_ = msg->view;
  last_proposal_seen_ = std::max(last_proposal_seen_, view_.id);
  blocked_ = false;
  stats_.inc(&MemberStats::view_changes);

  if (!view_.contains(self_)) {
    // We left (or were excluded): shut down cleanly. An exclusion install
    // only reaches a member that is still running and reachable — i.e. the
    // failure detector ejected a live process (gray failure: slow
    // or partially partitioned); a fully partitioned member never receives
    // it. Surface that to the owner so it can reincarnate rather than run
    // on forever with a dead membership. Deferred: the callback typically
    // destroys this member.
    const bool evicted = !leave_requested_;
    stop();
    if (evicted && on_eviction_) {
      exec_.post([cb = on_eviction_] { cb(); });
    }
    return;
  }

  joined_ = true;
  std::erase_if(suspects_, [&](net::NodeId n) { return !view_.contains(n); });
  std::erase_if(pending_joiners_,
                [&](const auto& kv) { return view_.contains(kv.first); });
  std::erase_if(pending_leavers_,
                [&](net::NodeId n) { return !view_.contains(n); });
  reset_acks();
  // Forget every node outside the new view. NodeIds are never reused (a
  // recovered process reincarnates under a fresh id), so an ex-member's
  // streams and unacked copies can never be consulted again — without
  // this, every crash/leave would leak them for the lifetime of the
  // member, and heartbeats would keep listing them.
  std::erase_if(peers_, [&](const auto& kv) { return !view_.contains(kv.first); });
  for (const net::NodeId m : view_.members) peers_.try_emplace(m);
  rebuild_neighbors();

  exec_.cancel(join_retry_);
  if (is_leader()) directory_.update(group_, self_);

  if (on_view_) on_view_(view_);

  // Replay sends queued during the flush, in order.
  std::deque<PendingSend> pending;
  pending.swap(pending_sends_);
  for (PendingSend& p : pending) {
    if (p.is_mcast) {
      multicast(std::move(p.payload));
    } else {
      send_to(p.dest, std::move(p.payload));
    }
  }

  // Membership work that accumulated during the change.
  if (is_leader() &&
      (!pending_joiners_.empty() || !pending_leavers_.empty() || !suspects_.empty())) {
    start_view_change();
  }
}

}  // namespace aqueduct::gcs
