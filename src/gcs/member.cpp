#include "gcs/member.hpp"

#include <algorithm>
#include <utility>

#include "sim/check.hpp"

namespace aqueduct::gcs {

Member::Instruments::Instruments(obs::MetricsRegistry& reg)
    : mcasts_sent(reg.counter("gcs.mcasts_sent")),
      p2p_sent(reg.counter("gcs.p2p_sent")),
      delivered(reg.counter("gcs.delivered")),
      duplicates_dropped(reg.counter("gcs.duplicates_dropped")),
      nacks_sent(reg.counter("gcs.nacks_sent")),
      retransmissions(reg.counter("gcs.retransmissions")),
      view_changes(reg.counter("gcs.view_changes")),
      flush_gaps(reg.counter("gcs.flush_gaps")) {}

Member::Member(runtime::Executor& exec, Directory& directory, Config config,
               GroupId group, net::NodeId self, SendFn send,
               obs::Observability& obs)
    : exec_(exec),
      directory_(directory),
      config_(config),
      group_(group),
      self_(self),
      send_(std::move(send)),
      metrics_(obs.metrics) {
  AQUEDUCT_CHECK(group_.valid());
  AQUEDUCT_CHECK(self_.valid());
  AQUEDUCT_CHECK(send_ != nullptr);
  heartbeat_task_ = std::make_unique<runtime::PeriodicTask>(
      exec_, config_.heartbeat_period, [this] {
        send_heartbeat();
        fd_tick();
      });
}

Member::~Member() { stop(); }

void Member::stop() {
  if (stopped_) return;
  stopped_ = true;
  joined_ = false;
  heartbeat_task_->stop();
  exec_.cancel(flush_timeout_);
  exec_.cancel(join_retry_);
}

// ---------------------------------------------------------------------------
// Join / leave
// ---------------------------------------------------------------------------

void Member::join() {
  AQUEDUCT_CHECK(!stopped_);
  AQUEDUCT_CHECK_MSG(!joined_ && !join_requested_, "join() called twice");
  const auto coordinator = directory_.claim_or_get(group_, self_);
  if (!coordinator) {
    bootstrap_singleton();
    return;
  }
  join_requested_ = true;
  send_join_request();
}

void Member::bootstrap_singleton() {
  view_ = View{group_, 1, {self_}};
  acks_.set_view(view_.members, self_);
  joined_ = true;
  last_proposal_seen_ = 1;
  last_heard_[self_] = exec_.now();
  heartbeat_task_->start();
  directory_.update(group_, self_);
  ++stats_.view_changes;
  metrics_.view_changes.inc();
  if (on_view_) on_view_(view_);
}

void Member::send_join_request() {
  if (stopped_ || joined_) return;
  const auto coordinator = directory_.lookup(group_);
  if (coordinator && *coordinator != self_) {
    auto msg = std::make_shared<JoinMsg>();
    msg->group = group_;
    send_(*coordinator, msg);
  }
  join_retry_ = exec_.after(config_.join_retry, [this] { send_join_request(); });
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
  send_control(coordinator, msg);
}

// ---------------------------------------------------------------------------
// Application send path
// ---------------------------------------------------------------------------

void Member::multicast(net::MessagePtr payload) {
  AQUEDUCT_CHECK(payload != nullptr);
  AQUEDUCT_CHECK_MSG(joined_ || blocked_ || join_requested_,
                     "multicast before join");
  if (blocked_ || !joined_) {
    pending_sends_.push_back({true, net::NodeId{}, std::move(payload)});
    return;
  }
  auto msg = std::make_shared<DataMsg>();
  msg->group = group_;
  msg->is_mcast = true;
  msg->sender = self_;
  msg->seq = ++mcast_send_seq_;
  msg->view_sent = view_.id;
  msg->payload = std::move(payload);
  const DataMsgPtr frozen = msg;
  sent_mcast_.emplace(frozen->seq, frozen);
  ++stats_.mcasts_sent;
  metrics_.mcasts_sent.inc();
  transmit_mcast(frozen);
}

void Member::transmit_mcast(const DataMsgPtr& msg) {
  for (const net::NodeId dest : view_.members) {
    if (dest == self_) continue;
    send_(dest, msg);
  }
  // Self-delivery goes through the normal accept path, scheduled as an
  // immediate event so the caller's stack unwinds first.
  exec_.after(sim::Duration::zero(),
             [this, msg, alive = std::weak_ptr<const bool>(alive_)] {
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
void Member::send_control(net::NodeId dest, net::MessagePtr payload) {
  if (dest == self_) return;  // callers handle self directly
  send_p2p(dest, std::move(payload));
}

void Member::send_p2p(net::NodeId dest, net::MessagePtr payload) {
  auto msg = std::make_shared<DataMsg>();
  msg->group = group_;
  msg->is_mcast = false;
  msg->sender = self_;
  msg->dest = dest;
  msg->seq = ++p2p_send_seq_[dest];
  msg->view_sent = view_.id;
  msg->payload = std::move(payload);
  const DataMsgPtr frozen = msg;
  sent_p2p_[dest].emplace(frozen->seq, frozen);
  ++stats_.p2p_sent;
  metrics_.p2p_sent.inc();
  if (dest == self_) {
    exec_.after(sim::Duration::zero(),
               [this, frozen, alive = std::weak_ptr<const bool>(alive_)] {
                 if (alive.expired() || stopped_) return;
                 accept(frozen->sender, frozen);
               });
  } else {
    send_(dest, frozen);
  }
}

void Member::send_to_set(const std::vector<net::NodeId>& dests,
                         const net::MessagePtr& payload) {
  for (const net::NodeId dest : dests) send_to(dest, payload);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

// Receive dispatch switches on the stable wire id: each gcs id belongs to
// exactly one concrete type, so the static casts below are exact.
void Member::handle(net::NodeId from, const net::MessagePtr& msg) {
  if (stopped_) return;
  last_heard_[from] = exec_.now();
  switch (msg->wire_type()) {
    case kWireData:
      handle_data(from, std::static_pointer_cast<const DataMsg>(msg));
      break;
    case kWireHeartbeat:
      handle_heartbeat(from, static_cast<const HeartbeatMsg&>(*msg));
      break;
    case kWireNack:
      handle_nack(from, static_cast<const NackMsg&>(*msg));
      break;
    case kWireJoin:
      handle_join(from);
      break;
    case kWireLeave:
      handle_leave(from);
      break;
    case kWireSuspect:
      handle_suspect(from, static_cast<const SuspectMsg&>(*msg));
      break;
    case kWirePropose:
      handle_propose(from, static_cast<const ProposeMsg&>(*msg));
      break;
    case kWireFlush:
      handle_flush(from, std::static_pointer_cast<const FlushMsg>(msg));
      break;
    case kWireInstall:
      handle_install(std::static_pointer_cast<const InstallMsg>(msg));
      break;
    default:
      AQUEDUCT_CHECK_MSG(false, "unknown gcs message " << msg->type_name());
  }
}

void Member::handle_data(net::NodeId /*from*/,
                         const std::shared_ptr<const DataMsg>& msg) {
  accept(msg->sender, msg);
}

bool Member::dispatch_control(net::NodeId from, const net::MessagePtr& payload) {
  switch (payload->wire_type()) {
    case kWirePropose:
      handle_propose(from, static_cast<const ProposeMsg&>(*payload));
      return true;
    case kWireFlush:
      handle_flush(from, std::static_pointer_cast<const FlushMsg>(payload));
      return true;
    case kWireInstall:
      handle_install(std::static_pointer_cast<const InstallMsg>(payload));
      return true;
    case kWireSuspect:
      handle_suspect(from, static_cast<const SuspectMsg&>(*payload));
      return true;
    case kWireLeave:
      handle_leave(from);
      return true;
    default:
      return false;  // application payload
  }
}

void Member::accept(net::NodeId sender, const DataMsgPtr& msg) {
  InChannel& chan = msg->is_mcast ? mcast_in_[sender] : p2p_in_[sender];
  if (msg->seq <= chan.delivered || chan.buffered.contains(msg->seq)) {
    ++stats_.duplicates_dropped;
    metrics_.duplicates_dropped.inc();
    return;
  }
  chan.buffered.emplace(msg->seq, msg);
  if (msg->seq > chan.delivered + 1) {
    // Out-of-order arrival exposes a gap below it: ask the sender to
    // retransmit whatever is still missing after nack_delay.
    schedule_nack_check(sender, msg->is_mcast, msg->seq);
  }
  deliver_ready(sender, msg->is_mcast);
}

void Member::deliver_ready(net::NodeId sender, bool is_mcast) {
  // The channel is re-looked-up every iteration: delivering a message can
  // install a view (via dispatch_control) whose garbage collection erases
  // the sender's channel — a held reference would dangle.
  while (true) {
    auto& channels = is_mcast ? mcast_in_ : p2p_in_;
    auto cit = channels.find(sender);
    if (cit == channels.end()) return;  // sender departed mid-delivery
    InChannel& chan = cit->second;
    auto it = chan.buffered.find(chan.delivered + 1);
    if (it == chan.buffered.end()) break;
    DataMsgPtr msg = it->second;
    chan.buffered.erase(it);
    chan.delivered = msg->seq;
    if (is_mcast) {
      // Retain a copy for the flush protocol until the message is stable.
      chan.retained.emplace(msg->seq, msg);
      acks_.set_cell(self_, sender, chan.delivered);
    }
    if (dispatch_control(sender, msg->payload)) {
      if (stopped_) return;
      continue;
    }
    ++stats_.delivered;
    metrics_.delivered.inc();
    if (on_deliver_) on_deliver_(sender, msg->payload);
    if (stopped_) return;  // the callback may have crashed us
  }
}

void Member::schedule_nack_check(net::NodeId sender, bool is_mcast,
                                 std::uint64_t up_to) {
  InChannel& chan = is_mcast ? mcast_in_[sender] : p2p_in_[sender];
  if (chan.nack_pending_up_to && *chan.nack_pending_up_to >= up_to) return;
  chan.nack_pending_up_to = up_to;
  exec_.after(config_.nack_delay, [this, sender, is_mcast, up_to,
                                  alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired() || stopped_) return;
    InChannel& c = is_mcast ? mcast_in_[sender] : p2p_in_[sender];
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
    ++stats_.nacks_sent;
    metrics_.nacks_sent.inc();
    send_(sender, nack);
  });
}

void Member::handle_nack(net::NodeId from, const NackMsg& msg) {
  if (msg.is_mcast) {
    for (auto it = sent_mcast_.lower_bound(msg.from_seq);
         it != sent_mcast_.end() && it->first <= msg.to_seq; ++it) {
      ++stats_.retransmissions;
      metrics_.retransmissions.inc();
      send_(from, it->second);
    }
  } else {
    auto chan = sent_p2p_.find(from);
    if (chan == sent_p2p_.end()) return;
    for (auto it = chan->second.lower_bound(msg.from_seq);
         it != chan->second.end() && it->first <= msg.to_seq; ++it) {
      ++stats_.retransmissions;
      metrics_.retransmissions.inc();
      send_(from, it->second);
    }
  }
}

// ---------------------------------------------------------------------------
// Heartbeats, stability, failure detection
// ---------------------------------------------------------------------------

void Member::send_heartbeat() {
  if (!joined_ || stopped_) return;
  auto hb = std::make_shared<HeartbeatMsg>();
  hb->group = group_;
  hb->view = view_.id;
  hb->my_mcast_seq = mcast_send_seq_;
  // The maps iterate in NodeId order, so the vectors come out sorted.
  hb->my_p2p_seq.assign(p2p_send_seq_.begin(), p2p_send_seq_.end());
  // Every mcast channel's ack, plus our own stream's (0 before we deliver
  // our first multicast).
  hb->mcast_acks.reserve(mcast_in_.size() + 1);
  bool self_listed = false;
  for (const auto& [sender, chan] : mcast_in_) {
    if (!self_listed && self_ <= sender) {
      if (self_ != sender) hb->mcast_acks.emplace_back(self_, 0);
      self_listed = true;
    }
    hb->mcast_acks.emplace_back(sender, chan.delivered);
  }
  if (!self_listed) hb->mcast_acks.emplace_back(self_, 0);
  hb->p2p_acks.reserve(p2p_in_.size());
  for (const auto& [sender, chan] : p2p_in_) {
    hb->p2p_acks.emplace_back(sender, chan.delivered);
  }
  for (const net::NodeId dest : view_.members) {
    if (dest != self_) send_(dest, hb);
  }
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

void Member::handle_heartbeat(net::NodeId from, const HeartbeatMsg& msg) {
  // Stability bookkeeping.
  acks_.set_row(from, msg.mcast_acks);
  collect_stability();

  // Garbage-collect the p2p send buffer towards `from`.
  if (const std::uint64_t* ack = net::find_node(msg.p2p_acks, self_)) {
    if (auto chan = sent_p2p_.find(from); chan != sent_p2p_.end()) {
      erase_up_to(chan->second, *ack);
    }
  }

  // Loss detection on the mcast stream of `from`: anything between our
  // contiguous high-water mark and the sender's announced seq might be a
  // gap (trailing or interior) worth NACKing.
  {
    InChannel& chan = mcast_in_[from];
    if (msg.my_mcast_seq > chan.delivered) {
      schedule_nack_check(from, /*is_mcast=*/true, msg.my_mcast_seq);
    }
  }
  // Same for the from->me p2p channel.
  if (const std::uint64_t* sent = net::find_node(msg.my_p2p_seq, self_)) {
    InChannel& chan = p2p_in_[from];
    if (*sent > chan.delivered) {
      schedule_nack_check(from, /*is_mcast=*/false, *sent);
    }
  }
}

void Member::collect_stability() {
  if (!joined_) return;
  // A multicast (sender, seq) is stable once every current-view member has
  // delivered it; stable copies can be dropped from retained logs and from
  // the sender's own buffer. The per-sender minima are maintained by acks_,
  // so this is one lookup and one front-of-buffer compare per sender; only
  // a buffer whose oldest copy became stable is trimmed.
  for (auto& [sender, chan] : mcast_in_) {
    if (!chan.retained.empty()) erase_up_to(chan.retained, acks_.stable(sender));
  }
  if (!sent_mcast_.empty()) erase_up_to(sent_mcast_, acks_.stable(self_));
}

void Member::fd_tick() {
  if (!joined_ || stopped_) return;
  const sim::TimePoint now = exec_.now();
  for (const net::NodeId m : view_.members) {
    if (m == self_) continue;
    auto it = last_heard_.find(m);
    const sim::TimePoint heard = it == last_heard_.end() ? sim::kEpoch : it->second;
    if (now - heard > config_.suspect_timeout) suspect(m);
  }
}

void Member::suspect(net::NodeId node) {
  if (node == self_ || !view_.contains(node)) return;
  if (!suspects_.insert(node).second) return;  // already suspected
  const net::NodeId coordinator = acting_coordinator();
  if (coordinator == self_) {
    start_view_change();
  } else {
    auto msg = std::make_shared<SuspectMsg>();
    msg->group = group_;
    msg->suspect = node;
    send_control(coordinator, msg);
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
  for (const auto& [sender, chan] : mcast_in_) sizes.retained += chan.retained.size();
  sizes.sent = sent_mcast_.size();
  return sizes;
}

// ---------------------------------------------------------------------------
// Membership coordination (view changes with virtually synchronous flush)
// ---------------------------------------------------------------------------

void Member::handle_join(net::NodeId from) {
  if (!joined_) return;
  if (view_.contains(from)) {
    // Already admitted — its install was probably lost; re-send it.
    if (last_install_ && last_install_->view.id == view_.id) {
      send_(from, last_install_);
    }
    return;
  }
  pending_joiners_.insert(from);
  if (acting_coordinator() == self_) start_view_change();
}

void Member::handle_leave(net::NodeId from) {
  if (!joined_ || !view_.contains(from)) return;
  pending_leavers_.insert(from);
  if (acting_coordinator() == self_) start_view_change();
}

void Member::handle_suspect(net::NodeId /*from*/, const SuspectMsg& msg) {
  if (!joined_) return;
  suspect(msg.suspect);
}

void Member::start_view_change() {
  if (!joined_ || stopped_) return;
  if (acting_coordinator() != self_) return;
  if (coordinating_) {
    rerun_change_after_install_ = true;
    return;
  }

  // New membership: survivors in old order, then joiners in id order.
  std::vector<net::NodeId> members;
  for (const net::NodeId m : view_.members) {
    if (!suspects_.contains(m) && !pending_leavers_.contains(m)) {
      members.push_back(m);
    }
  }
  std::vector<net::NodeId> joiners(pending_joiners_.begin(), pending_joiners_.end());
  for (const net::NodeId j : joiners) {
    if (std::find(members.begin(), members.end(), j) == members.end()) {
      members.push_back(j);
    }
  }
  if (members == view_.members) {
    pending_joiners_.clear();
    return;  // nothing to change
  }

  my_proposal_ = std::max(last_proposal_seen_, view_.id) + 1;
  last_proposal_seen_ = my_proposal_;
  coordinating_ = true;
  proposed_members_ = std::move(members);
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
  propose->members = proposed_members_;
  for (const net::NodeId m : flush_waiting_) send_control(m, propose);

  exec_.cancel(flush_timeout_);
  flush_timeout_ = exec_.after(config_.flush_timeout, [this] {
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
  for (const auto& [sender, chan] : mcast_in_) {
    flush->delivered[sender] = chan.delivered;
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
  send_control(from, build_flush(msg.proposal));
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
  install->proposal = my_proposal_;
  install->view = View{group_, my_proposal_, proposed_members_};

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
  std::set<net::NodeId> recipients(proposed_members_.begin(), proposed_members_.end());
  for (const auto& [member, flush] : flush_replies_) recipients.insert(member);
  for (const net::NodeId m : recipients) {
    if (m == self_) continue;
    if (view_.contains(m)) {
      send_control(m, install);
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
  if (stopped_) return;
  if (msg->view.id <= view_.id) return;  // stale or duplicate install
  install_view(msg);
}

void Member::install_view(const std::shared_ptr<const InstallMsg>& msg) {
  const bool fresh_joiner = !joined_;

  if (fresh_joiner) {
    // A joiner has no history: it starts at the cut without delivering the
    // old view's messages (application-level state transfer brings it up to
    // date — see the replication layer).
    for (const auto& [sender, target] : msg->deliver_up_to) {
      InChannel& chan = mcast_in_[sender];
      chan.delivered = std::max(chan.delivered, target);
      std::erase_if(chan.buffered,
                    [&](const auto& kv) { return kv.first <= chan.delivered; });
      acks_.set_cell(self_, sender, chan.delivered);
    }
    // Messages multicast in the *new* view can race ahead of this install;
    // drain anything that became contiguous once the baseline was set.
    // (Collect the senders first: delivery can mutate the channel map.)
    std::vector<net::NodeId> senders;
    senders.reserve(mcast_in_.size());
    for (const auto& [sender, chan] : mcast_in_) senders.push_back(sender);
    for (const net::NodeId sender : senders) {
      deliver_ready(sender, /*is_mcast=*/true);
      if (stopped_) return;
    }
  } else {
    // Surviving member: complete delivery up to the agreed cut.
    for (const DataMsgPtr& m : msg->resolution) {
      InChannel& chan = mcast_in_[m->sender];
      if (m->seq > chan.delivered && !chan.buffered.contains(m->seq)) {
        chan.buffered.emplace(m->seq, m);
      }
    }
    for (const auto& [sender, target] : msg->deliver_up_to) {
      mcast_in_[sender];  // the cut can reference senders we never heard
      deliver_ready(sender, /*is_mcast=*/true);
      if (stopped_) return;
      while (true) {
        auto cit = mcast_in_.find(sender);
        if (cit == mcast_in_.end() || cit->second.delivered >= target) break;
        // Gap that no survivor can fill: the only holders crashed. Count it
        // and move on (allowed for a crashed sender's unstable messages).
        ++stats_.flush_gaps;
        metrics_.flush_gaps.inc();
        cit->second.delivered += 1;
        acks_.set_cell(self_, sender, cit->second.delivered);
        deliver_ready(sender, /*is_mcast=*/true);
        if (stopped_) return;
      }
    }
  }

  view_ = msg->view;
  last_proposal_seen_ = std::max(last_proposal_seen_, view_.id);
  blocked_ = false;
  ++stats_.view_changes;
  metrics_.view_changes.inc();

  if (!view_.contains(self_)) {
    // We left (or were excluded): shut down cleanly. An exclusion install
    // only reaches a member that is still running and reachable — i.e. the
    // group's failure detector ejected a live process (gray failure: slow
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
  for (auto it = suspects_.begin(); it != suspects_.end();) {
    it = view_.contains(*it) ? std::next(it) : suspects_.erase(it);
  }
  std::erase_if(pending_joiners_,
                [&](net::NodeId n) { return view_.contains(n); });
  std::erase_if(pending_leavers_,
                [&](net::NodeId n) { return !view_.contains(n); });
  acks_.set_view(view_.members, self_);
  std::erase_if(sent_p2p_,
                [&](const auto& kv) { return !view_.contains(kv.first); });
  // Garbage-collect per-sender state of departed members. NodeIds are
  // never reused (a recovered process reincarnates under a fresh id), so
  // an ex-member's channels and failure-detector timestamps can never be
  // consulted again — without this, every crash/leave leaks its channel
  // buffers and `last_heard_` entry for the lifetime of the member.
  std::erase_if(last_heard_,
                [&](const auto& kv) { return !view_.contains(kv.first); });
  std::erase_if(mcast_in_,
                [&](const auto& kv) { return !view_.contains(kv.first); });
  std::erase_if(p2p_in_,
                [&](const auto& kv) { return !view_.contains(kv.first); });
  for (const net::NodeId m : view_.members) last_heard_[m] = exec_.now();

  heartbeat_task_->start();
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
      (!pending_joiners_.empty() || !pending_leavers_.empty() ||
       std::any_of(view_.members.begin(), view_.members.end(),
                   [&](net::NodeId m) { return suspects_.contains(m); }))) {
    start_view_change();
  }
}

}  // namespace aqueduct::gcs
