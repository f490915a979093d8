#include "rgb/network_entity.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/log.hpp"
#include "wire/snapshot.hpp"

namespace rgb::core {

namespace {
/// Debounce between a reconcile trigger (merge/reform completion, shape
/// adoption, recovery) and the claim exchange, letting the trigger's entry
/// imports land first so claims are checked against the merged table.
constexpr sim::Duration kReconcileDelay = sim::msec(100);

/// Debounce for the snapshot flush: a dirty NE pushes its snapshot after
/// this long with no further table change. Arrivals during a surge keep
/// pushing the timer back, so a 20k-member join phase ships one snapshot
/// per edge instead of 20k notifications. The window must exceed the
/// inter-round gaps of a sustained surge (rounds aggregate a few ms of
/// arrivals each), otherwise mid-surge gaps leak partial snapshots; it is
/// also the per-tier latency a change pays to reach the bottom in this
/// mode, so it trades bulk efficiency against freshness.
constexpr sim::Duration kSnapshotFlushQuiet = sim::msec(50);

/// Alerts from this many distinct observers fire a stability cut early,
/// before the aggregation window closes. Clamped to the feasible observer
/// count at use, so degenerate rings (2 survivors) still converge.
constexpr int kStabilityK = 2;

/// Deterministic leadership rule after failures: the lowest NodeId among
/// alive roster members. Every node evaluates the same rule on the same
/// (eventually consistent) roster, so leadership converges without an
/// election protocol.
NodeId elect_leader(const std::vector<NodeId>& roster) {
  NodeId best;
  for (const NodeId n : roster) {
    if (!best.valid() || n < best) best = n;
  }
  return best;
}
}  // namespace

NetworkEntity::NetworkEntity(NodeId id, NeRole role, int tier,
                             net::Network& network, const RgbConfig& config,
                             RgbMetrics& metrics, obs::ProtocolObs& obs)
    : proto::Process(id, network),
      role_(role),
      tier_(tier),
      config_(config),
      metrics_(metrics),
      obs_(obs),
      dir_(config.aggregate_mq) {}

void NetworkEntity::note_group_count() {
  const std::size_t count = dir_.group_count();
  if (count > known_group_count_) {
    metrics_.groups_created.increment(count - known_group_count_);
    known_group_count_ = count;
  }
}

// --------------------------------------------------------------------------
// Wiring
// --------------------------------------------------------------------------

void NetworkEntity::remember_peer(NodeId n) {
  if (known_peers_set_.insert(n).second) known_peers_.push_back(n);
}

void NetworkEntity::rebuild_roster_index() {
  roster_set_.clear();
  roster_set_.insert(roster_.begin(), roster_.end());
}

void NetworkEntity::configure_ring(std::vector<NodeId> roster,
                                   NodeId leader) {
  assert(std::find(roster.begin(), roster.end(), id()) != roster.end());
  assert(std::find(roster.begin(), roster.end(), leader) != roster.end());
  roster_ = std::move(roster);
  rebuild_roster_index();
  for (const NodeId n : roster_) remember_peer(n);
  leader_ = leader;
  suspected_faulty_.clear();
  recompute_pointers();
  ring_ok_ = true;
  token_free_ = is_leader();
}

void NetworkEntity::set_parent(NodeId parent) {
  parent_ = parent;
  parent_ok_ = parent_.valid();
}

void NetworkEntity::set_child(NodeId child_ring_leader) {
  child_ = child_ring_leader;
  child_ok_ = child_.valid();
}

void NetworkEntity::start_probing() {
  if (config_.probe_period == 0 || probe_timer_) return;
  probe_timer_ = std::make_unique<proto::PeriodicTimer>(
      network(), id(), config_.probe_period, [this]() { on_probe_tick(); });
  probe_timer_->start();
}

void NetworkEntity::recompute_pointers() {
  const auto it = std::find(roster_.begin(), roster_.end(), id());
  if (it == roster_.end() || roster_.size() == 1) {
    next_ = id();
    previous_ = id();
    return;
  }
  const std::size_t i =
      static_cast<std::size_t>(std::distance(roster_.begin(), it));
  next_ = roster_[(i + 1) % roster_.size()];
  previous_ = roster_[(i + roster_.size() - 1) % roster_.size()];
}

// --------------------------------------------------------------------------
// Sequence generators
// --------------------------------------------------------------------------

std::uint64_t NetworkEntity::next_op_seq() {
  // Time-major sequence: later ops (anywhere in the hierarchy) get larger
  // sequence numbers, which is what MemberTable's monotone apply relies on
  // to order handoff chains across different APs. The low 16 bits break
  // same-microsecond ties between NEs.
  const std::uint64_t base = (now() << 16) | (id().value() & 0xFFFFULL);
  op_seq_counter_ = std::max(op_seq_counter_ + 1, base);
  return op_seq_counter_;
}

std::uint64_t NetworkEntity::next_op_uid() {
  // Globally unique by construction: origin NE id in the high bits, a
  // per-node counter in the low 24 (16M ops per NE before wrap).
  return (id().value() << 24) | (++op_uid_counter_ & 0xFFFFFFULL);
}

std::uint64_t NetworkEntity::next_round_id() {
  return (id().value() << 24) | ++round_counter_;
}

std::uint64_t NetworkEntity::next_notify_id() {
  return (id().value() << 24) | ++notify_counter_;
}

// --------------------------------------------------------------------------
// Local membership events (the AP edge)
// --------------------------------------------------------------------------

void NetworkEntity::local_member_join(GroupId gid, Guid mh) {
  MembershipOp op;
  op.kind = OpKind::kMemberJoin;
  op.seq = next_op_seq();
  op.uid = next_op_uid();
  op.claim_seq = op.seq;  // a physical join starts a new attachment epoch
  op.gid = gid;
  op.member = MemberRecord{mh, id(), MemberStatus::kOperational};
  set_claim(mh, gid, op.claim_seq);
  enqueue_local_op(std::move(op));
}

std::uint64_t NetworkEntity::set_claim(Guid mh, GroupId gid,
                                       std::uint64_t claim_seq) {
  std::uint64_t previous = 0;
  if (claim_seq != 0) {
    previous = std::exchange(local_attached_[mh][gid], claim_seq);
  } else {
    const auto it = local_attached_.find(mh);
    if (it == local_attached_.end()) return 0;
    const auto git = it->second.find(gid);
    if (git == it->second.end()) return 0;
    previous = git->second;
    it->second.erase(git);
    if (it->second.empty()) local_attached_.erase(it);
  }
  reaffirm_due_ = true;
  return previous;
}

std::uint64_t NetworkEntity::take_local_claim(GroupId gid, Guid mh) {
  // The epoch a departure op ends: our own attachment claim when we hold
  // one (erased — the member is no longer ours in this group), else
  // whatever epoch the group's table reflects (a departure injected for a
  // member we never claimed).
  const std::uint64_t claim = set_claim(mh, gid, 0);
  return claim != 0 ? claim : dir_.claim_of(gid, mh);
}

void NetworkEntity::local_member_leave(GroupId gid, Guid mh) {
  MembershipOp op;
  op.kind = OpKind::kMemberLeave;
  op.seq = next_op_seq();
  op.uid = next_op_uid();
  op.claim_seq = take_local_claim(gid, mh);
  op.gid = gid;
  op.member = MemberRecord{mh, id(), MemberStatus::kDisconnected};
  enqueue_local_op(std::move(op));
}

void NetworkEntity::local_member_handoff_in(GroupId gid, Guid mh,
                                            NodeId old_ap) {
  MembershipOp op;
  op.kind = OpKind::kMemberHandoff;
  op.seq = next_op_seq();
  op.uid = next_op_uid();
  op.claim_seq = op.seq;  // a handoff-in starts a new attachment epoch
  op.gid = gid;
  op.member = MemberRecord{mh, id(), MemberStatus::kOperational};
  op.old_ap = old_ap;
  set_claim(mh, gid, op.claim_seq);
  enqueue_local_op(std::move(op));
}

void NetworkEntity::local_member_fail(GroupId gid, Guid mh) {
  MembershipOp op;
  op.kind = OpKind::kMemberFail;
  op.seq = next_op_seq();
  op.uid = next_op_uid();
  op.claim_seq = take_local_claim(gid, mh);
  op.gid = gid;
  op.member = MemberRecord{mh, id(), MemberStatus::kFailed};
  enqueue_local_op(std::move(op));
}

void NetworkEntity::reannounce_member(GroupId gid, Guid mh,
                                      std::uint64_t claim_seq) {
  // Re-anchors an existing attachment epoch with a fresh op sequence: the
  // fresh seq out-ranks the false record *within* the epoch, while the
  // preserved claim_seq keeps the assertion strictly below any newer
  // physical attachment (a handoff the accusation raced with) in
  // record_precedes order. Deliberately does NOT touch local_attached_ —
  // a repair is not a new physical attachment.
  MembershipOp op;
  op.kind = OpKind::kMemberJoin;
  op.seq = next_op_seq();
  op.uid = next_op_uid();
  op.claim_seq = claim_seq;
  op.gid = gid;
  op.member = MemberRecord{mh, id(), MemberStatus::kOperational};
  enqueue_local_op(std::move(op));
}

void NetworkEntity::enqueue_local_op(MembershipOp op) {
  // Single funnel for locally-originated ops: the birth stamp anchors the
  // dissemination/join latency instruments downstream. The send chain the
  // enqueue triggers (token request/grant, the token hop itself) executes
  // under the birth's causal context so its hops inherit the op's trace.
  op.born = now();
  const obs::SpanRecorder::Scope scope{
      obs_.spans, obs_.tracer.on_op_born(op, id(), now())};
  enqueue_op(std::move(op), Contributor{});
}

void NetworkEntity::enqueue_local_ops(std::vector<MembershipOp> ops) {
  if (ops.empty()) return;
  const std::uint64_t collapsed_before = dir_.ops_collapsed();
  // A batch triggers one shared send chain; its hops are attributed to the
  // first op's trace (each op still gets its own root span).
  obs::SpanRecorder::Context birth = obs_.spans.current();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].born = now();
    const obs::SpanRecorder::Context ctx =
        obs_.tracer.on_op_born(ops[i], id(), now());
    if (i == 0) birth = ctx;
  }
  const obs::SpanRecorder::Scope scope{obs_.spans, birth};
  dir_.insert_batch(std::move(ops));
  note_group_count();
  metrics_.ops_aggregated.increment(dir_.ops_collapsed() - collapsed_before);
  for (const Contributor& orphan : dir_.take_orphaned_acks()) {
    HolderAckMsg ack{{orphan.notify_id}};
    const auto bytes = wire_size(ack);
    send(orphan.ne, kind::kHolderAck, std::move(ack), bytes);
    metrics_.holder_acks.increment();
  }
  // One activity kick for the whole batch: at a leader with a free token
  // the per-op path would race the first op out in its own round while the
  // rest of the batch was still being inserted.
  on_mq_activity();
}

void NetworkEntity::enqueue_op(MembershipOp op, Contributor contributor) {
  const std::uint64_t collapsed_before = dir_.ops_collapsed();
  dir_.insert(std::move(op), contributor);
  note_group_count();
  metrics_.ops_aggregated.increment(dir_.ops_collapsed() - collapsed_before);
  // Ops cancelled by aggregation still owe their contributors an ack.
  for (const Contributor& orphan : dir_.take_orphaned_acks()) {
    HolderAckMsg ack{{orphan.notify_id}};
    const auto bytes = wire_size(ack);
    send(orphan.ne, kind::kHolderAck, std::move(ack), bytes);
    metrics_.holder_acks.increment();
  }
  on_mq_activity();
}

// --------------------------------------------------------------------------
// Round engine
// --------------------------------------------------------------------------

void NetworkEntity::on_mq_activity() {
  if (dir_.queue_empty() || holding_round_) return;
  if (!leader_.valid()) return;  // not in a ring yet
  if (is_leader()) {
    if (token_free_) {
      token_free_ = false;
      active_round_id_ = next_round_id();
      start_round(active_round_id_);
    } else if (std::find(pending_grants_.begin(), pending_grants_.end(),
                         id()) == pending_grants_.end()) {
      // The token is out with a peer: queue *ourselves* for a grant like
      // any requester, so the leader's own MQ competes FIFO-fairly with
      // the peers'. Relying on "the running round's completion re-checks
      // our MQ" is not enough — under a sustained surge pending_grants_
      // never empties, and grant_next only starts the leader's round once
      // it does. That starvation held inter-ring notifications (which
      // enter a ring *via its leader's MQ*) hostage for the whole surge;
      // past the notify-retx budget (~6s) the sender declared the edge
      // down and every later change stopped crossing it — the join-surge
      // view-divergence open item at 20k members (and, reported upward,
      // silent top-ring gaps).
      pending_grants_.push_back(id());
    }
  } else {
    request_token();
  }
}

void NetworkEntity::request_token() {
  if (token_requested_) return;
  token_requested_ = true;
  request_retx_count_ = 0;
  send_token_request();
}

void NetworkEntity::send_token_request() {
  if (!leader_.valid()) {
    token_requested_ = false;
    return;
  }
  RGB_LOG(kDebug, "grant") << now() << " " << id() << " requests token from "
                           << leader_ << " retx=" << request_retx_count_;
  last_request_activity_ = now();
  send(leader_, kind::kTokenRequest, TokenRequestMsg{id(), false});
  request_retx_timer_ = set_timer(config_.round_timeout, [this]() {
    if (!token_requested_) return;
    if (++request_retx_count_ <= config_.max_retx) {
      send_token_request();
    } else {
      // The leader is unresponsive: declare it faulty and fail over (or,
      // under the stability layer, file an alert and let the cut/fallback
      // machinery decide). Our queued ops go out once the repaired ring
      // grants us the token.
      token_requested_ = false;
      if (leader_.valid() && leader_ != id()) {
        report_suspect(leader_);
      }
      on_mq_activity();
    }
  });
}

void NetworkEntity::handle_token_request(const TokenRequestMsg& msg,
                                         NodeId from) {
  if (!is_leader()) {
    if (msg.leadership_claim && elect_leader(roster_) == id()) {
      adopt_leadership();
    } else if (leader_.valid() && leader_ != from && leader_ != id()) {
      // Stale leader pointer at the requester: relay to the real leader.
      send(leader_, kind::kTokenRequest, msg);
      return;
    } else {
      return;
    }
  }
  RGB_LOG(kDebug, "grant") << now() << " " << id() << " token request from "
                           << msg.requester << " free=" << token_free_
                           << " holding=" << holding_round_
                           << " active=" << active_round_id_;
  if (token_free_) {
    token_free_ = false;
    active_round_id_ = next_round_id();
    send(msg.requester, kind::kTokenGrant, TokenGrantMsg{active_round_id_});
    arm_round_watchdog(active_round_id_);
  } else {
    if (std::find(pending_grants_.begin(), pending_grants_.end(),
                  msg.requester) == pending_grants_.end()) {
      pending_grants_.push_back(msg.requester);
    }
  }
}

void NetworkEntity::handle_token_grant(const TokenGrantMsg& msg) {
  cancel_timer(request_retx_timer_);
  token_requested_ = false;
  if (dir_.queue_empty()) {
    // Nothing left to send (aggregation may have cancelled everything).
    send(leader_, kind::kTokenRelease, TokenReleaseMsg{msg.round_id});
    return;
  }
  start_round(msg.round_id);
}

void NetworkEntity::handle_token_release(const TokenReleaseMsg& msg,
                                         NodeId /*from*/) {
  if (!is_leader()) return;
  if (token_free_ || msg.round_id != active_round_id_) return;
  cancel_timer(round_watchdog_);
  token_free_ = true;
  grant_next();
}

void NetworkEntity::start_round(std::uint64_t round_id) {
  MessageQueue::Batch batch = dir_.drain();
  if (batch.empty()) {
    if (is_leader()) {
      token_free_ = true;
      grant_next();
    } else {
      send(leader_, kind::kTokenRelease, TokenReleaseMsg{round_id});
    }
    return;
  }
  holding_round_ = true;
  my_round_id_ = round_id;
  round_contributors_ = std::move(batch.contributors);

  Token token;
  token.gid = config_.gid;
  token.holder = id();
  token.round_id = round_id;
  token.ops = std::move(batch.ops);

  metrics_.rounds_started.increment();
  obs_.flight.record(now(), id(), obs::FlightKind::kRoundStarted,
                     token.round_id, token.ops.size());
  remember_round(token.round_id);
  apply_ops_and_notify(token);
  remember_disseminated(token.ops);

  if (next_ == id()) {
    complete_round(token);
  } else {
    pending_round_ops_ = token.ops;
    arm_holder_watchdog(round_id);
    send_token_to(next_, std::move(token));
  }
}

void NetworkEntity::arm_holder_watchdog(std::uint64_t round_id) {
  cancel_timer(holder_watchdog_);
  // Generous bound: per-hop loss is already covered by the retx scheme, so
  // only a token lost *with* a crashing node (its timers die with it)
  // reaches this. Budget a full retx cycle per ring hop.
  const sim::Duration budget =
      config_.round_timeout +
      config_.retx_timeout * static_cast<std::uint64_t>(config_.max_retx + 1) *
          std::max<std::uint64_t>(roster_.size(), 1);
  holder_watchdog_ = set_timer(budget, [this, round_id]() {
    abandon_round(round_id);
  });
}

void NetworkEntity::abandon_round(std::uint64_t round_id) {
  if (!holding_round_ || my_round_id_ != round_id) return;
  RGB_LOG(kWarn, "watchdog")
      << id() << " abandons lost round " << round_id
      << " and requeues its " << pending_round_ops_.size() << " op(s)";
  holding_round_ = false;
  // Un-ack'd contributors keep retransmitting their notifications, so only
  // the ops themselves need to re-enter the queue. Dissemination dedup and
  // the seq-idempotent table apply make the replay harmless where the lost
  // token did land.
  round_contributors_.clear();
  std::vector<MembershipOp> replay = std::move(pending_round_ops_);
  pending_round_ops_.clear();
  if (is_leader()) {
    token_free_ = true;
  }
  for (MembershipOp& op : replay) {
    enqueue_op(std::move(op), Contributor{});
  }
  if (is_leader()) {
    grant_next();
  }
  on_mq_activity();
}

void NetworkEntity::start_probe_round() {
  if (!is_leader() || !token_free_ || roster_.size() < 2) return;
  token_free_ = false;
  active_round_id_ = next_round_id();
  holding_round_ = true;
  my_round_id_ = active_round_id_;
  round_contributors_.clear();

  Token token;
  token.gid = config_.gid;
  token.holder = id();
  token.round_id = my_round_id_;

  remember_round(token.round_id);
  ring_ok_ = true;
  pending_round_ops_.clear();
  arm_holder_watchdog(my_round_id_);
  send_token_to(next_, std::move(token));
}

void NetworkEntity::handle_token(TokenMsg msg, NodeId from) {
  idle_probe_ticks_ = 0;  // ring traffic: the leader is evidently alive
  // Per-hop receipt ack: the sender's retransmission scheme (the paper's
  // single-fault detector) stops as soon as this arrives.
  send(from, kind::kTokenPassAck, TokenPassAckMsg{msg.token.round_id});

  if (!leader_.valid()) {
    // Not configured (yet): a fresh joiner can see the admitting round's
    // token before its RingReform. Hold the newest token; the reform
    // replays it.
    stashed_token_ = std::move(msg);
    stashed_from_ = from;
    return;
  }

  Token& token = msg.token;

  if (token.holder == id()) {
    if (holding_round_ && token.round_id == my_round_id_) {
      complete_round(token);
    }
    // Otherwise: a stale or duplicated completion — the ack above already
    // silenced the sender; nothing else to do.
    return;
  }

  if (recent_rounds_.count(token.round_id) != 0) {
    // Duplicate delivery (our TokenPassAck was lost and the hop was
    // retransmitted). We already applied and forwarded this round.
    return;
  }
  remember_round(token.round_id);

  apply_ops_and_notify(token);
  remember_disseminated(token.ops);

  if (next_ == id()) {
    // Degenerate repaired ring: we are alone; the round cannot get back to
    // its holder. Adopt and complete it here.
    token.holder = id();
    holding_round_ = true;
    my_round_id_ = token.round_id;
    complete_round(token);
    return;
  }
  send_token_to(next_, std::move(token));
}

void NetworkEntity::apply_ops_and_notify(const Token& token) {
  for (const MembershipOp& op : token.ops) {
    if (op.is_member_op()) {
      if (dir_.apply(op)) {
        metrics_.ops_disseminated.increment();
        obs_.tracer.on_op_applied(op, id(), tier_, now());
      }
      // A handoff away from this AP is authoritative departure evidence:
      // without it, a racing (false) failure record could hide the
      // member's new attachment and trick reaffirmation into re-claiming
      // a member that physically moved. Keyed per (member, group) — the
      // member moved in THAT group only — and guarded by the claim epoch:
      // a stale handoff-away replayed after the member re-attached here
      // must not drop the newer claim.
      if (op.kind == OpKind::kMemberHandoff && op.old_ap == id()) {
        const auto it = local_attached_.find(op.member.guid);
        if (it != local_attached_.end()) {
          const auto git = it->second.find(op.gid);
          if (git != it->second.end() && git->second < op.claim_seq) {
            set_claim(op.member.guid, op.gid, 0);
          }
        }
      }
    } else {
      apply_ne_op(op);
    }
  }
  note_group_count();
  ring_ok_ = true;

  // Figure 3 lines 10-16: notifications fire while the token visits us.
  if (is_leader() && parent_.valid() && parent_ok_ &&
      tier_ > config_.retain_tier) {
    std::vector<MembershipOp> up;
    for (const MembershipOp& op : token.ops) {
      if (op.is_member_op() && op.from_parent_of != id()) up.push_back(op);
    }
    if (!up.empty()) send_notify(parent_, std::move(up), /*downward=*/false);
  }
  if (child_.valid() && child_ok_ && config_.disseminate_down) {
    if (config_.snapshot_join) {
      // Snapshot bulk-join mode: no per-op fan-out towards the child ring
      // (and none of the token rounds it would trigger there). The child
      // edge is owed a debounced framed snapshot instead; during a join
      // surge the repeated marking keeps pushing the flush out, so the
      // whole surge condenses into one state transfer per edge.
      for (const MembershipOp& op : token.ops) {
        if (op.is_member_op() && op.from_child_of != id()) {
          schedule_snapshot_flush(/*to_ring=*/false, /*to_child=*/true);
          break;
        }
      }
    } else {
      std::vector<MembershipOp> down;
      for (const MembershipOp& op : token.ops) {
        if (op.is_member_op() && op.from_child_of != id()) down.push_back(op);
      }
      if (!down.empty()) {
        send_notify(child_, std::move(down), /*downward=*/true);
      }
    }
  }
}

void NetworkEntity::complete_round(const Token& token) {
  holding_round_ = false;
  cancel_timer(holder_watchdog_);
  pending_round_ops_.clear();

  // Figure 3 lines 17-20: Holder-Acknowledgement to every NE whose
  // notification rode this round.
  std::unordered_map<NodeId, std::vector<std::uint64_t>> acks;
  for (const Contributor& c : round_contributors_) {
    acks[c.ne].push_back(c.notify_id);
  }
  for (auto& [ne, ids] : acks) {
    HolderAckMsg ack{std::move(ids)};
    const auto bytes = wire_size(ack);
    send(ne, kind::kHolderAck, std::move(ack), bytes);
    metrics_.holder_acks.increment();
  }
  round_contributors_.clear();

  if (token.ops.empty()) {
    metrics_.empty_probe_rounds.increment();
  } else {
    metrics_.rounds_completed.increment();
    obs_.flight.record(now(), id(), obs::FlightKind::kRoundCompleted,
                       token.round_id, token.ops.size());
  }

  if (is_leader()) {
    cancel_timer(round_watchdog_);
    token_free_ = true;
    grant_next();
  } else {
    send(leader_, kind::kTokenRelease, TokenReleaseMsg{token.round_id});
  }
  // New ops may have queued while the round circulated.
  on_mq_activity();
}

void NetworkEntity::grant_next() {
  while (token_free_ && !pending_grants_.empty()) {
    const NodeId grantee = pending_grants_.front();
    pending_grants_.pop_front();
    if (grantee == id()) {
      if (!dir_.queue_empty()) {
        token_free_ = false;
        active_round_id_ = next_round_id();
        start_round(active_round_id_);
      }
      continue;
    }
    token_free_ = false;
    active_round_id_ = next_round_id();
    send(grantee, kind::kTokenGrant, TokenGrantMsg{active_round_id_});
    arm_round_watchdog(active_round_id_);
  }
  if (token_free_ && !dir_.queue_empty() && !holding_round_) {
    token_free_ = false;
    active_round_id_ = next_round_id();
    start_round(active_round_id_);
  }
}

void NetworkEntity::arm_round_watchdog(std::uint64_t round_id) {
  cancel_timer(round_watchdog_);
  round_watchdog_ = set_timer(config_.round_timeout, [this, round_id]() {
    if (token_free_ || active_round_id_ != round_id) return;
    // The granted round never released: holder presumed dead. Reclaim; the
    // contributors of the lost round will retransmit their notifications.
    RGB_LOG(kWarn, "watchdog")
        << id() << " reclaims the token from an unresponsive holder";
    token_free_ = true;
    grant_next();
  });
}

// --------------------------------------------------------------------------
// Reliable token pass
// --------------------------------------------------------------------------

void NetworkEntity::send_token_to(NodeId target, Token token) {
  const net::MessageKind kind =
      token.ops.empty() ? kind::kProbe : kind::kToken;
  const std::uint64_t round_id = token.round_id;
  TokenMsg msg{token};
  const auto bytes = wire_size(msg);
  send(target, kind, std::move(msg), bytes);
  InflightHop hop;
  hop.token = std::move(token);
  hop.target = target;
  hop.timer = set_timer(config_.retx_timeout, [this, round_id]() {
    on_token_retx_timeout(round_id);
  });
  inflight_hops_[round_id] = std::move(hop);
}

void NetworkEntity::handle_token_pass_ack(const TokenPassAckMsg& msg) {
  const auto it = inflight_hops_.find(msg.round_id);
  if (it == inflight_hops_.end()) return;
  cancel_timer(it->second.timer);
  inflight_hops_.erase(it);
}

void NetworkEntity::on_token_retx_timeout(std::uint64_t round_id) {
  const auto it = inflight_hops_.find(round_id);
  if (it == inflight_hops_.end()) return;
  InflightHop& hop = it->second;
  if (++hop.retx <= config_.max_retx) {
    metrics_.token_retransmits.increment();
    obs_.flight.record(now(), id(), obs::FlightKind::kTokenRetx, round_id,
                       static_cast<std::uint64_t>(hop.retx));
    const net::MessageKind kind =
        hop.token.ops.empty() ? kind::kProbe : kind::kToken;
    TokenMsg msg{hop.token};
    const auto bytes = wire_size(msg);
    send(hop.target, kind, std::move(msg), bytes);
    hop.timer = set_timer(config_.retx_timeout, [this, round_id]() {
      on_token_retx_timeout(round_id);
    });
    return;
  }
  if (config_.stability && in_roster(hop.target) && hop.target != id()) {
    // Stability: file an alert and keep the hop alive at retx cadence.
    // Whatever resolves the suspect — a batched cut, a RepairMsg from a
    // peer, or this observer's own stability-timeout fallback — removes it
    // from the roster, and the next timeout falls through to the repair
    // and reroute below. Liveness stays bounded by stability_timeout.
    const NodeId suspect = hop.target;
    report_suspect(suspect);
    // At an aggregating leader the alert can complete a cut on the spot;
    // the cut then rerouted this hop and erased the entry `hop` refers to.
    const auto live = inflight_hops_.find(round_id);
    if (live == inflight_hops_.end() || live->second.target != suspect) {
      return;
    }
    InflightHop& pending = live->second;
    metrics_.token_retransmits.increment();
    const net::MessageKind kind =
        pending.token.ops.empty() ? kind::kProbe : kind::kToken;
    TokenMsg msg{pending.token};
    const auto bytes = wire_size(msg);
    send(pending.target, kind, std::move(msg), bytes);
    pending.timer = set_timer(config_.retx_timeout, [this, round_id]() {
      on_token_retx_timeout(round_id);
    });
    return;
  }
  declare_faulty_and_repair(hop.target);
  // The repair normally reroutes this hop. When it could not — the target
  // was already spliced out by an earlier repair or reform, so
  // declare_faulty_and_repair returned without touching the ring — the hop
  // must still not leak: an orphaned hop blocks its round forever, which
  // at a leader freezes the token (every later request queues unanswered
  // until the requesters falsely declare *us* faulty).
  const auto orphan = inflight_hops_.find(round_id);
  if (orphan == inflight_hops_.end()) return;
  Token token = std::move(orphan->second.token);
  cancel_timer(orphan->second.timer);
  inflight_hops_.erase(orphan);
  if (token.holder == id()) {
    holding_round_ = true;
    my_round_id_ = token.round_id;
    complete_round(token);
  } else if (next_ != id()) {
    send_token_to(next_, std::move(token));
  } else {
    send_token_to(token.holder, std::move(token));
  }
}

// --------------------------------------------------------------------------
// Repair & rosters
// --------------------------------------------------------------------------

void NetworkEntity::declare_faulty_and_repair(NodeId faulty) {
  declare_cut({faulty});
}

void NetworkEntity::declare_cut(const std::vector<NodeId>& suspects) {
  std::vector<NodeId> cut;
  for (const NodeId f : suspects) {
    if (f == id() || !f.valid()) continue;
    if (!in_roster(f)) {
      continue;  // already repaired (e.g. several hops detected it at once)
    }
    if (std::find(cut.begin(), cut.end(), f) == cut.end()) cut.push_back(f);
  }
  if (cut.empty()) return;
  metrics_.repairs.increment();
  bool was_leader = false;
  for (const NodeId faulty : cut) {
    RGB_LOG(kInfo, "repair") << now() << " " << id() << " declares " << faulty
                             << " faulty and splices it out";
    // Detection latency ground truth: how long the crash went unnoticed.
    // Read-only observability — the repair decision itself never consults
    // it.
    const auto crashed_at = network().crashed_since(faulty);
    if (crashed_at) {
      obs_.tracer.on_ne_detected(faulty, id(), now() - *crashed_at, now());
    }
    std::size_t stranded = 0;
    for (const auto& [gid, members] : dir_.grouped_members_at(faulty)) {
      stranded += members.size();
    }
    obs_.tracer.on_view_change(obs::FlightKind::kRepair, id(), faulty.value(),
                               stranded, now());
    suspected_faulty_.insert(faulty);
    was_leader = was_leader || (faulty == leader_);
    remove_from_roster(faulty);
    // The verdict is in: any pending stability evidence about this node is
    // consumed (the alert resolved) rather than left to fire again.
    stability_.forget(faulty);
    cancel_alert(faulty);
    cancel_cut_verification(faulty);
  }

  if (was_leader) {
    leader_ = elect_leader(roster_);
    metrics_.leader_failovers.increment();
    obs_.tracer.on_view_change(obs::FlightKind::kLeaderFailover, id(),
                               leader_.value(), cut.front().value(), now());
    if (leader_ == id()) adopt_leadership();
  }
  recompute_pointers();

  // Local repair notice ("local repair by excluding the faulty node from
  // the ring", Section 5.2) to every surviving ring member: rings are small
  // (the paper argues for small r), so the control cost is a handful of
  // messages, and it makes leadership convergence independent of a working
  // round — essential when a faulty node WAS the leader. One RepairMsg
  // carries the whole cut: a correlated outage costs one notice, not N.
  RepairMsg repair{id(), cut};
  const auto repair_bytes = wire_size(repair);
  const net::Payload repair_notice{std::move(repair)};
  for (const NodeId peer : roster_) {
    if (peer == id()) continue;
    send(peer, kind::kRepair, repair_notice, repair_bytes);
  }

  // Disseminate the failures as ONE batch: NE-Failure per cut node plus
  // Member-Failure for every (group, member) stranded at one, all entering
  // the directory's queues in a single flush so the entire cut — across
  // every group the crashed AP served — rides one token round.
  std::vector<MembershipOp> ops;
  for (const NodeId faulty : cut) {
    const auto crashed_at = network().crashed_since(faulty);
    MembershipOp ne_op;
    ne_op.kind = OpKind::kNeFail;
    ne_op.seq = next_op_seq();
    ne_op.uid = next_op_uid();
    ne_op.ne = faulty;
    ops.push_back(std::move(ne_op));
    std::unordered_set<Guid> detected;
    for (const auto& [gid, members] : dir_.grouped_members_at(faulty)) {
      for (const MemberRecord& rec : members) {
        // Stranded members share the NE's detection moment: declaring them
        // failed is the first point any detector could have noticed them.
        // Detection is per member, not per (group, member).
        if (crashed_at && detected.insert(rec.guid).second) {
          obs_.tracer.on_member_detected(rec.guid, id(), now() - *crashed_at,
                                         now());
        }
        MembershipOp m_op;
        m_op.kind = OpKind::kMemberFail;
        m_op.seq = next_op_seq();
        m_op.uid = next_op_uid();
        // A detector-inferred failure ends only the epoch it observed: if
        // the member has since re-attached elsewhere (a handoff this
        // accusation races with across a partition), the newer epoch
        // out-ranks this op in record_precedes order no matter which seq
        // disseminates first.
        m_op.claim_seq = dir_.claim_of(gid, rec.guid);
        m_op.gid = gid;
        m_op.member = rec;
        m_op.member.status = MemberStatus::kFailed;
        ops.push_back(std::move(m_op));
      }
    }
  }
  enqueue_local_ops(std::move(ops));

  // Keep interrupted rounds alive: every hop that was awaiting a cut
  // node's ack re-routes to the spliced successor; orphaned rounds (their
  // holder died) are adopted.
  const auto in_cut = [&cut](NodeId n) {
    return std::find(cut.begin(), cut.end(), n) != cut.end();
  };
  std::vector<Token> reroute;
  for (auto it = inflight_hops_.begin(); it != inflight_hops_.end();) {
    if (in_cut(it->second.target)) {
      cancel_timer(it->second.timer);
      reroute.push_back(std::move(it->second.token));
      it = inflight_hops_.erase(it);
    } else {
      ++it;
    }
  }
  for (Token& token : reroute) {
    if (in_cut(token.holder)) {
      token.holder = id();
      holding_round_ = true;
      my_round_id_ = token.round_id;
      round_contributors_.clear();
    }
    if (next_ == id()) {
      if (token.holder != id()) {
        token.holder = id();
        holding_round_ = true;
        my_round_id_ = token.round_id;
      }
      complete_round(token);
    } else {
      send_token_to(next_, std::move(token));
    }
  }

  if (was_leader && leader_ != id() && token_requested_) {
    // Redirect the outstanding token request to the new leader.
    send(leader_, kind::kTokenRequest, TokenRequestMsg{id(), true});
  }
}

void NetworkEntity::adopt_leadership() {
  RGB_LOG(kInfo, "failover") << now() << " " << id()
                             << " adopts ring leadership";
  leader_ = id();
  token_free_ = !holding_round_ && inflight_hops_.empty();
  if (!token_free_ && !holding_round_) arm_round_watchdog(active_round_id_);
  token_requested_ = false;
  cancel_timer(request_retx_timer_);
  if (parent_.valid()) {
    send(parent_, kind::kChildRebind, ChildRebindMsg{id()});
  }
  grant_next();
}

void NetworkEntity::remove_from_roster(NodeId node) {
  roster_.erase(std::remove(roster_.begin(), roster_.end(), node),
                roster_.end());
  roster_set_.erase(node);
}

void NetworkEntity::handle_repair(const RepairMsg& msg, NodeId from) {
  for (const NodeId f : msg.faulty) {
    if (f == id()) continue;  // false accusation; merge reconciles later
    if (!in_roster(f)) continue;  // already excluded
    suspected_faulty_.insert(f);
    const bool was_leader = (f == leader_);
    remove_from_roster(f);
    obs_.tracer.on_view_change(obs::FlightKind::kRepair, id(), f.value(), 0,
                               now());
    if (was_leader) {
      leader_ = elect_leader(roster_);
      metrics_.leader_failovers.increment();
      obs_.tracer.on_view_change(obs::FlightKind::kLeaderFailover, id(),
                                 leader_.value(), f.value(), now());
      if (leader_ == id()) adopt_leadership();
    }
  }
  // Pointers re-derive from the repaired roster; once every survivor has
  // processed the broadcast the views agree.
  recompute_pointers();
  (void)from;
}

void NetworkEntity::apply_ne_op(const MembershipOp& op) {
  // Member ops are seq-idempotent, NE ops are not: replaying a stale
  // NE-Failure (an abandoned round's requeue, or a round delivered late
  // across a crash window) would re-splice a node that a merge has since
  // re-admitted. Apply each NE op at most once per node, keyed by uid.
  if (op.uid != 0) {
    if (!applied_ne_ops_.insert(op.uid).second) return;
    applied_ne_ops_order_.push_back(op.uid);
    while (applied_ne_ops_order_.size() > kDisseminatedCap) {
      applied_ne_ops_.erase(applied_ne_ops_order_.front());
      applied_ne_ops_order_.pop_front();
    }
    // First processing of this NE op at this node = its apply tick.
    obs_.tracer.on_op_applied(op, id(), tier_, now());
  }
  switch (op.kind) {
    case OpKind::kNeFail:
    case OpKind::kNeLeave: {
      if (op.ne == id()) {
        // Our own departure op circulating back, or a false accusation.
        // Graceful leavers clear their state upon Holder-Ack, not here;
        // falsely accused nodes stay and reconcile via merge.
        return;
      }
      if (!in_roster(op.ne)) return;
      const bool was_leader = (op.ne == leader_);
      if (op.kind == OpKind::kNeFail) suspected_faulty_.insert(op.ne);
      remove_from_roster(op.ne);
      obs_.tracer.on_view_change(op.kind == OpKind::kNeFail
                                     ? obs::FlightKind::kRepair
                                     : obs::FlightKind::kNeLeave,
                                 id(), op.ne.value(), 0, now());
      if (was_leader) {
        leader_ = elect_leader(roster_);
        if (leader_ == id()) adopt_leadership();
      }
      recompute_pointers();
      if (op.kind == OpKind::kNeLeave) metrics_.ne_leaves.increment();
      return;
    }
    case OpKind::kNeJoin: {
      if (in_roster(op.ne)) return;  // duplicate
      auto it = std::find(roster_.begin(), roster_.end(), op.ne_after);
      if (it == roster_.end()) {
        roster_.push_back(op.ne);
      } else {
        roster_.insert(std::next(it), op.ne);
      }
      roster_set_.insert(op.ne);
      remember_peer(op.ne);
      suspected_faulty_.erase(op.ne);
      obs_.tracer.on_view_change(obs::FlightKind::kNeJoin, id(),
                                 op.ne.value(), op.ne_after.value(), now());
      recompute_pointers();
      if (is_leader()) {
        // Hand the joiner its initial state. Under snapshot_join the
        // reform carries the ring shape only — the joiner pulls the member
        // view as one framed kSnapshot transfer instead of receiving it
        // inline (and re-receiving it on every reform re-broadcast).
        RingReformMsg reform{roster_, leader_,
                             config_.snapshot_join
                                 ? std::vector<TableEntry>{}
                                 : dir_.export_all()};
        const auto bytes = wire_size(reform);
        send(op.ne, kind::kRingReform, std::move(reform), bytes);
        metrics_.ne_joins.increment();
      }
      return;
    }
    default:
      return;
  }
}

NodeId NetworkEntity::successor_of(NodeId node) const {
  const auto it = std::find(roster_.begin(), roster_.end(), node);
  if (it == roster_.end() || roster_.size() < 2) return id();
  const std::size_t i =
      static_cast<std::size_t>(std::distance(roster_.begin(), it));
  return roster_[(i + 1) % roster_.size()];
}

NodeId NetworkEntity::predecessor_of(NodeId node) const {
  const auto it = std::find(roster_.begin(), roster_.end(), node);
  if (it == roster_.end() || roster_.size() < 2) return id();
  const std::size_t i =
      static_cast<std::size_t>(std::distance(roster_.begin(), it));
  return roster_[(i + roster_.size() - 1) % roster_.size()];
}

void NetworkEntity::handle_ring_reform(const RingReformMsg& msg, NodeId from) {
  obs_.tracer.on_view_change(obs::FlightKind::kRingReform, id(),
                             msg.leader.value(), msg.roster.size(), now());
  roster_ = msg.roster;
  rebuild_roster_index();
  leader_ = msg.leader;
  for (const NodeId n : roster_) {
    suspected_faulty_.erase(n);
    remember_peer(n);
  }
  dir_.import_all(msg.entries);
  note_group_count();
  recompute_pointers();
  ring_ok_ = true;
  if (is_leader()) {
    token_free_ = !holding_round_ && inflight_hops_.empty();
    if (!token_free_ && !holding_round_) arm_round_watchdog(active_round_id_);
    if (parent_.valid()) {
      send(parent_, kind::kChildRebind, ChildRebindMsg{id()});
    }
    grant_next();
  } else {
    token_free_ = false;
  }
  if (stashed_token_) {
    TokenMsg replay = std::move(*stashed_token_);
    stashed_token_.reset();
    handle_token(std::move(replay), stashed_from_);
  }
  // Snapshot-join NE admission: the reform carried only the ring shape
  // (the leader deliberately sent no entries); pull the member view as one
  // framed state transfer instead. The digest in the request makes the
  // exchange a no-op when this NE was already current (e.g. re-admission
  // after a false failure).
  if (config_.snapshot_join && msg.entries.empty() && from.valid() &&
      from != id()) {
    request_snapshot_from(from);
  }
  // A reform is a heal-path completion: re-aim any request chain at the
  // (possibly new) leader and re-anchor local claims against the
  // re-baselined table.
  rearm_after_reconfigure();
  schedule_reconcile();
}

void NetworkEntity::handle_child_rebind(const ChildRebindMsg& msg,
                                        NodeId /*from*/) {
  child_ = msg.new_child_leader;
  child_ok_ = child_.valid();
}

// --------------------------------------------------------------------------
// Inter-ring notifications
// --------------------------------------------------------------------------

void NetworkEntity::send_notify(NodeId dest, std::vector<MembershipOp> ops,
                                bool downward) {
  const std::uint64_t nid = next_notify_id();
  const net::MessageKind kind =
      downward ? kind::kNotifyChild : kind::kNotifyParent;
  NotifyMsg msg{ops, nid, downward};
  const auto bytes = wire_size(msg);
  send(dest, kind, std::move(msg), bytes);
  metrics_.notifications_sent.increment();
  PendingNotify pending;
  pending.dest = dest;
  pending.ops = std::move(ops);
  pending.downward = downward;
  pending.timer = set_timer(config_.notify_timeout,
                            [this, nid]() { on_notify_retx_timeout(nid); });
  pending_notifies_.emplace(nid, std::move(pending));
}

void NetworkEntity::on_notify_retx_timeout(std::uint64_t notify_id) {
  const auto it = pending_notifies_.find(notify_id);
  if (it == pending_notifies_.end()) return;
  PendingNotify& pending = it->second;
  if (++pending.retx <= config_.max_notify_retx) {
    metrics_.notify_retransmits.increment();
    const net::MessageKind kind =
        pending.downward ? kind::kNotifyChild : kind::kNotifyParent;
    NotifyMsg msg{pending.ops, notify_id, pending.downward};
    const auto bytes = wire_size(msg);
    send(pending.dest, kind, std::move(msg), bytes);
    pending.timer = set_timer(config_.notify_timeout, [this, notify_id]() {
      on_notify_retx_timeout(notify_id);
    });
    return;
  }
  // The inter-ring edge is down: reflect it in ParentOK/ChildOK (paper
  // Section 4.2 semantics). Probing/merge may later restore the flag.
  RGB_LOG(kWarn, "notify") << now() << " " << id() << " gives up notify "
                           << notify_id << " to " << pending.dest << " ("
                           << pending.ops.size() << " ops, "
                           << (pending.downward ? "down" : "up")
                           << "); marking edge down";
  if (pending.downward) {
    child_ok_ = false;
  } else {
    parent_ok_ = false;
  }
  pending_notifies_.erase(it);
}

void NetworkEntity::handle_notify(const NotifyMsg& msg, NodeId from) {
  // Already-disseminated batch (our Holder-Ack got lost): ack immediately,
  // do not re-propagate.
  bool all_known = true;
  for (const MembershipOp& op : msg.ops) {
    if (!already_disseminated(op.uid)) {
      all_known = false;
      break;
    }
  }
  if (all_known) {
    HolderAckMsg ack{{msg.notify_id}};
    const auto bytes = wire_size(ack);
    send(from, kind::kHolderAck, std::move(ack), bytes);
    metrics_.holder_acks.increment();
    return;
  }

  const Contributor contributor{from, msg.notify_id};
  for (MembershipOp op : msg.ops) {
    if (msg.downward) {
      op.from_parent_of = id();
      op.from_child_of = NodeId{};
    } else {
      op.from_child_of = id();
      op.from_parent_of = NodeId{};
    }
    enqueue_op(std::move(op), contributor);
  }
  // Receiving traffic from that edge proves it is alive again.
  if (msg.downward) {
    parent_ok_ = true;
  } else if (from == child_) {
    child_ok_ = true;
  }
}

void NetworkEntity::handle_holder_ack(const HolderAckMsg& msg) {
  for (const std::uint64_t nid : msg.notify_ids) {
    if (pending_leave_notify_id_ != 0 && nid == pending_leave_notify_id_) {
      // Our graceful departure is disseminated; detach from the ring.
      pending_leave_notify_id_ = 0;
      clear_ring_state();
      continue;
    }
    const auto it = pending_notifies_.find(nid);
    if (it == pending_notifies_.end()) continue;
    cancel_timer(it->second.timer);
    pending_notifies_.erase(it);
  }
}

// --------------------------------------------------------------------------
// Probing & merge (extension: the paper's future-work
// Membership-Partition/Merge algorithms)
// --------------------------------------------------------------------------

void NetworkEntity::on_probe_tick() {
  last_full_.reset();
  const sim::Time tick_time = now();
  const bool crash_gap =
      last_probe_tick_ != 0 &&
      tick_time - last_probe_tick_ > 2 * config_.probe_period;
  last_probe_tick_ = tick_time;
  if (crash_gap) {
    // Probe ticks are suppressed while crashed, so a multi-period gap
    // means this NE just recovered from a crash window: its timers died
    // with it (stranding any round it held) and cross-partition records
    // may have falsified its attachment claims while it was silent —
    // the AP-recovery trigger of the reconciliation round.
    rearm_after_reconfigure();
    schedule_reconcile();
  }
  reaffirm_local_members();
  if (!is_leader()) {
    // Follower-side leader liveness: failure detection otherwise rides
    // entirely on traffic (token retx, unanswered requests), so a crashed
    // leader of a *quiet* ring would go undetected forever and cut the
    // ring off from dissemination. After a few silent ticks, ask for the
    // token; the standard unanswered-request path declares the leader
    // faulty and fails over. Any ring traffic resets the counter.
    // Dead request chain: the retx timer died during a crash window
    // (timers of a crashed node are dropped), leaving token_requested_
    // set with nothing driving it — which would block this node's MQ
    // forever, even in a perfectly healthy ring. A live chain re-sends
    // every round_timeout, so this cannot trip on one; leader-failure
    // detection via retx exhaustion stays intact.
    if (token_requested_ &&
        now() - last_request_activity_ > 2 * config_.round_timeout) {
      token_requested_ = false;
      cancel_timer(request_retx_timer_);
      on_mq_activity();  // re-request if ops are still queued
    }
    if (!holding_round_ && !token_requested_ &&
        ++idle_probe_ticks_ >= kIdleTicksBeforeLeaderCheck) {
      idle_probe_ticks_ = 0;
      request_token();
    }
    return;
  }
  if (token_free_ && dir_.queue_empty()) start_probe_round();
  attempt_merge();
  anti_entropy_tick();
}

void NetworkEntity::reaffirm_local_members() {
  if (local_attached_.empty()) return;
  if (!reaffirm_due_ && reaffirmed_at_ == dir_.change_count()) return;
  reaffirm_due_ = false;
  reaffirmed_at_ = dir_.change_count();
  std::vector<std::pair<Guid, GroupId>> reannounce, departed;
  for (const auto& [mh, by_gid] : local_attached_) {
    for (const auto& [gid, claim_seq] : by_gid) {
      const auto entry = dir_.lookup(gid, mh);
      // No record yet: our own join/handoff op is still queued or in a
      // round. Do NOT re-announce — a duplicate assertion could race the
      // very op that carries the claim. The at-least-once round machinery
      // lands the original op.
      if (!entry) continue;
      const MemberRecord& rec = entry->record;
      const std::uint64_t rec_claim = entry->claim_seq;
      const std::uint64_t rec_seq = entry->last_seq;
      if (rec_claim > claim_seq) {
        // A newer attachment epoch exists: the member physically joined or
        // handed off somewhere else after our claim (and possibly departed
        // there too). Ours is history — stop claiming. Epoch comparison,
        // not raw seq, makes this immune to detector-inferred records and
        // repair re-assertions, which never start an epoch.
        departed.emplace_back(mh, gid);
        continue;
      }
      if (rec.status == MemberStatus::kOperational &&
          rec.access_proxy == id()) {
        continue;  // consistent: hosted here
      }
      if (rec_claim == claim_seq && rec_seq > claim_seq) {
        // Our own epoch was ended or overridden by something we never saw
        // locally — a genuine departure goes through local_member_leave /
        // fail / the handoff-away guard, all of which erase the claim
        // first. So this is a false accusation (failure-detector false
        // positive elsewhere, typically a cross-partition splice). The
        // hosting AP is authoritative: re-anchor the epoch with a fresh op.
        reannounce.emplace_back(mh, gid);
        continue;
      }
      // rec_claim < claim_seq (stale pre-claim record), or rec_claim ==
      // claim_seq with rec_seq <= claim_seq (our claim op not yet
      // reflected): the in-flight claim assertion out-ranks the record in
      // record_precedes order — outwait it.
    }
  }
  // local_attached_ iterates deterministically (both maps ordered), so the
  // lists are already (guid, gid)-sorted.
  for (const auto& [mh, gid] : departed) set_claim(mh, gid, 0);
  // A re-anchor op changes no table until its round lands, so the next
  // pass must run to re-announce (or confirm) these claims.
  if (!reannounce.empty()) reaffirm_due_ = true;
  for (const auto& [mh, gid] : reannounce) {
    const std::uint64_t claim = local_attached_.at(mh).at(gid);
    RGB_LOG(kInfo, "reaffirm")
        << id() << " re-anchors falsely failed local member " << mh.value()
        << " (group " << gid.value() << ", epoch " << claim << ")";
    metrics_.reconcile_reanchors.increment();
    obs_.flight.record(now(), id(), obs::FlightKind::kReconcileReanchor,
                       mh.value(), claim);
    reannounce_member(gid, mh, claim);
  }
}

// --------------------------------------------------------------------------
// Post-heal reconciliation round (kReconcile)
// --------------------------------------------------------------------------

std::vector<AttachClaim> NetworkEntity::local_claims() const {
  // Nested-map iteration is already (guid, gid)-ascending — deterministic
  // without a sort.
  std::vector<AttachClaim> claims;
  claims.reserve(local_attached_.size());
  for (const auto& [mh, by_gid] : local_attached_) {
    for (const auto& [gid, claim] : by_gid) {
      claims.push_back(AttachClaim{mh, claim, gid});
    }
  }
  return claims;
}

void NetworkEntity::rearm_after_reconfigure() {
  // A request chain aimed at a replaced leader would wait out its full
  // retx budget before re-aiming (every resend reads the current leader_,
  // but the timer cadence is round_timeout) — during which this NE's MQ is
  // blocked, exactly when the post-heal ring needs the queued fragment ops
  // replayed. Reset the chain; on_mq_activity re-requests from the new
  // leader immediately.
  if (token_requested_ && !is_leader()) {
    cancel_timer(request_retx_timer_);
    token_requested_ = false;
  }
  // Timers die with a crashed node: a holder that crashed mid-round would
  // otherwise keep holding_round_ set forever with no watchdog to abandon
  // it, blocking its MQ permanently; same for a leader's reclaim
  // watchdog. Re-arm both — for a live round this merely extends a
  // deadline, for a dead one it restores the abandon/reclaim path.
  if (holding_round_) arm_holder_watchdog(my_round_id_);
  if (is_leader() && !token_free_ && !holding_round_) {
    arm_round_watchdog(active_round_id_);
  }
  on_mq_activity();
}

void NetworkEntity::schedule_reconcile() {
  if (local_attached_.empty()) return;
  // Debounce: merge storms (several reforms while fragments knit back
  // together) collapse into one exchange once the shape settles, and the
  // trigger's entry imports land before the claims are checked.
  cancel_timer(reconcile_timer_);
  reconcile_timer_ =
      set_timer(kReconcileDelay, [this]() { run_reconcile_round(); });
}

void NetworkEntity::run_reconcile_round() {
  if (local_attached_.empty()) return;
  const NodeId target = is_leader() ? parent_ : leader_;
  if (!target.valid() || target == id()) {
    // Nobody above us to ask (singleton / detached root): our own table is
    // the best merged view there is — evaluate the claims against it.
    // Not counted in reconcile_rounds, which meters actual claim
    // exchanges (the oracle-visibility contract of the metric).
    reaffirm_local_members();
    return;
  }
  metrics_.reconcile_rounds.increment();
  obs_.flight.record(now(), id(), obs::FlightKind::kReconcileRound,
                     local_attached_.size(), target.value());
  const std::uint64_t rid = (id().value() << 24) | ++reconcile_counter_;
  PendingReconcile pending;
  pending.dest = target;
  pending.claims = local_claims();
  ReconcileMsg msg{rid, pending.claims};
  const auto bytes = wire_size(msg);
  RGB_LOG(kInfo, "reconcile")
      << now() << " " << id() << " asserts " << msg.claims.size()
      << " claim(s) to " << target;
  send(target, kind::kReconcile, std::move(msg), bytes);
  pending.timer = set_timer(config_.notify_timeout, [this, rid]() {
    on_reconcile_retx_timeout(rid);
  });
  pending_reconciles_[rid] = std::move(pending);
}

void NetworkEntity::on_reconcile_retx_timeout(std::uint64_t reconcile_id) {
  const auto it = pending_reconciles_.find(reconcile_id);
  if (it == pending_reconciles_.end()) return;
  PendingReconcile& pending = it->second;
  if (++pending.retx <= config_.max_notify_retx) {
    metrics_.reconcile_retransmits.increment();
    ReconcileMsg msg{reconcile_id, pending.claims};
    const auto bytes = wire_size(msg);
    send(pending.dest, kind::kReconcile, std::move(msg), bytes);
    pending.timer = set_timer(config_.notify_timeout, [this, reconcile_id]() {
      on_reconcile_retx_timeout(reconcile_id);
    });
    return;
  }
  // The responder is unreachable: drop the exchange. The probe-tick
  // reaffirmation pass keeps the same decision logic running against
  // whatever anti-entropy brings in, so giving up loses promptness, not
  // correctness.
  metrics_.reconcile_give_ups.increment();
  pending_reconciles_.erase(it);
}

void NetworkEntity::handle_reconcile(const ReconcileMsg& msg, NodeId from) {
  ReconcileAckMsg ack;
  ack.reconcile_id = msg.reconcile_id;
  for (const AttachClaim& claim : msg.claims) {
    // Pre-v4 claims carry no group: answer against the default group.
    const GroupId gid = claim.gid.valid() ? claim.gid : config_.gid;
    const auto entry = dir_.lookup(gid, claim.mh);
    if (!entry) continue;
    // Return our entry whenever the claim's assertion (claim, claim)
    // loses to it in record_precedes order: a newer epoch supersedes the
    // claim outright, and a same-epoch ending means the claim was
    // falsified somewhere — either way the asker needs the record to
    // decide. Entries the claim out-ranks are omitted (the claim stands),
    // as is the asker's own re-anchored state — a same-epoch record
    // operational at the asker confirms the claim, it does not supersede
    // it, and echoing it back would cost superseding bytes on every
    // round after any repair.
    if (record_precedes(claim.claim_seq, claim.claim_seq, entry->claim_seq,
                        entry->last_seq) &&
        !(entry->claim_seq == claim.claim_seq &&
          entry->record.status == MemberStatus::kOperational &&
          entry->record.access_proxy == from)) {
      ack.superseding.push_back(*entry);
    }
  }
  metrics_.reconcile_replies.increment();
  const auto bytes = wire_size(ack);
  send(from, kind::kReconcileAck, std::move(ack), bytes);
}

void NetworkEntity::handle_reconcile_ack(const ReconcileAckMsg& msg) {
  const auto it = pending_reconciles_.find(msg.reconcile_id);
  if (it == pending_reconciles_.end()) return;  // stale or duplicate ack
  cancel_timer(it->second.timer);
  pending_reconciles_.erase(it);
  dir_.import_all(msg.superseding);
  note_group_count();
  // Re-evaluate every claim against the responder-informed table: the
  // shared decision core drops superseded epochs and re-anchors falsified
  // ones through the normal round machinery.
  reaffirm_local_members();
}

void NetworkEntity::anti_entropy_tick() {
  // Seq-keyed view reconciliation along the leader graph — ring members,
  // parent (within the retention tiers), child (when disseminating down).
  // Every edge of the hierarchy is covered by some leader's sync set, so
  // views that lost notifications to a crash/repair window reconverge once
  // the network quiesces. The monotone seq rule makes syncs idempotent and
  // loop-free; a receiver answers at most one bounded diff.
  //
  // Each tick ships an O(1) digest per edge; a receiver whose view already
  // agrees answers nothing, so the steady-state cost per tick is
  // independent of the member count. The ring-internal message also
  // carries the ring shape: members adopt it when their (roster, leader)
  // drifted — the convergent replacement for a lost RingReform broadcast.
  //
  // Multi-group steady-state tick (wire v4): one kSummary frame per link
  // carrying only the combined digest over every group — O(1) bytes per
  // link per tick no matter how many groups the directory serves. The
  // per-group digest vector ships only on mismatch (the receiver pulls it
  // with a kDigest reply), so G groups cost a constant steady-state frame
  // plus ~11B per group only while actually out of sync — the amortization
  // the bench.multigroup cell measures.
  const ViewDigest digest = dir_.combined_digest();
  ViewSyncMsg ring_sync;
  ring_sync.phase = ViewSyncMsg::Phase::kSummary;
  ring_sync.digest = digest.hash;
  ring_sync.entry_count = static_cast<std::uint32_t>(digest.count);
  ring_sync.roster = roster_;
  ring_sync.leader = leader_;
  const auto ring_bytes = wire_size(ring_sync);
  // One shared payload for the whole fan-out: k sends, one allocation.
  const net::Payload ring_payload{std::move(ring_sync)};
  for (const NodeId peer : roster_) {
    if (peer == id()) continue;
    send(peer, kind::kViewSync, ring_payload, ring_bytes);
  }
  if (dir_.empty()) return;  // cross edges carry only view state
  ViewSyncMsg cross_sync;
  cross_sync.phase = ViewSyncMsg::Phase::kSummary;
  cross_sync.digest = digest.hash;
  cross_sync.entry_count = static_cast<std::uint32_t>(digest.count);
  const auto cross_bytes = wire_size(cross_sync);
  const net::Payload cross_payload{std::move(cross_sync)};
  if (parent_.valid() && tier_ - 1 >= config_.retain_tier) {
    send(parent_, kind::kViewSync, cross_payload, cross_bytes);
  }
  if (child_.valid() && config_.disseminate_down) {
    send(child_, kind::kViewSync, cross_payload, cross_bytes);
  }
}

void NetworkEntity::handle_view_sync(const ViewSyncMsg& msg, NodeId from) {
  // Ring-shape adoption: the sync came from a node leading a ring that
  // contains us, and our local (roster, leader) drifted from it — a
  // reform we never received. Adopt the leader's view of the ring. Rides
  // the ring-internal kSummary tick.
  if (msg.leader.valid() && msg.leader == from &&
      std::find(msg.roster.begin(), msg.roster.end(), id()) !=
          msg.roster.end() &&
      (roster_ != msg.roster || leader_ != msg.leader)) {
    RGB_LOG(kInfo, "sync") << id() << " adopts ring shape from leader "
                           << from << " (" << msg.roster.size()
                           << " members)";
    obs_.tracer.on_view_change(obs::FlightKind::kShapeAdopt, id(),
                               from.value(), msg.roster.size(), now());
    roster_ = msg.roster;
    rebuild_roster_index();
    leader_ = msg.leader;
    for (const NodeId n : roster_) {
      suspected_faulty_.erase(n);
      remember_peer(n);
    }
    recompute_pointers();
    ring_ok_ = true;
    if (!is_leader()) token_free_ = false;
    // Shape adoption is the convergent stand-in for a lost reform: same
    // heal-path completion, same reconciliation trigger.
    rearm_after_reconfigure();
    schedule_reconcile();
  }

  if (msg.phase == ViewSyncMsg::Phase::kSummary) {
    // Steady-state fast path: combined digests agree, nothing to do —
    // total tick cost stayed O(1) per link regardless of the group count.
    // On mismatch, pull: answer with our packed per-group digests so the
    // sender can scope its kFull to just the differing groups.
    const ViewDigest mine = dir_.combined_digest();
    if (mine.hash == msg.digest && mine.count == msg.entry_count) return;
    ViewSyncMsg reply;
    reply.phase = ViewSyncMsg::Phase::kDigest;
    reply.digest = mine.hash;
    reply.entry_count = static_cast<std::uint32_t>(mine.count);
    reply.group_digests = dir_.packed_digests();
    metrics_.digest_groups_packed.increment(reply.group_digests.size());
    const auto reply_bytes = wire_size(reply);
    send(from, kind::kViewSync, std::move(reply), reply_bytes);
    return;
  }

  if (msg.phase == ViewSyncMsg::Phase::kDigest) {
    // In-sync views answer nothing: the common steady-state tick ends here
    // having cost one O(1) comparison. (A hash collision between unequal
    // views — ~2^-64 — also lands here; it heals on the next tick after
    // either table changes, and never corrupts state since no entries were
    // merged.) On mismatch, ship our view and ask for the sender's newer
    // entries back; the pair then reconverges in one exchange. With a
    // packed per-group digest set (v4) the reply is scoped to the groups
    // that actually differ instead of the whole directory.
    const ViewDigest mine = dir_.combined_digest();
    if (mine.hash == msg.digest && mine.count == msg.entry_count) return;
    std::vector<GroupId> gids = dir_.differing_groups(msg.group_digests);
    if (msg.group_digests.empty()) {
      // Pre-packing sender (or a sender with an empty directory): no
      // per-group evidence to scope by — answer with everything.
      gids.clear();
    } else if (gids.empty()) {
      // Combined digests differ but every per-group digest matches: the
      // combined hash collided (~2^-64) or the mismatch lives in groups
      // neither side holds entries for. Nothing useful to ship.
      return;
    }
    metrics_.group_fulls_sent.increment(gids.empty() ? dir_.group_count()
                                                     : gids.size());
    // One kSummary fan-out draws a kDigest from several peers: while the
    // directory and the scope are unchanged, the kFull built for the first
    // is exactly what a fresh export would build for the next.
    if (!last_full_ || last_full_->changes != dir_.change_count() ||
        last_full_->gids != gids) {
      ViewSyncMsg reply;
      reply.phase = ViewSyncMsg::Phase::kFull;
      reply.entries = dir_.export_groups(gids);
      reply.reply_requested = true;
      reply.sync_gids = gids;
      const auto reply_bytes = wire_size(reply);
      last_full_ = FullReply{std::move(reply), dir_.change_count(),
                             std::move(gids), reply_bytes};
    }
    send(from, kind::kViewSync, last_full_->payload, last_full_->bytes);
    return;
  }

  RGB_LOG(kDebug, "sync") << now() << " " << id() << " imports "
                          << msg.entries.size() << " entries from " << from;
  if (!msg.reply_requested) {
    dir_.import_all(msg.entries);
    note_group_count();
    return;
  }
  // Import and diff in one pass. The diff is scoped to the sync's group
  // set: a scoped kFull must not drag every unrelated group's entries into
  // the reply (that would undo the packing amortization). Empty sync_gids
  // = universal (pre-v4 sender).
  std::vector<TableEntry> diff;
  dir_.import_and_diff(msg.entries, msg.sync_gids, diff);
  note_group_count();
  if (diff.empty()) return;
  std::size_t diff_groups = 0;
  GroupId last_gid;  // diff is gid-major, so distinct gids = run starts
  for (const TableEntry& entry : diff) {
    if (entry.gid != last_gid) {
      ++diff_groups;
      last_gid = entry.gid;
    }
  }
  metrics_.group_diffs_sent.increment(diff_groups);
  ViewSyncMsg reply;
  reply.phase = ViewSyncMsg::Phase::kDiff;
  reply.entries = std::move(diff);
  reply.sync_gids = msg.sync_gids;
  const auto reply_bytes = wire_size(reply);
  send(from, kind::kViewSync, std::move(reply), reply_bytes);
}

void NetworkEntity::attempt_merge() {
  if (known_peers_.size() <= roster_.size()) return;
  // Round-robin over peers we once knew but no longer ring with: they may
  // have recovered or live in another fragment.
  std::vector<NodeId> candidates;
  for (const NodeId peer : known_peers_) {
    if (!in_roster(peer)) candidates.push_back(peer);
  }
  if (candidates.empty()) return;
  const NodeId target = candidates[merge_probe_cursor_ % candidates.size()];
  ++merge_probe_cursor_;
  MergeOfferMsg offer{roster_, dir_.export_all()};
  const auto bytes = wire_size(offer);
  send(target, kind::kMergeOffer, std::move(offer), bytes);
}

void NetworkEntity::merge_fragment(const std::vector<NodeId>& their_roster,
                                   const std::vector<TableEntry>& entries) {
  // Union roster in sorted order (deterministic on both sides), lowest id
  // leads, member views union-merge.
  std::vector<NodeId> merged = roster_;
  for (const NodeId n : their_roster) {
    if (std::find(merged.begin(), merged.end(), n) == merged.end()) {
      merged.push_back(n);
    }
  }
  std::sort(merged.begin(), merged.end());
  const NodeId new_leader = elect_leader(merged);

  dir_.import_all(entries);
  note_group_count();

  metrics_.merges.increment();
  obs_.tracer.on_view_change(obs::FlightKind::kMerge, id(),
                             their_roster.empty() ? 0
                                                  : their_roster.front().value(),
                             merged.size(), now());
  RGB_LOG(kInfo, "merge") << now() << " " << id()
                          << " merges fragments into a ring of "
                          << merged.size() << " under " << new_leader;
  roster_ = merged;
  rebuild_roster_index();
  leader_ = new_leader;
  for (const NodeId n : merged) suspected_faulty_.erase(n);
  recompute_pointers();
  broadcast_ring_reform(merged, new_leader);
  if (is_leader()) {
    token_free_ = !holding_round_ && inflight_hops_.empty();
    // A busy token that is not a round we hold belongs to a round in
    // flight somewhere in the churned ring; its release can miss us (the
    // holder may address a stale leader). Arm the reclaim watchdog so the
    // token cannot stay un-free forever — a live release cancels it.
    if (!token_free_ && !holding_round_) arm_round_watchdog(active_round_id_);
    if (parent_.valid()) {
      send(parent_, kind::kChildRebind, ChildRebindMsg{id()});
    }
  } else {
    token_free_ = false;
  }
  // Merge completion is the canonical post-heal moment: the fragments'
  // tables just unioned, so any cross-partition false-failure record is
  // now visible locally — re-anchor claims against the merged view and
  // let queued fragment ops flow through the merged ring immediately.
  rearm_after_reconfigure();
  schedule_reconcile();
}

void NetworkEntity::handle_merge_offer(const MergeOfferMsg& msg,
                                       NodeId from) {
  if (!is_leader()) {
    const bool i_am_in_offer =
        std::find(msg.roster.begin(), msg.roster.end(), id()) !=
        msg.roster.end();
    if (i_am_in_offer) return;  // the offerer already rings with us
    if (leader_.valid() && leader_ != id() && leader_ != from) {
      // A true fragment: relay to our fragment's leader — and answer the
      // offerer directly as well. The relay alone deadlocks when our
      // leader pointer is fictional (the supposed leader repaired us out
      // of its ring across the partition and drops the relayed offer as
      // "already ringing with the offerer"): offers then die at the relay
      // forever and the rosters never reconverge — the post-heal orphan
      // class of the partition fuzz profile. The direct accept is safe in
      // the healthy-fragment case too: merge_fragment unions rosters and
      // elects deterministically, so it merely duplicates the leader-level
      // merge the relay triggers.
      send(leader_, kind::kMergeOffer, msg, wire_size(msg));
      MergeAcceptMsg accept{roster_, dir_.export_all()};
      const auto bytes = wire_size(accept);
      send(from, kind::kMergeAccept, std::move(accept), bytes);
    } else {
      // Stale state: the node we believe leads us is the one telling us we
      // are not in its ring (e.g. we just recovered from a crash). Offer
      // ourselves back as a singleton fragment.
      MergeAcceptMsg accept{{id()}, dir_.export_all()};
      const auto bytes = wire_size(accept);
      send(from, kind::kMergeAccept, std::move(accept), bytes);
    }
    return;
  }
  if (in_roster(from)) {
    // We already ring with the offerer. That makes the offer stale only
    // when our rosters actually agree: a recovered crashed leader still
    // holds its pre-crash roster (which contains the survivors) while the
    // survivors repaired around it — rejecting their offers here would
    // deadlock the fragments into permanent disagreement. Merge whenever
    // the views diverge; merge_fragment is idempotent under agreement.
    std::vector<NodeId> theirs = msg.roster;
    std::vector<NodeId> ours = roster_;
    std::sort(theirs.begin(), theirs.end());
    std::sort(ours.begin(), ours.end());
    if (theirs == ours) return;  // consistent rings: truly stale
  }
  merge_fragment(msg.roster, msg.entries);
}

void NetworkEntity::handle_merge_accept(const MergeAcceptMsg& msg,
                                        NodeId from) {
  if (!is_leader()) return;
  if (in_roster(from) && msg.roster.size() <= 1) {
    return;  // already merged by an earlier accept
  }
  merge_fragment(msg.roster, msg.entries);
}

void NetworkEntity::broadcast_ring_reform(const std::vector<NodeId>& roster,
                                          NodeId leader) {
  RingReformMsg msg{roster, leader, dir_.export_all()};
  const auto bytes = wire_size(msg);
  const net::Payload reform{std::move(msg)};
  for (const NodeId n : roster) {
    if (n == id()) continue;
    send(n, kind::kRingReform, reform, bytes);
  }
}

// --------------------------------------------------------------------------
// Snapshot state transfer (the kSnapshot bulk-join path)
// --------------------------------------------------------------------------

void NetworkEntity::schedule_snapshot_flush(bool to_ring, bool to_child) {
  if (!to_ring && !to_child) return;
  snapshot_dirty_ring_ = snapshot_dirty_ring_ || to_ring;
  snapshot_dirty_child_ = snapshot_dirty_child_ || to_child;
  // Debounce: every fresh mark pushes the flush out by another quiet
  // window, so a sustained surge ships one snapshot at its end, not one
  // per round.
  cancel_timer(snapshot_flush_timer_);
  snapshot_flush_timer_ =
      set_timer(kSnapshotFlushQuiet, [this]() { flush_snapshot(); });
}

SnapshotMsg NetworkEntity::make_snapshot_msg() const {
  SnapshotMsg msg;
  const ViewDigest digest = dir_.combined_digest();
  msg.digest = digest.hash;
  msg.entry_count = digest.count;
  rgb::wire::encode_snapshot(dir_.export_all(), msg.blob);
  return msg;
}

const net::Payload& NetworkEntity::snapshot_payload() {
  const ViewDigest digest = dir_.combined_digest();
  if (!snapshot_payload_valid_ || snapshot_payload_digest_ != digest.hash ||
      snapshot_payload_count_ != digest.count) {
    SnapshotMsg msg = make_snapshot_msg();
    snapshot_payload_digest_ = msg.digest;
    snapshot_payload_count_ = msg.entry_count;
    snapshot_payload_bytes_ = wire_size(msg);
    snapshot_payload_cache_ = net::Payload{std::move(msg)};
    snapshot_payload_valid_ = true;
  }
  return snapshot_payload_cache_;
}

void NetworkEntity::flush_snapshot() {
  const bool to_ring =
      snapshot_dirty_ring_ && is_leader() && roster_.size() > 1;
  const bool to_child =
      snapshot_dirty_child_ && child_.valid() && config_.disseminate_down;
  snapshot_dirty_ring_ = false;
  snapshot_dirty_child_ = false;
  if (!to_ring && !to_child) return;
  // One encoded blob, shared by every push of this flush (and by any
  // retransmission until the table moves again).
  const net::Payload& payload = snapshot_payload();
  const auto bytes = snapshot_payload_bytes_;
  const std::uint64_t digest = snapshot_payload_digest_;
  const std::uint64_t entry_count = snapshot_payload_count_;
  const auto push = [&](NodeId dest) {
    send(dest, kind::kSnapshot, payload, bytes);
    metrics_.snapshots_sent.increment();
    // Flush-edge reliability: remember the push until its kSnapshotAck.
    PendingSnapshotPush& pending = pending_snapshot_pushes_[dest];
    cancel_timer(pending.timer);
    pending.digest = digest;
    pending.entry_count = entry_count;
    pending.retx = 0;
    pending.timer = set_timer(config_.notify_timeout, [this, dest]() {
      on_snapshot_push_timeout(dest);
    });
  };
  if (to_ring) {
    for (const NodeId peer : roster_) {
      if (peer == id()) continue;
      push(peer);
    }
  }
  if (to_child) push(child_);
}

void NetworkEntity::on_snapshot_push_timeout(NodeId dest) {
  const auto it = pending_snapshot_pushes_.find(dest);
  if (it == pending_snapshot_pushes_.end()) return;
  PendingSnapshotPush& pending = it->second;
  if (++pending.retx > config_.max_notify_retx) {
    // The edge is unreachable past the budget; anti-entropy probing and
    // the next flush remain the safety net (monotone import makes any
    // later, fresher transfer equivalent).
    metrics_.snapshot_push_give_ups.increment();
    pending_snapshot_pushes_.erase(it);
    return;
  }
  metrics_.snapshot_retransmits.increment();
  // Retransmit the *current* table, not the stale blob: the receiver's
  // import is monotone, so fresher is always at least as good, and the
  // pending digest must track what was actually sent for the ack match.
  // The cached payload makes this a shared-refcount send unless the table
  // actually moved since the last encode.
  const net::Payload& payload = snapshot_payload();
  pending.digest = snapshot_payload_digest_;
  pending.entry_count = snapshot_payload_count_;
  send(dest, kind::kSnapshot, payload, snapshot_payload_bytes_);
  metrics_.snapshots_sent.increment();
  pending.timer = set_timer(config_.notify_timeout, [this, dest]() {
    on_snapshot_push_timeout(dest);
  });
}

void NetworkEntity::handle_snapshot_ack(const SnapshotAckMsg& msg,
                                        NodeId from) {
  const auto it = pending_snapshot_pushes_.find(from);
  if (it == pending_snapshot_pushes_.end()) return;
  // Only the ack of the *latest* push clears the pending entry — a stale
  // ack racing a fresher flush must not silence its retransmission.
  if (it->second.digest != msg.digest) return;
  cancel_timer(it->second.timer);
  pending_snapshot_pushes_.erase(it);
}

void NetworkEntity::request_snapshot_from(NodeId peer) {
  if (!peer.valid() || peer == id()) return;
  const ViewDigest mine = dir_.combined_digest();
  send(peer, kind::kSnapshotRequest,
       SnapshotRequestMsg{mine.hash, mine.count});
}

void NetworkEntity::handle_snapshot_request(const SnapshotRequestMsg& msg,
                                            NodeId from) {
  const ViewDigest mine = dir_.combined_digest();
  if (mine.hash == msg.digest && mine.count == msg.entry_count) return;
  // Sequenced: snapshot_payload() refreshes snapshot_payload_bytes_, so
  // the two must not be read in one unordered argument list.
  const net::Payload& payload = snapshot_payload();
  send(from, kind::kSnapshot, payload, snapshot_payload_bytes_);
  metrics_.snapshots_sent.increment();
}

void NetworkEntity::handle_snapshot(const SnapshotMsg& msg, NodeId from) {
  const ViewDigest mine = dir_.combined_digest();
  if (mine.hash == msg.digest && mine.count == msg.entry_count) {
    // Already in sync: skip the decode entirely, but still confirm the
    // receipt so a pending flush push stops retransmitting.
    send(from, kind::kSnapshotAck,
         SnapshotAckMsg{msg.digest, msg.entry_count});
    return;
  }
  // The blob is real wire bytes; a truncated or corrupted transfer decodes
  // to a clean error and is dropped *unacked* — the sender's retx loop
  // (flush pushes) or the anti-entropy tick retries the transfer.
  const auto decoded = rgb::wire::decode_snapshot(msg.blob);
  if (!decoded.ok()) {
    metrics_.snapshot_decode_errors.increment();
    obs_.flight.record(now(), id(), obs::FlightKind::kSnapshotRejected,
                       from.value(),
                       metrics_.snapshot_decode_errors.value());
    RGB_LOG(kWarn, "snapshot")
        << id() << " rejects corrupt snapshot from " << from << ": "
        << rgb::wire::to_string(decoded.error().status) << " at offset "
        << decoded.error().offset;
    return;
  }
  send(from, kind::kSnapshotAck, SnapshotAckMsg{msg.digest, msg.entry_count});
  const bool changed = dir_.import_all(decoded.value());
  note_group_count();
  if (!changed) return;
  metrics_.snapshots_applied.increment();
  obs_.flight.record(now(), id(), obs::FlightKind::kSnapshotApplied,
                     from.value(), decoded.value().size());
  if (!config_.snapshot_join) return;
  // Cascade: state learned by snapshot (not by a token round, which every
  // ring peer sees anyway) is owed onward — across the ring when we lead
  // it, and down to our child ring's leader.
  schedule_snapshot_flush(is_leader(),
                          child_.valid() && config_.disseminate_down);
}

// --------------------------------------------------------------------------
// Dynamic NE membership
// --------------------------------------------------------------------------

void NetworkEntity::request_ring_join(NodeId ring_leader) {
  const std::uint64_t nid = next_notify_id();
  send(ring_leader, kind::kNeJoinRequest, NeJoinRequestMsg{id(), nid});
}

void NetworkEntity::handle_ne_join_request(const NeJoinRequestMsg& msg,
                                           NodeId from) {
  if (!is_leader()) {
    if (leader_.valid() && leader_ != id()) {
      send(leader_, kind::kNeJoinRequest, msg);
    }
    return;
  }
  (void)from;
  MembershipOp op;
  op.kind = OpKind::kNeJoin;
  op.seq = next_op_seq();
  op.uid = next_op_uid();
  op.ne = msg.joiner;
  op.ne_after = id();
  op.born = now();
  // NE ops born inside a handler open their own trace (the join is new
  // protocol work); the triggered sends execute under it.
  const obs::SpanRecorder::Scope scope{
      obs_.spans, obs_.tracer.on_op_born(op, id(), now())};
  enqueue_op(std::move(op), Contributor{msg.joiner, msg.notify_id});
}

void NetworkEntity::request_ring_leave() {
  if (roster_.size() <= 1) {
    clear_ring_state();
    return;
  }
  if (is_leader()) {
    // Leadership handover fast path: re-baseline the survivors under the
    // deterministic successor, then drop our ring state.
    std::vector<NodeId> rest;
    for (const NodeId n : roster_) {
      if (n != id()) rest.push_back(n);
    }
    const NodeId successor = elect_leader(rest);
    RingReformMsg msg{rest, successor, dir_.export_all()};
    const auto bytes = wire_size(msg);
    const net::Payload reform{std::move(msg)};
    for (const NodeId n : rest) send(n, kind::kRingReform, reform, bytes);
    if (parent_.valid()) {
      send(parent_, kind::kChildRebind, ChildRebindMsg{successor});
    }
    metrics_.ne_leaves.increment();
    clear_ring_state();
    return;
  }
  // Non-leader: ask the leader to disseminate NE-Leave. We stay in the ring
  // until the Holder-Acknowledgement confirms the round completed — while
  // the round circulates, the other nodes splice us out, so the token never
  // visits us again.
  pending_leave_notify_id_ = next_notify_id();
  send(leader_, kind::kNeLeaveRequest,
       NeLeaveRequestMsg{id(), pending_leave_notify_id_});
}

void NetworkEntity::clear_ring_state() {
  roster_.clear();
  roster_set_.clear();
  leader_ = NodeId{};
  next_ = previous_ = NodeId{};
  ring_ok_ = false;
  token_free_ = false;
  token_requested_ = false;
  pending_grants_.clear();
  cancel_timer(request_retx_timer_);
  cancel_timer(round_watchdog_);
  cancel_timer(holder_watchdog_);
  cancel_timer(snapshot_flush_timer_);
  cancel_timer(reconcile_timer_);
  for (auto& [rid, pending] : pending_reconciles_) {
    cancel_timer(pending.timer);
  }
  pending_reconciles_.clear();
  for (auto& [dest, pending] : pending_snapshot_pushes_) {
    cancel_timer(pending.timer);
  }
  pending_snapshot_pushes_.clear();
  snapshot_dirty_ring_ = false;
  snapshot_dirty_child_ = false;
  pending_round_ops_.clear();
  // Stability evidence is ring-scoped: alerts and pending cuts reference a
  // roster this NE no longer has.
  reset_stability_state();
}

void NetworkEntity::handle_ne_leave_request(const NeLeaveRequestMsg& msg,
                                            NodeId from) {
  if (!is_leader()) {
    if (leader_.valid() && leader_ != id()) {
      send(leader_, kind::kNeLeaveRequest, msg);
    }
    return;
  }
  (void)from;
  MembershipOp op;
  op.kind = OpKind::kNeLeave;
  op.seq = next_op_seq();
  op.uid = next_op_uid();
  op.ne = msg.leaver;
  op.born = now();
  const obs::SpanRecorder::Scope scope{
      obs_.spans, obs_.tracer.on_op_born(op, id(), now())};
  enqueue_op(std::move(op), Contributor{msg.leaver, msg.notify_id});
}

void NetworkEntity::form_singleton_ring() {
  configure_ring({id()}, id());
  if (parent_.valid()) {
    send(parent_, kind::kChildRebind, ChildRebindMsg{id()});
  }
}

// --------------------------------------------------------------------------
// Queries
// --------------------------------------------------------------------------

void NetworkEntity::handle_query(const QueryRequestMsg& msg, NodeId from) {
  const NodeId reply_to = msg.reply_to.valid() ? msg.reply_to : from;
  // Group-scoped queries (v4) answer from that group's table alone; a
  // group-less query keeps the pre-v4 meaning — every member this NE
  // knows, deduplicated across groups.
  std::vector<MemberRecord> members;
  if (msg.gid.valid()) {
    if (const MemberTable* tab = dir_.table_if(msg.gid)) {
      members = tab->snapshot();
    }
  } else {
    members = dir_.merged_snapshot();
  }
  QueryReplyMsg reply{msg.query_id, std::move(members)};
  const auto reply_bytes = wire_size(reply);
  send(reply_to, kind::kQueryReply, std::move(reply), reply_bytes);
}

// --------------------------------------------------------------------------
// Stability plane (multi-observer cut detection)
// --------------------------------------------------------------------------

void NetworkEntity::report_suspect(NodeId suspect) {
  if (!config_.stability) {
    declare_faulty_and_repair(suspect);
    return;
  }
  raise_alert(suspect);
}

void NetworkEntity::raise_alert(NodeId suspect) {
  if (suspect == id() || !suspect.valid() || !in_roster(suspect)) return;
  if (pending_alerts_.count(suspect) != 0) return;  // already filed
  PendingAlert pa;
  pa.alert_id = (id().value() << 24) | ++alert_counter_;
  // Alerts converge at the ring leader's aggregator; when the leader
  // itself is the suspect they converge at the presumptive next leader
  // instead, so the NE-level cut decision survives leader death.
  NodeId aggregator = leader_;
  if (suspect == leader_) {
    std::vector<NodeId> rest;
    for (const NodeId n : roster_) {
      if (n != suspect) rest.push_back(n);
    }
    aggregator = elect_leader(rest);
  }
  pa.aggregator = aggregator;
  metrics_.stability_alerts.increment();
  obs_.flight.record(now(), id(), obs::FlightKind::kAlertRaised,
                     suspect.value(), pa.alert_id);
  RGB_LOG(kDebug, "stability") << now() << " " << id() << " alerts on "
                               << suspect << " to " << aggregator;
  AlertMsg alert{id(), pa.alert_id, {suspect}, false};
  const auto bytes = wire_size(alert);
  if (aggregator == id()) {
    observe_alert(suspect, id());
  } else if (aggregator.valid()) {
    send(aggregator, kind::kAlert, alert, bytes);
  }
  // Liveness counter-check: the suspect itself gets the alert too; a live
  // one answers kAlertAck and the accusation is withdrawn before any cut.
  send(suspect, kind::kAlert, std::move(alert), bytes);
  const NodeId s = suspect;
  pa.ping_timer = set_timer(config_.retx_timeout,
                            [this, s]() { on_alert_ping_timeout(s); });
  const std::uint64_t aid = pa.alert_id;
  pa.fallback_timer = set_timer(config_.stability_timeout, [this, s, aid]() {
    on_stability_fallback(s, aid);
  });
  pending_alerts_.emplace(suspect, std::move(pa));
}

void NetworkEntity::cancel_alert(NodeId suspect) {
  const auto it = pending_alerts_.find(suspect);
  if (it == pending_alerts_.end()) return;
  cancel_timer(it->second.ping_timer);
  cancel_timer(it->second.fallback_timer);
  pending_alerts_.erase(it);
}

void NetworkEntity::on_alert_ping_timeout(NodeId suspect) {
  const auto it = pending_alerts_.find(suspect);
  if (it == pending_alerts_.end()) return;
  // Re-ping until the ack, a cut, or the fallback resolves the alert: a
  // loss burst that swallowed the first ping must not be enough to turn a
  // live node into a cut member.
  AlertMsg ping{id(), it->second.alert_id, {suspect}, false};
  const auto bytes = wire_size(ping);
  send(suspect, kind::kAlert, std::move(ping), bytes);
  it->second.ping_timer = set_timer(config_.retx_timeout, [this, suspect]() {
    on_alert_ping_timeout(suspect);
  });
}

void NetworkEntity::on_stability_fallback(NodeId suspect,
                                          std::uint64_t alert_id) {
  const auto it = pending_alerts_.find(suspect);
  if (it == pending_alerts_.end() || it->second.alert_id != alert_id) return;
  cancel_timer(it->second.ping_timer);
  pending_alerts_.erase(it);
  if (!in_roster(suspect)) return;  // a cut or repair resolved it already
  // No cut arrived within the stability timeout: degrade to the proven
  // single-observer declare so detection latency stays bounded and
  // liveness never regresses below the pre-stability protocol.
  metrics_.stability_timeout_fallbacks.increment();
  obs_.flight.record(now(), id(), obs::FlightKind::kStabilityFallback,
                     suspect.value(), alert_id);
  declare_faulty_and_repair(suspect);
}

void NetworkEntity::handle_alert(const AlertMsg& msg, NodeId from) {
  if (!config_.stability) return;
  if (msg.retract) {
    for (const NodeId s : msg.suspects) stability_.retract(s, msg.observer);
    return;
  }
  bool about_me = false;
  for (const NodeId s : msg.suspects) {
    if (s == id()) {
      about_me = true;
    } else {
      observe_alert(s, msg.observer);
    }
  }
  if (about_me) {
    // Counter-observation of liveness: we are evidently alive; the ack
    // makes the observer withdraw the accusation.
    send(from, kind::kAlertAck, AlertAckMsg{id(), msg.alert_id},
         wire_size(AlertAckMsg{}));
  }
}

void NetworkEntity::handle_alert_ack(const AlertAckMsg& msg, NodeId /*from*/) {
  const auto vit = pending_verifies_.find(msg.responder);
  if (vit != pending_verifies_.end() && vit->second.alert_id == msg.alert_id) {
    // Pre-cut verification answered: the suspect is alive, its pending
    // observation was a stale flap (a lost retraction) — drop it outright.
    metrics_.stability_suppressed_flaps.increment();
    RGB_LOG(kDebug, "stability") << now() << " " << id() << " verified "
                                 << msg.responder << " live; cut averted";
    cancel_cut_verification(msg.responder);
    stability_.forget(msg.responder);
    arm_stability_cut_timer();
    return;
  }
  const auto it = pending_alerts_.find(msg.responder);
  if (it == pending_alerts_.end() || it->second.alert_id != msg.alert_id) {
    return;
  }
  // The suspect answered: suppress the flap — cancel locally and retract
  // at the aggregator so a pending cut loses this observation.
  metrics_.stability_suppressed_flaps.increment();
  const NodeId aggregator = it->second.aggregator;
  const std::uint64_t alert_id = it->second.alert_id;
  cancel_alert(msg.responder);
  if (aggregator == id()) {
    stability_.retract(msg.responder, id());
  } else if (aggregator.valid()) {
    AlertMsg retraction{id(), alert_id, {msg.responder}, true};
    const auto bytes = wire_size(retraction);
    send(aggregator, kind::kAlert, std::move(retraction), bytes);
  }
}

void NetworkEntity::observe_alert(NodeId suspect, NodeId observer) {
  if (!in_roster(suspect) || suspect == id()) return;
  stability_.observe(suspect, observer, now());
  check_stability_cut();
}

void NetworkEntity::check_stability_cut() {
  // K is clamped to the observers that can exist (ring peers minus the
  // suspect): a K nobody can reach would disable early firing entirely and
  // every cut would wait out the full window.
  const int feasible =
      roster_.size() > 1 ? static_cast<int>(roster_.size()) - 1 : 1;
  const int k = std::max(1, std::min(kStabilityK, feasible));
  if (stability_.ready(now(), config_.stability_window, k)) {
    // A K-corroborated cut fires immediately. A deadline-only cut first
    // verifies its suspects: the dominant false-cut path is a suppressed
    // flap whose one-shot retraction was lost in transit, leaving a stale
    // single observation to ride out the window. The verification ping is
    // the same alert/ack liveness exchange the observers use; only the
    // suspects that stay silent through the retx budget are cut.
    if (!stability_.corroborated(k)) {
      start_cut_verifications();
      if (cut_verifies_in_flight()) {
        arm_stability_cut_timer();
        return;
      }
    }
    const StabilityAggregator::Cut cut = stability_.take();
    for (const NodeId suspect : cut.suspects) cancel_cut_verification(suspect);
    metrics_.stability_cuts.increment();
    metrics_.stability_batched_failures.increment(cut.suspects.size());
    obs_.flight.record(now(), id(), obs::FlightKind::kCutApplied,
                       cut.suspects.size(), cut.observers);
    RGB_LOG(kInfo, "stability")
        << now() << " " << id() << " applies a cut of " << cut.suspects.size()
        << " suspect(s) from " << cut.observers << " observer(s)";
    declare_cut(cut.suspects);
  }
  arm_stability_cut_timer();
}

bool NetworkEntity::start_cut_verifications() {
  bool started = false;
  for (const NodeId suspect : stability_.suspects()) {
    if (pending_verifies_.count(suspect) != 0) continue;
    PendingVerify pv;
    pv.alert_id = (id().value() << 24) | ++alert_counter_;
    pv.pings_left = config_.max_retx;
    RGB_LOG(kDebug, "stability") << now() << " " << id()
                                 << " verifies suspect " << suspect
                                 << " before a deadline cut";
    AlertMsg ping{id(), pv.alert_id, {suspect}, false};
    const auto bytes = wire_size(ping);
    send(suspect, kind::kAlert, std::move(ping), bytes);
    const NodeId s = suspect;
    pv.ping_timer = set_timer(config_.retx_timeout,
                              [this, s]() { on_verify_ping_timeout(s); });
    pending_verifies_.emplace(suspect, std::move(pv));
    started = true;
  }
  return started;
}

bool NetworkEntity::cut_verifies_in_flight() const {
  for (const auto& [suspect, pv] : pending_verifies_) {
    if (!pv.expired) return true;
  }
  return false;
}

void NetworkEntity::on_verify_ping_timeout(NodeId suspect) {
  const auto it = pending_verifies_.find(suspect);
  if (it == pending_verifies_.end() || it->second.expired) return;
  if (it->second.pings_left <= 0) {
    // Silent through the whole budget: the suspect no longer blocks the
    // deadline cut. The entry stays (expired) so it is not re-verified.
    it->second.expired = true;
    check_stability_cut();
    return;
  }
  --it->second.pings_left;
  AlertMsg ping{id(), it->second.alert_id, {suspect}, false};
  const auto bytes = wire_size(ping);
  send(suspect, kind::kAlert, std::move(ping), bytes);
  it->second.ping_timer = set_timer(config_.retx_timeout, [this, suspect]() {
    on_verify_ping_timeout(suspect);
  });
}

void NetworkEntity::cancel_cut_verification(NodeId suspect) {
  const auto it = pending_verifies_.find(suspect);
  if (it == pending_verifies_.end()) return;
  cancel_timer(it->second.ping_timer);
  pending_verifies_.erase(it);
}

void NetworkEntity::arm_stability_cut_timer() {
  cancel_timer(stability_cut_timer_);
  const sim::Time deadline = stability_.deadline(config_.stability_window);
  if (deadline == 0) return;
  const sim::Duration delay = deadline > now() ? deadline - now() : 1;
  stability_cut_timer_ = set_timer(delay, [this]() { check_stability_cut(); });
}

void NetworkEntity::reset_stability_state() {
  for (auto& [suspect, pending] : pending_alerts_) {
    cancel_timer(pending.ping_timer);
    cancel_timer(pending.fallback_timer);
  }
  pending_alerts_.clear();
  for (auto& [suspect, pending] : pending_verifies_) {
    cancel_timer(pending.ping_timer);
  }
  pending_verifies_.clear();
  stability_.clear();
  cancel_timer(stability_cut_timer_);
}

// --------------------------------------------------------------------------
// MH liveness monitoring (faulty-disconnection detection, Section 1)
// --------------------------------------------------------------------------

void NetworkEntity::handle_mh_heartbeat(const MhHeartbeatMsg& msg,
                                        NodeId from) {
  if (config_.mh_failure_timeout == 0) return;
  mh_last_heard_[msg.mh] = MhLiveness{now(), from};
  const auto pending = pending_silent_.find(msg.mh);
  if (pending != pending_silent_.end()) {
    // Counter-observation: the member is alive after all — the pending
    // failure was a flap (heartbeats lost in transit), not a faulty
    // disconnection.
    pending_silent_.erase(pending);
    metrics_.stability_suppressed_flaps.increment();
  }
  if (!mh_sweep_timer_) {
    mh_sweep_timer_ = std::make_unique<proto::PeriodicTimer>(
        network(), id(), config_.mh_failure_timeout / 2,
        [this]() { sweep_silent_members(); });
    mh_sweep_timer_->start();
  }
}

void NetworkEntity::sweep_silent_members() {
  // Sweep ticks are skipped while this AP is crashed, so a gap of more than
  // two periods means it just recovered. Heartbeats sent to it meanwhile
  // were lost, so silence that overlaps its own downtime is no evidence
  // against a member it still claims: monitoring restarts from now.
  if (last_mh_sweep_ != 0 &&
      now() - last_mh_sweep_ > config_.mh_failure_timeout) {
    mh_monitored_since_ = now();
  }
  last_mh_sweep_ = now();
  const sim::Time deadline =
      now() < config_.mh_failure_timeout
          ? 0
          : now() - config_.mh_failure_timeout;
  for (auto it = mh_last_heard_.begin(); it != mh_last_heard_.end();) {
    const Guid mh = it->first;
    if (std::max(it->second.last_heard, mh_monitored_since_) > deadline) {
      ++it;
      continue;
    }
    const MhLiveness liveness = it->second;
    it = mh_last_heard_.erase(it);
    // Only members this AP still claims are ours to report; a handed-off
    // member is monitored by its new AP. The claim, not the table, decides:
    // a join or handoff-in whose round still waits for the token is ours
    // although no table shows it yet.
    if (local_attached_.count(mh) == 0) continue;
    if (config_.stability) {
      // Defer into the stability window instead of failing on the first
      // silent sweep, and counter-probe the member — a live-but-quiet MH
      // answers with an immediate heartbeat, which cancels the pending
      // failure (flap suppression for lost-heartbeat bursts).
      pending_silent_[mh] =
          PendingSilent{liveness.last_heard, now(), liveness.mh_node};
      if (liveness.mh_node.valid()) {
        AlertMsg probe{id(), 0, {}, false};
        const auto bytes = wire_size(probe);
        send(liveness.mh_node, kind::kAlert, std::move(probe), bytes);
      }
      continue;
    }
    enqueue_local_ops(silent_member_fail_ops(mh, liveness.last_heard));
  }
  flush_silent_members();
}

std::vector<MembershipOp> NetworkEntity::silent_member_fail_ops(
    Guid mh, sim::Time last_heard) {
  std::vector<MembershipOp> ops;
  const auto it = local_attached_.find(mh);
  if (it == local_attached_.end()) return ops;  // handed off or departed
  // Liveness is per-member, not per-group: a silent MH is silent in every
  // group it inhabits. One detection event (latency from the last
  // heartbeat heard), one fail op per claimed group, each ending the epoch
  // this AP claimed.
  const std::map<GroupId, std::uint64_t> claims = it->second;
  for (const auto& [gid, claim] : claims) set_claim(mh, gid, 0);
  obs_.tracer.on_member_detected(mh, id(), now() - last_heard, now());
  for (const auto& [gid, claim] : claims) {
    MembershipOp op;
    op.kind = OpKind::kMemberFail;
    op.gid = gid;
    op.seq = next_op_seq();
    op.uid = next_op_uid();
    op.claim_seq = claim;
    op.member = MemberRecord{mh, id(), MemberStatus::kFailed};
    ops.push_back(std::move(op));
  }
  return ops;
}

void NetworkEntity::flush_silent_members() {
  if (pending_silent_.empty()) return;
  std::vector<Guid> expired;
  for (const auto& [mh, pending] : pending_silent_) {
    if (now() - pending.deferred_at >= config_.stability_window) {
      expired.push_back(mh);
    }
  }
  if (expired.empty()) return;
  // Deterministic batch order regardless of hash-map iteration.
  std::sort(expired.begin(), expired.end());
  std::vector<MembershipOp> ops;
  for (const Guid mh : expired) {
    const PendingSilent pending = pending_silent_.at(mh);
    pending_silent_.erase(mh);
    for (MembershipOp& op : silent_member_fail_ops(mh, pending.last_heard)) {
      ops.push_back(std::move(op));
    }
  }
  // A correlated silence (regional outage, crashed coverage area) becomes
  // ONE batched flush — one token round — instead of one round per member.
  metrics_.stability_batched_failures.increment(ops.size());
  enqueue_local_ops(std::move(ops));
}

// --------------------------------------------------------------------------
// Member-list views
// --------------------------------------------------------------------------

std::vector<MemberRecord> NetworkEntity::local_members() const {
  return dir_.merged_members_at(id());
}

std::vector<MemberRecord> NetworkEntity::neighbor_members() const {
  std::vector<MemberRecord> out = dir_.merged_members_at(previous_);
  if (next_ != previous_) {
    const auto more = dir_.merged_members_at(next_);
    out.insert(out.end(), more.begin(), more.end());
  }
  std::sort(out.begin(), out.end(),
            [](const MemberRecord& a, const MemberRecord& b) {
              return a.guid < b.guid;
            });
  return out;
}

// --------------------------------------------------------------------------
// Dedup bookkeeping
// --------------------------------------------------------------------------

void NetworkEntity::remember_disseminated(
    const std::vector<MembershipOp>& ops) {
  for (const MembershipOp& op : ops) {
    if (disseminated_.insert(op.uid).second) {
      disseminated_order_.push_back(op.uid);
      if (disseminated_order_.size() > kDisseminatedCap) {
        disseminated_.erase(disseminated_order_.front());
        disseminated_order_.pop_front();
      }
    }
  }
}

bool NetworkEntity::already_disseminated(std::uint64_t uid) const {
  return disseminated_.count(uid) != 0;
}

void NetworkEntity::remember_round(std::uint64_t round_id) {
  if (recent_rounds_.insert(round_id).second) {
    recent_rounds_order_.push_back(round_id);
    if (recent_rounds_order_.size() > kRecentRoundsCap) {
      recent_rounds_.erase(recent_rounds_order_.front());
      recent_rounds_order_.pop_front();
    }
  }
}

// --------------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------------

void NetworkEntity::deliver(const net::Envelope& env) {
  // Payloads are read in place (shared-immutable); only handle_token takes
  // a copy, which it may stash for replay after a late RingReform.
  switch (env.kind) {
    case kind::kToken:
    case kind::kProbe:
      handle_token(env.payload.get<TokenMsg>(), env.src);
      break;
    case kind::kTokenPassAck:
      handle_token_pass_ack(env.payload.get<TokenPassAckMsg>());
      break;
    case kind::kTokenRequest:
      handle_token_request(env.payload.get<TokenRequestMsg>(), env.src);
      break;
    case kind::kTokenGrant:
      handle_token_grant(env.payload.get<TokenGrantMsg>());
      break;
    case kind::kTokenRelease:
      handle_token_release(env.payload.get<TokenReleaseMsg>(), env.src);
      break;
    case kind::kNotifyParent:
    case kind::kNotifyChild:
      handle_notify(env.payload.get<NotifyMsg>(), env.src);
      break;
    case kind::kHolderAck:
      handle_holder_ack(env.payload.get<HolderAckMsg>());
      break;
    case kind::kRepair:
      handle_repair(env.payload.get<RepairMsg>(), env.src);
      break;
    case kind::kChildRebind:
      handle_child_rebind(env.payload.get<ChildRebindMsg>(), env.src);
      break;
    case kind::kMergeOffer:
      handle_merge_offer(env.payload.get<MergeOfferMsg>(), env.src);
      break;
    case kind::kMergeAccept:
      handle_merge_accept(env.payload.get<MergeAcceptMsg>(), env.src);
      break;
    case kind::kRingReform:
      handle_ring_reform(env.payload.get<RingReformMsg>(), env.src);
      break;
    case kind::kNeJoinRequest:
      handle_ne_join_request(env.payload.get<NeJoinRequestMsg>(), env.src);
      break;
    case kind::kNeLeaveRequest:
      handle_ne_leave_request(env.payload.get<NeLeaveRequestMsg>(), env.src);
      break;
    case kind::kViewSync:
      handle_view_sync(env.payload.get<ViewSyncMsg>(), env.src);
      break;
    case kind::kSnapshotRequest:
      handle_snapshot_request(env.payload.get<SnapshotRequestMsg>(), env.src);
      break;
    case kind::kSnapshot:
      handle_snapshot(env.payload.get<SnapshotMsg>(), env.src);
      break;
    case kind::kSnapshotAck:
      handle_snapshot_ack(env.payload.get<SnapshotAckMsg>(), env.src);
      break;
    case kind::kReconcile:
      handle_reconcile(env.payload.get<ReconcileMsg>(), env.src);
      break;
    case kind::kReconcileAck:
      handle_reconcile_ack(env.payload.get<ReconcileAckMsg>());
      break;
    case kind::kMhRequest: {
      const MhRequestMsg& req = env.payload.get<MhRequestMsg>();
      // Pre-v4 hosts send no gid; they mean the NE's default group.
      const GroupId gid = req.gid.valid() ? req.gid : config_.gid;
      switch (req.kind) {
        case MhRequestKind::kJoin:
          local_member_join(gid, req.mh);
          break;
        case MhRequestKind::kLeave:
          local_member_leave(gid, req.mh);
          break;
        case MhRequestKind::kHandoff:
          local_member_handoff_in(gid, req.mh, req.old_ap);
          break;
        case MhRequestKind::kFail:
          local_member_fail(gid, req.mh);
          break;
      }
      send(env.src, kind::kMhAck, MhAckMsg{req.kind, req.mh, req.gid});
      break;
    }
    case kind::kMhHeartbeat:
      handle_mh_heartbeat(env.payload.get<MhHeartbeatMsg>(), env.src);
      break;
    case kind::kAlert:
      handle_alert(env.payload.get<AlertMsg>(), env.src);
      break;
    case kind::kAlertAck:
      handle_alert_ack(env.payload.get<AlertAckMsg>(), env.src);
      break;
    case kind::kQueryRequest:
      handle_query(env.payload.get<QueryRequestMsg>(), env.src);
      break;
    default:
      break;  // unknown kinds are ignored (forward compatibility)
  }
}

}  // namespace rgb::core
