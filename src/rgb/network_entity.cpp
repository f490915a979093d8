#include "rgb/network_entity.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rgb::core {

NodeId elect_leader(const std::vector<NodeId>& roster, NodeId excluded) {
  NodeId best;
  for (const NodeId n : roster) {
    if (n != excluded && (!best.valid() || n < best)) best = n;
  }
  return best;
}

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

bool NetworkEntity::import(const std::vector<TableEntry>& entries) {
  const bool changed = dir_.import_all(entries);
  note_group_count();
  return changed;
}

// --------------------------------------------------------------------------
// Wiring
// --------------------------------------------------------------------------

void NetworkEntity::remember_peer(NodeId n) {
  if (known_peers_set_.insert(n).second) known_peers_.push_back(n);
}

void NetworkEntity::configure_ring(std::vector<NodeId> roster,
                                   NodeId leader) {
  assert(std::find(roster.begin(), roster.end(), id()) != roster.end());
  assert(std::find(roster.begin(), roster.end(), leader) != roster.end());
  install_shape(std::move(roster), leader, /*remember=*/true);
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
  return origin_scoped_id(id(), ++op_uid_counter_);
}

std::uint64_t NetworkEntity::next_round_id() {
  return origin_scoped_id(id(), ++round_counter_);
}

std::uint64_t NetworkEntity::next_notify_id() {
  return origin_scoped_id(id(), ++notify_counter_);
}

// --------------------------------------------------------------------------
// Local membership events (the AP edge)
// --------------------------------------------------------------------------

MembershipOp NetworkEntity::member_op(OpKind kind, GroupId gid, Guid mh,
                                      NodeId ap, std::uint64_t claim_seq) {
  MembershipOp op;
  op.kind = kind;
  op.seq = next_op_seq();
  op.uid = next_op_uid();
  op.claim_seq = claim_seq;
  op.gid = gid;
  op.member = MemberRecord{mh, ap, status_of(kind)};
  return op;
}

void NetworkEntity::local_member_join(GroupId gid, Guid mh) {
  MembershipOp op = member_op(OpKind::kMemberJoin, gid, mh, id(), 0);
  op.claim_seq = op.seq;  // a physical join starts a new attachment epoch
  attachments_.set_claim(mh, gid, op.claim_seq);
  enqueue_local_op(std::move(op));
}

void NetworkEntity::local_member_leave(GroupId gid, Guid mh) {
  enqueue_local_op(member_op(OpKind::kMemberLeave, gid, mh, id(),
                             attachments_.take_claim(gid, mh)));
}

void NetworkEntity::local_member_handoff_in(GroupId gid, Guid mh,
                                            NodeId old_ap) {
  MembershipOp op = member_op(OpKind::kMemberHandoff, gid, mh, id(), 0);
  op.claim_seq = op.seq;  // a handoff-in starts a new attachment epoch
  op.old_ap = old_ap;
  attachments_.set_claim(mh, gid, op.claim_seq);
  enqueue_local_op(std::move(op));
}

void NetworkEntity::local_member_fail(GroupId gid, Guid mh) {
  enqueue_local_op(member_op(OpKind::kMemberFail, gid, mh, id(),
                             attachments_.take_claim(gid, mh)));
}

void NetworkEntity::enqueue_local_op(MembershipOp op) {
  // Single funnel for locally-originated ops: the birth stamp anchors the
  // dissemination/join latency instruments downstream. The send chain the
  // enqueue triggers (token request/grant, the token hop itself) executes
  // under the birth's causal context so its hops inherit the op's trace.
  op.born = now();
  const obs::OpTracer::Scope scope{
      obs_.tracer, obs_.tracer.on_op_born(op, id(), now())};
  enqueue_op(std::move(op), Contributor{});
}

void NetworkEntity::enqueue_local_ops(std::vector<MembershipOp> ops) {
  if (ops.empty()) return;
  const std::uint64_t collapsed_before = dir_.ops_collapsed();
  // A batch triggers one shared send chain; its hops are attributed to the
  // first op's trace (each op still gets its own root span).
  obs::OpTracer::Context birth = obs_.tracer.current();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].born = now();
    const obs::OpTracer::Context ctx =
        obs_.tracer.on_op_born(ops[i], id(), now());
    if (i == 0) birth = ctx;
  }
  const obs::OpTracer::Scope scope{obs_.tracer, birth};
  dir_.insert_batch(std::move(ops));
  // One activity kick for the whole batch: at a leader with a free token
  // the per-op path would race the first op out in its own round while the
  // rest of the batch was still being inserted.
  after_insert(collapsed_before);
}

void NetworkEntity::enqueue_op(MembershipOp op, Contributor contributor) {
  const std::uint64_t collapsed_before = dir_.ops_collapsed();
  dir_.insert(std::move(op), contributor);
  after_insert(collapsed_before);
}

void NetworkEntity::after_insert(std::uint64_t collapsed_before) {
  note_group_count();
  metrics_.ops_aggregated.increment(dir_.ops_collapsed() - collapsed_before);
  on_mq_activity();
}

void NetworkEntity::send_holder_ack(NodeId to,
                                    std::vector<std::uint64_t> notify_ids) {
  HolderAckMsg ack{std::move(notify_ids)};
  const auto bytes = wire_size(ack);
  send(to, kind::kHolderAck, std::move(ack), bytes);
  metrics_.holder_acks.increment();
}

void NetworkEntity::enqueue_ne_op(OpKind kind, NodeId ne,
                                  Contributor contributor) {
  MembershipOp op;
  op.kind = kind;
  op.seq = next_op_seq();
  op.uid = next_op_uid();
  op.ne = ne;
  if (kind == OpKind::kNeJoin) op.ne_after = id();
  op.born = now();
  // NE ops born inside a handler open their own trace (the join or leave
  // is new protocol work); the triggered sends execute under it.
  const obs::OpTracer::Scope scope{
      obs_.tracer, obs_.tracer.on_op_born(op, id(), now())};
  enqueue_op(std::move(op), contributor);
}

// --------------------------------------------------------------------------
// Round engine
// --------------------------------------------------------------------------

void NetworkEntity::on_mq_activity() {
  if (dir_.queue_empty() || holding_round_) return;
  if (!leader_.valid()) return;  // not in a ring yet
  if (is_leader()) {
    if (token_free_) {
      start_round(take_token());
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
        stability_.report_suspect(leader_);
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
  if (token_free_) {
    send(msg.requester, kind::kTokenGrant, TokenGrantMsg{take_token()});
    arm_round_watchdog(active_round_id_);
  } else if (std::find(pending_grants_.begin(), pending_grants_.end(),
                       msg.requester) == pending_grants_.end()) {
    pending_grants_.push_back(msg.requester);
  }
}

void NetworkEntity::handle_token_grant(const TokenGrantMsg& msg) {
  cancel_timer(request_retx_timer_);
  token_requested_ = false;
  if (dir_.queue_empty()) {
    // Nothing left to send: an earlier round of this node took the ops.
    send(leader_, kind::kTokenRelease, TokenReleaseMsg{msg.round_id});
    return;
  }
  start_round(msg.round_id);
}

void NetworkEntity::handle_token_release(const TokenReleaseMsg& msg) {
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
  Token token{kDefaultGroup, id(), round_id, std::move(batch.ops)};

  metrics_.rounds_started.increment();
  obs_.tracer.record(now(), id(), obs::FlightKind::kRoundStarted,
                     token.round_id, token.ops.size());
  recent_rounds_.insert(token.round_id);
  apply_ops_and_notify(token);
  for (const MembershipOp& op : token.ops) disseminated_.insert(op.uid);

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
  holding_round_ = false;
  // Un-ack'd contributors keep retransmitting their notifications, so only
  // the ops themselves need to re-enter the queue. Dissemination dedup and
  // the seq-idempotent table apply make the replay harmless where the lost
  // token did land.
  round_contributors_.clear();
  std::vector<MembershipOp> replay = std::move(pending_round_ops_);
  pending_round_ops_.clear();
  if (is_leader()) token_free_ = true;
  for (MembershipOp& op : replay) enqueue_op(std::move(op), Contributor{});
  if (is_leader()) grant_next();
  on_mq_activity();
}

void NetworkEntity::start_probe_round() {
  if (!is_leader() || !token_free_ || roster_.size() < 2) return;
  my_round_id_ = take_token();
  holding_round_ = true;
  round_contributors_.clear();
  Token token{kDefaultGroup, id(), my_round_id_, {}};
  recent_rounds_.insert(token.round_id);
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

  if (!recent_rounds_.insert(token.round_id)) {
    // Duplicate delivery (our TokenPassAck was lost and the hop was
    // retransmitted). We already applied and forwarded this round.
    return;
  }

  apply_ops_and_notify(token);
  for (const MembershipOp& op : token.ops) disseminated_.insert(op.uid);

  if (next_ == id()) {
    // Degenerate repaired ring: we are alone; the round cannot get back to
    // its holder. Complete it here.
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
      // Joins are skipped: a claim lookup per join at every AP would tax
      // the join path. A join that out-ranked a departure in an MQ leaves
      // the claim it ended to reaffirmation (message_queue.hpp).
      if (op.kind != OpKind::kMemberJoin) attachments_.on_departure(op);
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
          snapshots_.schedule_flush(/*to_ring=*/false, /*to_child=*/true);
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
  for (auto& [ne, ids] : acks) send_holder_ack(ne, std::move(ids));
  round_contributors_.clear();

  if (token.ops.empty()) {
    metrics_.empty_probe_rounds.increment();
  } else {
    metrics_.rounds_completed.increment();
    obs_.tracer.record(now(), id(), obs::FlightKind::kRoundCompleted,
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
      if (!dir_.queue_empty()) start_round(take_token());
      continue;
    }
    send(grantee, kind::kTokenGrant, TokenGrantMsg{take_token()});
    arm_round_watchdog(active_round_id_);
  }
  if (token_free_ && !dir_.queue_empty() && !holding_round_) {
    start_round(take_token());
  }
}

std::uint64_t NetworkEntity::take_token() {
  token_free_ = false;
  active_round_id_ = next_round_id();
  return active_round_id_;
}

void NetworkEntity::arm_round_watchdog(std::uint64_t round_id) {
  cancel_timer(round_watchdog_);
  round_watchdog_ = set_timer(config_.round_timeout, [this, round_id]() {
    if (token_free_ || active_round_id_ != round_id) return;
    // The granted round never released: holder presumed dead. Reclaim; the
    // contributors of the lost round will retransmit their notifications.
    token_free_ = true;
    grant_next();
  });
}

// --------------------------------------------------------------------------
// Acked sends: the reliable token pass and its kin
// --------------------------------------------------------------------------

void NetworkEntity::transmit(PendingSend& pending, sim::Duration timeout,
                             std::function<void()> on_timeout) {
  send(pending.dest, pending.kind, pending.payload, pending.bytes);
  pending.timer = set_timer(timeout, std::move(on_timeout));
}

void NetworkEntity::send_token_to(NodeId target, Token token) {
  const std::uint64_t round_id = token.round_id;
  const net::MessageKind kind =
      token.ops.empty() ? kind::kProbe : kind::kToken;
  TokenMsg msg{std::move(token)};
  const auto bytes = wire_size(msg);
  PendingSend& hop = inflight_hops_[round_id] =
      PendingSend{target, kind, std::move(msg), bytes};
  send_hop(round_id, hop);
}

void NetworkEntity::send_hop(std::uint64_t round_id, PendingSend& hop) {
  transmit(hop, config_.retx_timeout,
           [this, round_id]() { on_token_retx_timeout(round_id); });
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
  PendingSend& hop = it->second;
  if (++hop.retx <= config_.max_retx) {
    metrics_.token_retransmits.increment();
    obs_.tracer.record(now(), id(), obs::FlightKind::kTokenRetx, round_id,
                       static_cast<std::uint64_t>(hop.retx));
    send_hop(round_id, hop);
    return;
  }
  const NodeId target = hop.dest;
  if (config_.stability && in_roster(target) && target != id()) {
    // Stability: file an alert and keep the hop alive at retx cadence.
    // Whatever resolves the suspect — a batched cut, a RepairMsg from a
    // peer, or this observer's own stability-timeout fallback — removes it
    // from the roster, and the next timeout falls through to the repair
    // and reroute below. Liveness stays bounded by stability_timeout.
    stability_.report_suspect(target);
    // At an aggregating leader the alert can complete a cut on the spot;
    // the cut then rerouted this hop and erased the entry `hop` refers to.
    const auto live = inflight_hops_.find(round_id);
    if (live == inflight_hops_.end() || live->second.dest != target) return;
    metrics_.token_retransmits.increment();
    send_hop(round_id, live->second);
    return;
  }
  declare_cut({target});
  // The repair normally reroutes this hop. When it could not — the target
  // was already spliced out by an earlier repair or reform, so declare_cut
  // returned without touching the ring — the hop must still not leak: an
  // orphaned hop blocks its round forever, which at a leader freezes the
  // token (every later request queues unanswered until the requesters
  // falsely declare *us* faulty).
  const auto orphan = inflight_hops_.find(round_id);
  if (orphan == inflight_hops_.end()) return;
  Token token = orphan->second.payload.get<TokenMsg>().token;
  cancel_timer(orphan->second.timer);
  inflight_hops_.erase(orphan);
  if (token.holder == id()) {
    complete_round(token);
  } else {
    const NodeId to = next_ != id() ? next_ : token.holder;
    send_token_to(to, std::move(token));
  }
}

// --------------------------------------------------------------------------
// Repair, reforms & rosters
// --------------------------------------------------------------------------

void NetworkEntity::declare_cut(const std::vector<NodeId>& suspects) {
  std::vector<NodeId> cut;
  for (const NodeId f : suspects) {
    // Not in the roster: already repaired (several hops detected it).
    if (f == id() || !f.valid() || !in_roster(f)) continue;
    if (std::find(cut.begin(), cut.end(), f) == cut.end()) cut.push_back(f);
  }
  if (cut.empty()) return;
  metrics_.repairs.increment();
  bool was_leader = false;
  for (const NodeId faulty : cut) {
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
    was_leader = was_leader || (faulty == leader_);
    remove_from_roster(faulty);
  }

  if (was_leader) replace_leader(cut.front(), /*counted=*/true);
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
        // A detector-inferred failure ends only the epoch it observed: if
        // the member has since re-attached elsewhere (a handoff this
        // accusation races with across a partition), the newer epoch
        // out-ranks this op in record_precedes order no matter which seq
        // disseminates first.
        ops.push_back(member_op(OpKind::kMemberFail, gid, rec.guid,
                                rec.access_proxy,
                                dir_.claim_of(gid, rec.guid)));
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
    if (in_cut(it->second.dest)) {
      cancel_timer(it->second.timer);
      reroute.push_back(it->second.payload.get<TokenMsg>().token);
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

void NetworkEntity::replace_leader(NodeId departed, bool counted) {
  leader_ = elect_leader(roster_);
  if (counted) {
    metrics_.leader_failovers.increment();
    obs_.tracer.on_view_change(obs::FlightKind::kLeaderFailover, id(),
                               leader_.value(), departed.value(), now());
  }
  if (leader_ == id()) adopt_leadership();
}

void NetworkEntity::adopt_leadership() {
  leader_ = id();
  token_requested_ = false;
  cancel_timer(request_retx_timer_);
  settle_token();
  grant_next();
}

void NetworkEntity::settle_token() {
  if (!is_leader()) {
    token_free_ = false;
    return;
  }
  token_free_ = !holding_round_ && inflight_hops_.empty();
  // A busy token that is not a round we hold belongs to a round in flight
  // somewhere in the churned ring; its release can miss us (the holder may
  // address a stale leader). Arm the reclaim watchdog so the token cannot
  // stay un-free forever — a live release cancels it.
  if (!token_free_ && !holding_round_) arm_round_watchdog(active_round_id_);
  rebind_parent(id());
}

void NetworkEntity::rebind_parent(NodeId leader) {
  if (parent_.valid()) {
    send(parent_, kind::kChildRebind, ChildRebindMsg{leader});
  }
}

void NetworkEntity::remove_from_roster(NodeId node) {
  roster_.erase(std::remove(roster_.begin(), roster_.end(), node),
                roster_.end());
  roster_set_.erase(node);
  // The verdict is in: any pending stability evidence about this node is
  // consumed (the alert resolved) rather than left to fire again.
  stability_.forget(node);
}

void NetworkEntity::handle_repair(const RepairMsg& msg) {
  for (const NodeId f : msg.faulty) {
    if (f == id()) continue;  // false accusation; merge reconciles later
    if (!in_roster(f)) continue;  // already excluded
    const bool was_leader = (f == leader_);
    remove_from_roster(f);
    obs_.tracer.on_view_change(obs::FlightKind::kRepair, id(), f.value(), 0,
                               now());
    if (was_leader) replace_leader(f, /*counted=*/true);
  }
  // Pointers re-derive from the repaired roster; once every survivor has
  // processed the broadcast the views agree.
  recompute_pointers();
}

void NetworkEntity::apply_ne_op(const MembershipOp& op) {
  // Member ops are seq-idempotent, NE ops are not: replaying a stale
  // NE-Failure (an abandoned round's requeue, or a round delivered late
  // across a crash window) would re-splice a node that a merge has since
  // re-admitted. Apply each NE op at most once per node, keyed by uid.
  if (op.uid != 0) {
    if (!applied_ne_ops_.insert(op.uid)) return;
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
      remove_from_roster(op.ne);
      obs_.tracer.on_view_change(op.kind == OpKind::kNeFail
                                     ? obs::FlightKind::kRepair
                                     : obs::FlightKind::kNeLeave,
                                 id(), op.ne.value(), 0, now());
      // An NE-Failure op is how a follower whose RepairMsg was lost learns
      // of its leader's failure: that is a failover as much as the repair
      // broadcast's. A graceful leave is not.
      if (was_leader) {
        replace_leader(op.ne, /*counted=*/op.kind == OpKind::kNeFail);
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

void NetworkEntity::install_shape(std::vector<NodeId> roster, NodeId leader,
                                  bool remember) {
  roster_ = std::move(roster);
  roster_set_.clear();
  roster_set_.insert(roster_.begin(), roster_.end());
  if (remember) {
    for (const NodeId n : roster_) remember_peer(n);
  }
  leader_ = leader;
  recompute_pointers();
}

void NetworkEntity::handle_ring_reform(const RingReformMsg& msg, NodeId from) {
  obs_.tracer.on_view_change(obs::FlightKind::kRingReform, id(),
                             msg.leader.value(), msg.roster.size(), now());
  install_shape(msg.roster, msg.leader, /*remember=*/true);
  import(msg.entries);
  ring_ok_ = true;
  settle_token();
  if (is_leader()) grant_next();
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
    snapshots_.request_from(from);
  }
  // A reform is a heal-path completion: re-aim any request chain at the
  // (possibly new) leader and re-anchor local claims against the
  // re-baselined table.
  rearm_after_reconfigure();
}

void NetworkEntity::adopt_shape(NodeId from, const std::vector<NodeId>& roster,
                                NodeId leader) {
  obs_.tracer.on_view_change(obs::FlightKind::kShapeAdopt, id(), from.value(),
                             roster.size(), now());
  install_shape(roster, leader, /*remember=*/true);
  ring_ok_ = true;
  if (!is_leader()) token_free_ = false;
  rearm_after_reconfigure();
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

  import(entries);

  metrics_.merges.increment();
  obs_.tracer.on_view_change(obs::FlightKind::kMerge, id(),
                             their_roster.empty() ? 0
                                                  : their_roster.front().value(),
                             merged.size(), now());
  install_shape(std::move(merged), new_leader, /*remember=*/false);
  broadcast_ring_reform(roster_, leader_);
  settle_token();
  // Merge completion is the canonical post-heal moment: the fragments'
  // tables just unioned, so any cross-partition false-failure record is
  // now visible locally — re-anchor claims against the merged view and
  // let queued fragment ops flow through the merged ring immediately.
  rearm_after_reconfigure();
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

void NetworkEntity::handle_child_rebind(const ChildRebindMsg& msg) {
  child_ = msg.new_child_leader;
  child_ok_ = child_.valid();
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
  attachments_.schedule_reconcile();
}

// --------------------------------------------------------------------------
// Inter-ring notifications
// --------------------------------------------------------------------------

void NetworkEntity::send_notify(NodeId dest, std::vector<MembershipOp> ops,
                                bool downward) {
  const std::uint64_t nid = next_notify_id();
  NotifyMsg msg{std::move(ops), nid, downward};
  const auto bytes = wire_size(msg);
  PendingSend& pending =
      pending_notifies_
          .emplace(nid, PendingSend{dest,
                                    downward ? kind::kNotifyChild
                                             : kind::kNotifyParent,
                                    std::move(msg), bytes})
          .first->second;
  transmit(pending, config_.notify_timeout,
           [this, nid]() { on_notify_retx_timeout(nid); });
  metrics_.notifications_sent.increment();
}

void NetworkEntity::on_notify_retx_timeout(std::uint64_t notify_id) {
  const auto it = pending_notifies_.find(notify_id);
  if (it == pending_notifies_.end()) return;
  PendingSend& pending = it->second;
  if (++pending.retx <= config_.max_notify_retx) {
    metrics_.notify_retransmits.increment();
    transmit(pending, config_.notify_timeout,
             [this, notify_id]() { on_notify_retx_timeout(notify_id); });
    return;
  }
  // The inter-ring edge is down: reflect it in ParentOK/ChildOK (paper
  // Section 4.2 semantics). Probing/merge may later restore the flag.
  const bool downward = pending.kind == kind::kNotifyChild;
  (downward ? child_ok_ : parent_ok_) = false;
  pending_notifies_.erase(it);
}

void NetworkEntity::handle_notify(const NotifyMsg& msg, NodeId from) {
  // Already-disseminated batch (our Holder-Ack got lost): ack immediately,
  // do not re-propagate.
  if (std::all_of(msg.ops.begin(), msg.ops.end(),
                  [this](const MembershipOp& op) {
                    return disseminated_.contains(op.uid);
                  })) {
    send_holder_ack(from, {msg.notify_id});
    return;
  }

  const Contributor contributor{from, msg.notify_id};
  for (MembershipOp op : msg.ops) {
    op.from_parent_of = msg.downward ? id() : NodeId{};
    op.from_child_of = msg.downward ? NodeId{} : id();
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
// Probe tick
// --------------------------------------------------------------------------

void NetworkEntity::on_probe_tick() {
  view_sync_.new_tick();
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
  }
  attachments_.reaffirm();
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
  view_sync_.tick();
}

// --------------------------------------------------------------------------
// Dynamic NE membership
// --------------------------------------------------------------------------

void NetworkEntity::request_ring_join(NodeId ring_leader) {
  const std::uint64_t nid = next_notify_id();
  send(ring_leader, kind::kNeJoinRequest, NeJoinRequestMsg{id(), nid});
}

void NetworkEntity::handle_ne_join_request(const NeJoinRequestMsg& msg) {
  if (is_leader()) {
    enqueue_ne_op(OpKind::kNeJoin, msg.joiner,
                  Contributor{msg.joiner, msg.notify_id});
  } else if (leader_.valid() && leader_ != id()) {
    send(leader_, kind::kNeJoinRequest, msg);
  }
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
    broadcast_ring_reform(rest, successor);
    rebind_parent(successor);
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
  pending_round_ops_.clear();
  snapshots_.reset();
  attachments_.cancel_reconcile();
  // Stability evidence is ring-scoped: alerts and pending cuts reference a
  // roster this NE no longer has.
  stability_.reset();
}

void NetworkEntity::handle_ne_leave_request(const NeLeaveRequestMsg& msg) {
  if (is_leader()) {
    enqueue_ne_op(OpKind::kNeLeave, msg.leaver,
                  Contributor{msg.leaver, msg.notify_id});
  } else if (leader_.valid() && leader_ != id()) {
    send(leader_, kind::kNeLeaveRequest, msg);
  }
}

void NetworkEntity::form_singleton_ring() {
  configure_ring({id()}, id());
  rebind_parent(id());
}

// --------------------------------------------------------------------------
// Queries and member-list views
// --------------------------------------------------------------------------

void NetworkEntity::handle_query(const QueryRequestMsg& msg, NodeId from) {
  const NodeId reply_to = msg.reply_to.valid() ? msg.reply_to : from;
  // Group-scoped queries (v4) answer from that group's table alone; a
  // group-less query keeps the pre-v4 meaning — every member this NE
  // knows, deduplicated across groups.
  QueryReplyMsg reply{msg.query_id, msg.gid.valid()
                                        ? dir_.group_snapshot(msg.gid)
                                        : dir_.merged_snapshot()};
  const auto reply_bytes = wire_size(reply);
  send(reply_to, kind::kQueryReply, std::move(reply), reply_bytes);
}

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
      handle_token_release(env.payload.get<TokenReleaseMsg>());
      break;
    case kind::kNotifyParent:
    case kind::kNotifyChild:
      handle_notify(env.payload.get<NotifyMsg>(), env.src);
      break;
    case kind::kHolderAck:
      handle_holder_ack(env.payload.get<HolderAckMsg>());
      break;
    case kind::kRepair:
      handle_repair(env.payload.get<RepairMsg>());
      break;
    case kind::kChildRebind:
      handle_child_rebind(env.payload.get<ChildRebindMsg>());
      break;
    case kind::kMergeOffer:
      view_sync_.handle_merge_offer(env.payload.get<MergeOfferMsg>(),
                                    env.src);
      break;
    case kind::kMergeAccept:
      view_sync_.handle_merge_accept(env.payload.get<MergeAcceptMsg>(),
                                     env.src);
      break;
    case kind::kRingReform:
      handle_ring_reform(env.payload.get<RingReformMsg>(), env.src);
      break;
    case kind::kNeJoinRequest:
      handle_ne_join_request(env.payload.get<NeJoinRequestMsg>());
      break;
    case kind::kNeLeaveRequest:
      handle_ne_leave_request(env.payload.get<NeLeaveRequestMsg>());
      break;
    case kind::kViewSync:
      view_sync_.handle_view_sync(env.payload.get<ViewSyncMsg>(), env.src);
      break;
    case kind::kSnapshotRequest:
      snapshots_.handle_request(env.payload.get<SnapshotRequestMsg>(),
                                env.src);
      break;
    case kind::kSnapshot:
      snapshots_.handle_snapshot(env.payload.get<SnapshotMsg>(), env.src);
      break;
    case kind::kSnapshotAck:
      snapshots_.handle_ack(env.payload.get<SnapshotAckMsg>(), env.src);
      break;
    case kind::kReconcile:
      attachments_.handle_reconcile(env.payload.get<ReconcileMsg>(), env.src);
      break;
    case kind::kReconcileAck:
      attachments_.handle_reconcile_ack(env.payload.get<ReconcileAckMsg>());
      break;
    case kind::kMhRequest: {
      const MhRequestMsg& req = env.payload.get<MhRequestMsg>();
      // Pre-v4 hosts send no gid; they mean the NE's default group.
      const GroupId gid = req.gid.valid() ? req.gid : kDefaultGroup;
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
      attachments_.handle_mh_heartbeat(env.payload.get<MhHeartbeatMsg>(),
                                       env.src);
      break;
    case kind::kAlert:
      stability_.handle_alert(env.payload.get<AlertMsg>(), env.src);
      break;
    case kind::kAlertAck:
      stability_.handle_alert_ack(env.payload.get<AlertAckMsg>());
      break;
    case kind::kQueryRequest:
      handle_query(env.payload.get<QueryRequestMsg>(), env.src);
      break;
    default:
      break;  // unknown kinds are ignored (forward compatibility)
  }
}

}  // namespace rgb::core
