#include "rgb/attachments.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "rgb/network_entity.hpp"

namespace rgb::core {

namespace {
/// Debounce between a reconcile trigger (merge/reform completion, shape
/// adoption, recovery) and the claim exchange, letting the trigger's entry
/// imports land first so claims are checked against the merged table.
constexpr sim::Duration kReconcileDelay = sim::msec(100);
}  // namespace

// --------------------------------------------------------------------------
// Claims and reaffirmation
// --------------------------------------------------------------------------

std::uint64_t Attachments::set_claim(Guid mh, GroupId gid,
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

std::uint64_t Attachments::take_claim(GroupId gid, Guid mh) {
  const std::uint64_t claim = set_claim(mh, gid, 0);
  return claim != 0 ? claim : ne_.dir_.claim_of(gid, mh);
}

void Attachments::on_handoff_away(const MembershipOp& op) {
  const auto it = local_attached_.find(op.member.guid);
  if (it == local_attached_.end()) return;
  const auto git = it->second.find(op.gid);
  if (git != it->second.end() && git->second < op.claim_seq) {
    set_claim(op.member.guid, op.gid, 0);
  }
}

std::vector<AttachClaim> Attachments::local_claims() const {
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

void Attachments::reaffirm() {
  if (local_attached_.empty()) return;
  const GroupDirectory& dir = ne_.dir_;
  if (!reaffirm_due_ && reaffirmed_at_ == dir.change_count()) return;
  reaffirm_due_ = false;
  reaffirmed_at_ = dir.change_count();
  std::vector<std::pair<Guid, GroupId>> reannounce, departed;
  for (const auto& [mh, by_gid] : local_attached_) {
    for (const auto& [gid, claim_seq] : by_gid) {
      const auto entry = dir.lookup(gid, mh);
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
          rec.access_proxy == ne_.id()) {
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
        << ne_.id() << " re-anchors falsely failed local member "
        << mh.value() << " (group " << gid.value() << ", epoch " << claim
        << ")";
    ne_.metrics_.reconcile_reanchors.increment();
    ne_.obs_.tracer.record(ne_.now(), ne_.id(),
                           obs::FlightKind::kReconcileReanchor, mh.value(),
                           claim);
    // Re-anchors the existing epoch with a fresh op sequence: the fresh
    // seq out-ranks the false record *within* the epoch, while the
    // preserved claim_seq keeps the assertion strictly below any newer
    // physical attachment (a handoff the accusation raced with) in
    // record_precedes order. The claim itself stays as it is — a repair
    // is not a new physical attachment.
    ne_.enqueue_local_op(
        ne_.member_op(OpKind::kMemberJoin, gid, mh, ne_.id(), claim));
  }
}

// --------------------------------------------------------------------------
// Post-heal reconciliation round (kReconcile)
// --------------------------------------------------------------------------

void Attachments::schedule_reconcile() {
  if (local_attached_.empty()) return;
  // Debounce: merge storms (several reforms while fragments knit back
  // together) collapse into one exchange once the shape settles, and the
  // trigger's entry imports land before the claims are checked.
  ne_.cancel_timer(reconcile_timer_);
  reconcile_timer_ =
      ne_.set_timer(kReconcileDelay, [this]() { run_reconcile_round(); });
}

void Attachments::cancel_reconcile() {
  ne_.cancel_timer(reconcile_timer_);
  for (auto& [rid, pending] : pending_reconciles_) {
    ne_.cancel_timer(pending.timer);
  }
  pending_reconciles_.clear();
}

void Attachments::run_reconcile_round() {
  if (local_attached_.empty()) return;
  const NodeId target = ne_.is_leader() ? ne_.parent_ : ne_.leader_;
  if (!target.valid() || target == ne_.id()) {
    // Nobody above us to ask (singleton / detached root): our own table is
    // the best merged view there is — evaluate the claims against it.
    // Not counted in reconcile_rounds, which meters actual claim
    // exchanges (the oracle-visibility contract of the metric).
    reaffirm();
    return;
  }
  ne_.metrics_.reconcile_rounds.increment();
  ne_.obs_.tracer.record(ne_.now(), ne_.id(), obs::FlightKind::kReconcileRound,
                         local_attached_.size(), target.value());
  const std::uint64_t rid = origin_scoped_id(ne_.id(), ++reconcile_counter_);
  ReconcileMsg msg{rid, local_claims()};
  RGB_LOG(kInfo, "reconcile") << ne_.now() << " " << ne_.id() << " asserts "
                              << msg.claims.size() << " claim(s) to "
                              << target;
  const auto bytes = wire_size(msg);
  PendingSend& pending = pending_reconciles_[rid] =
      PendingSend{target, kind::kReconcile, std::move(msg), bytes};
  ne_.transmit(pending, ne_.config_.notify_timeout,
               [this, rid]() { on_reconcile_timeout(rid); });
}

void Attachments::on_reconcile_timeout(std::uint64_t reconcile_id) {
  const auto it = pending_reconciles_.find(reconcile_id);
  if (it == pending_reconciles_.end()) return;
  if (++it->second.retx <= ne_.config_.max_notify_retx) {
    ne_.metrics_.reconcile_retransmits.increment();
    ne_.transmit(
        it->second, ne_.config_.notify_timeout,
        [this, reconcile_id]() { on_reconcile_timeout(reconcile_id); });
    return;
  }
  // The responder is unreachable: drop the exchange. The probe-tick
  // reaffirmation pass keeps the same decision logic running against
  // whatever anti-entropy brings in, so giving up loses promptness, not
  // correctness.
  ne_.metrics_.reconcile_give_ups.increment();
  pending_reconciles_.erase(it);
}

void Attachments::handle_reconcile(const ReconcileMsg& msg, NodeId from) {
  ReconcileAckMsg ack;
  ack.reconcile_id = msg.reconcile_id;
  for (const AttachClaim& claim : msg.claims) {
    // Pre-v4 claims carry no group: answer against the default group.
    const GroupId gid = claim.gid.valid() ? claim.gid : kDefaultGroup;
    const auto entry = ne_.dir_.lookup(gid, claim.mh);
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
  ne_.metrics_.reconcile_replies.increment();
  const auto bytes = wire_size(ack);
  ne_.send(from, kind::kReconcileAck, std::move(ack), bytes);
}

void Attachments::handle_reconcile_ack(const ReconcileAckMsg& msg) {
  const auto it = pending_reconciles_.find(msg.reconcile_id);
  if (it == pending_reconciles_.end()) return;  // stale or duplicate ack
  ne_.cancel_timer(it->second.timer);
  pending_reconciles_.erase(it);
  ne_.import(msg.superseding);
  // Re-evaluate every claim against the responder-informed table: the
  // shared decision core drops superseded epochs and re-anchors falsified
  // ones through the normal round machinery.
  reaffirm();
}

// --------------------------------------------------------------------------
// MH liveness monitoring (faulty-disconnection detection, Section 1)
// --------------------------------------------------------------------------

void Attachments::handle_mh_heartbeat(const MhHeartbeatMsg& msg,
                                      NodeId from) {
  if (ne_.config_.mh_failure_timeout == 0) return;
  mh_last_heard_[msg.mh] = MhLiveness{ne_.now(), from};
  const auto pending = pending_silent_.find(msg.mh);
  if (pending != pending_silent_.end()) {
    // Counter-observation: the member is alive after all — the pending
    // failure was a flap (heartbeats lost in transit), not a faulty
    // disconnection.
    pending_silent_.erase(pending);
    ne_.metrics_.stability_suppressed_flaps.increment();
  }
  if (!mh_sweep_timer_) {
    mh_sweep_timer_ = std::make_unique<proto::PeriodicTimer>(
        ne_.network(), ne_.id(), ne_.config_.mh_failure_timeout / 2,
        [this]() { sweep_silent_members(); });
    mh_sweep_timer_->start();
  }
}

void Attachments::sweep_silent_members() {
  const sim::Time now = ne_.now();
  const sim::Duration timeout = ne_.config_.mh_failure_timeout;
  // Sweep ticks are skipped while this AP is crashed, so a gap of more than
  // two periods means it just recovered. Heartbeats sent to it meanwhile
  // were lost, so silence that overlaps its own downtime is no evidence
  // against a member it still claims: monitoring restarts from now.
  if (last_mh_sweep_ != 0 && now - last_mh_sweep_ > timeout) {
    mh_monitored_since_ = now;
  }
  last_mh_sweep_ = now;
  const sim::Time deadline = now < timeout ? 0 : now - timeout;
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
    if (ne_.config_.stability) {
      // Defer into the stability window instead of failing on the first
      // silent sweep, and counter-probe the member — a live-but-quiet MH
      // answers with an immediate heartbeat, which cancels the pending
      // failure (flap suppression for lost-heartbeat bursts).
      pending_silent_[mh] =
          PendingSilent{liveness.last_heard, now, liveness.mh_node};
      if (liveness.mh_node.valid()) {
        AlertMsg probe{ne_.id(), 0, {}, false};
        const auto bytes = wire_size(probe);
        ne_.send(liveness.mh_node, kind::kAlert, std::move(probe), bytes);
      }
      continue;
    }
    ne_.enqueue_local_ops(silent_member_fail_ops(mh, liveness.last_heard));
  }
  flush_silent_members();
}

std::vector<MembershipOp> Attachments::silent_member_fail_ops(
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
  ne_.obs_.tracer.on_member_detected(mh, ne_.id(), ne_.now() - last_heard,
                                     ne_.now());
  for (const auto& [gid, claim] : claims) {
    ops.push_back(
        ne_.member_op(OpKind::kMemberFail, gid, mh, ne_.id(), claim));
  }
  return ops;
}

void Attachments::flush_silent_members() {
  if (pending_silent_.empty()) return;
  std::vector<Guid> expired;
  for (const auto& [mh, pending] : pending_silent_) {
    if (ne_.now() - pending.deferred_at >= ne_.config_.stability_window) {
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
  ne_.metrics_.stability_batched_failures.increment(ops.size());
  ne_.enqueue_local_ops(std::move(ops));
}

}  // namespace rgb::core
