#include "rgb/message_queue.hpp"

#include <algorithm>

#include "rgb/member_table.hpp"

namespace rgb::core {

namespace {
/// Provenance of a collapsed op: an echo direction stays suppressed only
/// if BOTH constituent ops arrived from it. A fresh local op (no
/// provenance) must make the merged op propagate everywhere again.
void merge_provenance(MembershipOp& pending, const MembershipOp& op) {
  if (pending.from_child_of != op.from_child_of) {
    pending.from_child_of = NodeId{};
  }
  if (pending.from_parent_of != op.from_parent_of) {
    pending.from_parent_of = NodeId{};
  }
}

void append_contributors(std::vector<Contributor>& into,
                         const std::vector<Contributor>& from) {
  for (const auto& c : from) {
    if (c.ne.valid() &&
        std::find(into.begin(), into.end(), c) == into.end()) {
      into.push_back(c);
    }
  }
}
}  // namespace

void MessageQueue::insert(MembershipOp op, Contributor contributor) {
  ++ops_inserted_;
  std::vector<Contributor> contribs;
  if (contributor.ne.valid()) contribs.push_back(contributor);

  // Exact duplicate (retransmitted notification): drop, keep the ack owed.
  for (auto& pending : queue_) {
    if (pending.op.uid == op.uid) {
      append_contributors(pending.contributors, contribs);
      ++ops_collapsed_;
      return;
    }
  }

  if (aggregate_ && op.is_member_op() && try_aggregate(op, contribs)) {
    ++ops_collapsed_;
    return;
  }

  queue_.push_back(Pending{std::move(op), std::move(contribs)});
}

bool MessageQueue::try_aggregate(const MembershipOp& op,
                                 const std::vector<Contributor>& contribs) {
  // Scan from the back: aggregation applies to *successive* ops on the same
  // member, and the newest pending op for that guid is the relevant one.
  for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
    Pending& pending = *it;
    if (!pending.op.is_member_op() ||
        pending.op.member.guid != op.member.guid) {
      continue;
    }

    // A stale op — a disseminated copy of an *older* change racing a newer
    // pending one — must not chain with the newer op: last-writer-wins in
    // the record_precedes lattice the table applies by, so the MQ can never
    // absorb an op the table would have preferred (e.g. a newer attachment
    // epoch racing a detector-inferred failure that carries a fresher seq).
    // Absorb it; its information is superseded by the pending op. Every
    // rule below therefore sees an op that out-ranks the pending one.
    if (!record_precedes(pending.op.claim_seq, pending.op.seq, op.claim_seq,
                         op.seq)) {
      append_contributors(pending.contributors, contribs);
      return true;
    }

    const OpKind prev = pending.op.kind;
    const OpKind next = op.kind;

    // Join then Leave/Fail: the departure alone. It out-ranks the join, so
    // a table that applies it ends where applying both would.
    if (prev == OpKind::kMemberJoin &&
        (next == OpKind::kMemberLeave || next == OpKind::kMemberFail)) {
      MembershipOp departure = op;
      merge_provenance(departure, pending.op);
      pending.op = std::move(departure);
      append_contributors(pending.contributors, contribs);
      return true;
    }

    // Handoff chain: a->b then b->c becomes a->c. The collapsed op stands
    // for the newest attachment, so it must carry that attachment's claim
    // epoch along with its seq — keeping the superseded epoch would leave
    // the collapsed record below the epoch every non-aggregating path
    // disseminates, and the views could never agree.
    if (prev == OpKind::kMemberHandoff && next == OpKind::kMemberHandoff &&
        pending.op.member.access_proxy == op.old_ap) {
      pending.op.member.access_proxy = op.member.access_proxy;
      pending.op.seq = op.seq;  // newest seq wins for idempotence ordering
      pending.op.claim_seq = op.claim_seq;
      pending.op.uid = op.uid;
      merge_provenance(pending.op, op);
      append_contributors(pending.contributors, contribs);
      return true;
    }

    // Join at a then handoff to b: join directly at b.
    if (prev == OpKind::kMemberJoin && next == OpKind::kMemberHandoff) {
      pending.op.member.access_proxy = op.member.access_proxy;
      pending.op.seq = op.seq;
      pending.op.claim_seq = op.claim_seq;
      pending.op.uid = op.uid;
      merge_provenance(pending.op, op);
      append_contributors(pending.contributors, contribs);
      return true;
    }

    // Any other adjacency (leave then re-join, fail then join, ...) must
    // stay ordered: collapsing would lose an observable transition.
    return false;
  }
  return false;
}

MessageQueue::Batch MessageQueue::drain() {
  Batch batch;
  const std::size_t limit =
      aggregate_ ? queue_.size() : std::min<std::size_t>(1, queue_.size());
  batch.ops.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    Pending& front = queue_.front();
    batch.ops.push_back(std::move(front.op));
    append_contributors(batch.contributors, front.contributors);
    queue_.pop_front();
  }
  return batch;
}

}  // namespace rgb::core
