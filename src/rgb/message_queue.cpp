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

void add_contributor(std::vector<Contributor>& into, const Contributor& c) {
  if (c.ne.valid() && std::find(into.begin(), into.end(), c) == into.end()) {
    into.push_back(c);
  }
}
}  // namespace

void MessageQueue::insert(MembershipOp op, Contributor contributor) {
  ++ops_inserted_;
  if (try_aggregate(op, contributor)) {
    ++ops_collapsed_;
    return;
  }
  queue_.push_back(Pending{std::move(op), {}});
  add_contributor(queue_.back().contributors, contributor);
}

bool MessageQueue::try_aggregate(MembershipOp& op,
                                 const Contributor& contributor) {
  // A retransmitted copy meets the op it repeats. When aggregating, a
  // member op also meets its member's pending op, which is the only one:
  // every earlier op on the member met it too.
  const bool by_member = aggregate_ && op.is_member_op();
  const auto meets = [&](const Pending& pending) {
    return pending.op.uid == op.uid ||
           (by_member && pending.op.is_member_op() &&
            pending.op.member.guid == op.member.guid);
  };
  const auto it = std::find_if(queue_.begin(), queue_.end(), meets);
  if (it == queue_.end()) return false;
  // The higher-ranked op stays, and the ack owed to `contributor` rides
  // with it.
  if (record_precedes(entry_of(it->op), entry_of(op))) {
    merge_provenance(op, it->op);
    it->op = std::move(op);
  }
  add_contributor(it->contributors, contributor);
  return true;
}

MessageQueue::Batch MessageQueue::drain() {
  Batch batch;
  const std::size_t limit =
      aggregate_ ? queue_.size() : std::min<std::size_t>(1, queue_.size());
  batch.ops.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    Pending& front = queue_.front();
    batch.ops.push_back(std::move(front.op));
    for (const Contributor& c : front.contributors) {
      add_contributor(batch.contributors, c);
    }
    queue_.pop_front();
  }
  return batch;
}

}  // namespace rgb::core
