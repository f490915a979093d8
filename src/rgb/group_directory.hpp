// Per-group membership state behind one shared protocol engine (multi-group
// serving). The paper models a single group; the production shape is one AP
// hierarchy multiplexing thousands of groups, so each NE keeps a
// GroupDirectory: a gid-ordered map of {MemberTable, MessageQueue} pairs,
// plus one extra queue for NE ops (NE liveness belongs to the shared
// hierarchy, not to any group).
//
// The directory is a routing facade, not a protocol layer: probe ticks,
// token rounds, alerts/stability, reconcile and failure detection all stay
// per-link in NetworkEntity — they just read and write group-scoped state
// through here. Iteration is gid-ascending everywhere (std::map), so a run
// never depends on hash order.
//
// The cross-group aggregates a probe tick or an op intake reads (combined
// digest, entry count, queue occupancy, MQ counters) are kept up to date at
// the directory's own mutation points, so those reads cost O(1) however
// many groups the directory serves. Every table write goes through apply /
// import_all / import_and_diff; there is deliberately no mutable table
// accessor (bucket_digests and group_snapshot only index a table).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "rgb/member_table.hpp"
#include "rgb/message_queue.hpp"
#include "rgb/types.hpp"

namespace rgb::core {

class GroupDirectory {
 public:
  explicit GroupDirectory(bool aggregate_mq = true)
      : aggregate_(aggregate_mq), ne_queue_(aggregate_mq) {}

  struct GroupState {
    MemberTable table;
    MessageQueue mq;
  };

  // --- queue facade (routes by MembershipOp::gid) ---------------------------

  /// Enqueues `op` into its group's queue (NE ops: the shared NE queue).
  void insert(MembershipOp op, Contributor contributor = {});

  /// Correlated local batch (stability cut, silent-member flush): every op
  /// is routed to its group's queue; the caller kicks the round engine once.
  void insert_batch(std::vector<MembershipOp> ops);

  /// Next batch to ride a token round: NE ops first, then groups in gid
  /// order, every queued op. Non-aggregating mode drains exactly one op
  /// total, like the single queue did. Visits only queues that hold ops.
  MessageQueue::Batch drain();

  [[nodiscard]] bool queue_empty() const { return queued_ == 0; }
  [[nodiscard]] std::size_t queue_size() const { return queued_; }
  [[nodiscard]] std::uint64_t ops_inserted() const { return ops_inserted_; }
  [[nodiscard]] std::uint64_t ops_collapsed() const { return ops_collapsed_; }

  // --- table facade ---------------------------------------------------------

  /// The group's table when it exists, else null (read paths must not
  /// instantiate groups as a side effect — that would skew packed digests).
  [[nodiscard]] const MemberTable* table_if(GroupId gid) const;

  /// Routes a member op into its group's table. Returns true on change.
  bool apply(const MembershipOp& op);

  /// Every group's entries, gid-stamped, gid-major then guid-ascending —
  /// the multi-group anti-entropy / merge / reform payload.
  [[nodiscard]] std::vector<TableEntry> export_all() const;
  /// export_all restricted to `gids` (empty = all groups).
  [[nodiscard]] std::vector<TableEntry> export_groups(
      const std::vector<GroupId>& gids) const;
  /// The entries of the scoped buckets of each scoped group, gid-stamped,
  /// gid-major then guid-ascending — a bucket-scoped kFull. The scope is
  /// read as import_and_diff reads it.
  [[nodiscard]] std::vector<TableEntry> export_buckets(
      std::span<const BucketScope> scope) const;

  /// Lattice-merges gid-stamped entries into their groups' tables.
  bool import_all(std::span<const TableEntry> entries);

  /// A kFull receipt in one pass: lattice-merges `entries` exactly as
  /// import_all does, and appends to `newer` this directory's entries,
  /// after the import, that are strictly newer than every incoming copy of
  /// their (gid, guid) or that `entries` does not mention — the diff the
  /// receiver sends back. The diff is restricted to the groups `gids`
  /// names whole plus the buckets `buckets` names (both empty = every
  /// group this directory holds), gid-major, guid-ascending; outside every
  /// scoped bucket it holds only entries strictly newer than an incoming
  /// copy. The scope may come in any order and repeat itself; bucket
  /// indices of kBucketCount or more are ignored. Returns true when any table
  /// changed.
  ///
  /// A payload that is gid-major and guid-ascending without repeats (what
  /// export_groups emits) is read in place. Any other payload is first
  /// sorted into that shape, keeping one newest copy of each (gid, guid);
  /// that yields the same tables as import_all, but change_count() then
  /// moves once per group rather than once per run.
  bool import_and_diff(std::span<const TableEntry> entries,
                       std::span<const GroupId> gids,
                       std::vector<TableEntry>& newer,
                       std::span<const BucketScope> buckets = {});

  /// One digest per non-empty group, gid-ascending — the packed kDigest
  /// payload (sublinear sync bytes per link in the group count).
  [[nodiscard]] std::vector<GroupDigest> packed_digests() const;

  /// Order-independent digest over all groups, gid mixed into each group's
  /// hash — the O(1) "everything matches" fast path of a packed sync tick.
  /// Maintained incrementally: each table change xors its group's term out
  /// and back in (an empty table contributes no term).
  [[nodiscard]] ViewDigest combined_digest() const { return digest_; }

  /// Groups whose digest differs from the sender's packed set: mismatching
  /// gids plus any non-empty local group the sender did not mention.
  [[nodiscard]] std::vector<GroupId> differing_groups(
      const std::vector<GroupDigest>& theirs) const;

  /// One group's bucket digests; all zero when the directory lacks it.
  /// A bucket-level exchange starts here on both ends, so the group's
  /// table starts keeping bucket state (MemberTable::index_buckets); no
  /// entry, digest or change_count() moves.
  BucketHashes bucket_digests(GroupId gid);

  [[nodiscard]] std::uint64_t claim_of(GroupId gid, Guid guid) const;
  [[nodiscard]] std::optional<TableEntry> lookup(GroupId gid, Guid guid) const;

  /// True when any group's table holds a record for `guid`.
  [[nodiscard]] bool contains(Guid guid) const;

  /// Operational members of group `gid`, guid-sorted (none when the
  /// directory lacks it) — what a group-scoped query answers. The group's
  /// table keeps its guid order from then on (MemberTable::index_order), so
  /// the answer walks it instead of sorting; no entry, digest or
  /// change_count() moves.
  std::vector<MemberRecord> group_snapshot(GroupId gid);

  /// Operational members across every group, deduplicated by guid and
  /// guid-sorted — the pre-v4 "merged view" a group-less query answers.
  [[nodiscard]] std::vector<MemberRecord> merged_snapshot() const;

  /// Members attached to `ap` in any group, deduplicated by guid and
  /// guid-sorted (ListOfLocalMembers / ListOfNeighborMembers semantics).
  [[nodiscard]] std::vector<MemberRecord> merged_members_at(NodeId ap) const;

  /// Per group: operational members attached to `ap` (the batched
  /// crash-cut flush walks this once per stranded AP). gid-ascending.
  [[nodiscard]] std::vector<std::pair<GroupId, std::vector<MemberRecord>>>
  grouped_members_at(NodeId ap) const;

  /// Total entries across all groups.
  [[nodiscard]] std::size_t total_size() const { return digest_.count; }
  [[nodiscard]] bool empty() const { return digest_.count == 0; }
  /// Number of instantiated (ever-touched) groups.
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }

  /// Bumped on every table change that takes effect. Equal values at two
  /// points in time mean every lookup answers the same at both.
  [[nodiscard]] std::uint64_t change_count() const { return changes_; }

  [[nodiscard]] const std::map<GroupId, GroupState>& groups() const {
    return groups_;
  }

 private:
  GroupState& state(GroupId gid);
  /// Runs `edit` (returns true on change) on `gid`'s table and folds the
  /// change into the combined digest and the change counter.
  template <class Edit>
  bool edit_table(GroupId gid, const Edit& edit);
  /// Moves one queue's batch into `batch` (contributors deduplicated) and
  /// takes its ops off the queued-op count.
  void take_batch(MessageQueue& mq, MessageQueue::Batch& batch);

  bool aggregate_;
  std::map<GroupId, GroupState> groups_;
  MessageQueue ne_queue_;  ///< NE ops (invalid gid) — shared, not group-scoped

  ViewDigest digest_;           ///< combined_digest(); count = total entries
  std::uint64_t changes_ = 0;   ///< change_count()
  std::size_t queued_ = 0;      ///< ops queued across every queue
  std::uint64_t ops_inserted_ = 0;
  std::uint64_t ops_collapsed_ = 0;
  /// gid-sorted: groups whose queue holds ops. A vector, not a set: a
  /// queue that fills and drains every round must not cost an allocation
  /// each time.
  std::vector<GroupId> queued_groups_;
};

}  // namespace rgb::core
