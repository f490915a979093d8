// View-sync anti-entropy and fragment merging (extensions: the paper's
// future-work Membership-Partition/Merge algorithms): the NE component that
// reconverges member views and ring shapes after losses, crashes and
// partitions. Handles kViewSync, kMergeOffer and kMergeAccept.
//
// Anti-entropy runs seq-keyed view reconciliation along the leader graph —
// ring members, parent (within the retention tiers), child (when
// disseminating down). Every edge of the hierarchy is covered by some
// leader's sync set, so views that lost notifications to a crash/repair
// window reconverge once the network quiesces. The monotone seq rule makes
// syncs idempotent and loop-free; a receiver answers at most one bounded
// diff. Each tick ships one kSummary frame per link carrying only the
// combined digest over every group — O(1) bytes per link per tick however
// many groups the directory serves; a receiver whose view agrees answers
// nothing. A mismatch is not answered at once: anti-entropy is the
// backstop, and most mismatches under load are ops still in flight, which
// dissemination delivers anyway. The receiver keeps one record per summary
// sender (when the mismatch began, and its own change_count() at that
// sender's last mismatching summary) and escalates on the sender's next
// mismatching summary that finds change_count() unchanged — a tick with no
// local table change — or once the mismatch has lasted notify_timeout x
// (max_notify_retx + 1), where a notification's retransmissions give up,
// so a ring that is never quiet still reconciles. A matching summary or an
// escalation clears the record; with no record open, the at-rest path is
// one digest comparison. To escalate, the receiver pulls with a kDigest of
// its packed per-group digests, the sender answers with a kFull scoped to
// the groups that differ, and the receiver imports it and sends back a
// kDiff of what it holds newer. A differing group that both ends hold
// more than kBucketThreshold records of goes down one level (wire v5, one
// level of Dynamo's Merkle-tree anti-entropy): the sender answers with its
// bucket digests of the group in a kBuckets frame instead, the receiver
// ships a kFull of just the buckets that differ, and the sender's kDiff is
// scoped to the same buckets. Repair traffic then follows how far two views
// diverge, not how large the group is; bucket digests travel only for
// groups already found to differ. The ring-internal kSummary also carries
// the ring shape: members adopt it when their (roster, leader) drifted —
// the convergent replacement for a lost RingReform broadcast.
//
// Merge probing: a leader round-robins a kMergeOffer over peers it once
// ringed with but no longer does; they may have recovered or live in
// another fragment. Offer and accept both end in the core's
// merge_fragment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "rgb/messages.hpp"
#include "rgb/types.hpp"
#include "sim/time.hpp"

namespace rgb::core {

class NetworkEntity;

class ViewSync {
 public:
  /// A group that differs goes down to bucket level only when both ends
  /// hold more than this many records of it (two per bucket on average);
  /// smaller groups ship whole.
  static constexpr std::size_t kBucketThreshold = 256;

  explicit ViewSync(NetworkEntity& ne) : ne_(ne) {}
  ViewSync(const ViewSync&) = delete;  // timers hold its address
  ViewSync& operator=(const ViewSync&) = delete;

  /// Drops the cached kFull: none outlives the probe tick it was built in.
  void new_tick() { last_full_.reset(); }
  /// A leader's probe-tick work: one merge probe, then the kSummary fan-out.
  void tick();

  void handle_view_sync(const ViewSyncMsg& msg, NodeId from);
  void handle_merge_offer(const MergeOfferMsg& msg, NodeId from);
  void handle_merge_accept(const MergeAcceptMsg& msg, NodeId from);

 private:
  void attempt_merge();
  void send_summaries();
  /// Whether a kSummary from `from` that mismatches our view escalates to
  /// a kDigest now: updates or clears `from`'s open mismatch record.
  [[nodiscard]] bool escalate(NodeId from);
  /// Takes out of `gids` (groups that differ from a kDigest's sender)
  /// those both ends hold more than kBucketThreshold records of, and sends
  /// their bucket digests to `to` in one kBuckets frame.
  void send_bucket_digests(std::vector<GroupId>& gids,
                           const std::vector<GroupDigest>& theirs, NodeId to);

  NetworkEntity& ne_;
  /// The last kFull this NE built, with the dir_.change_count() and scope
  /// it was built for and its wire_size. Reused while both are unchanged:
  /// one kSummary fan-out draws a kDigest from several peers, and while the
  /// directory and the scope are unchanged the kFull built for the first
  /// is exactly what a fresh export would build for the next.
  struct FullReply {
    net::Payload payload;
    std::uint64_t changes = 0;
    std::vector<GroupId> gids;
    std::uint32_t bytes = 0;
  };
  std::optional<FullReply> last_full_;
  /// One open kSummary mismatch per sender: when it began, and
  /// dir_.change_count() when that sender's summary last mismatched. A
  /// handful of senders (the ring leader, parent and child), so a vector.
  struct Mismatch {
    NodeId sender;
    sim::Time since = 0;
    std::uint64_t changes = 0;
  };
  std::vector<Mismatch> mismatches_;
  std::size_t merge_probe_cursor_ = 0;
};

}  // namespace rgb::core
