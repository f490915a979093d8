#include "rgb/view_sync.hpp"

#include <algorithm>
#include <utility>

#include "rgb/network_entity.hpp"

namespace rgb::core {

void ViewSync::tick() {
  attempt_merge();
  send_summaries();
}

void ViewSync::send_summaries() {
  const ViewDigest digest = ne_.dir_.combined_digest();
  ViewSyncMsg sync;
  sync.phase = ViewSyncMsg::Phase::kSummary;
  sync.digest = digest.hash;
  sync.entry_count = static_cast<std::uint32_t>(digest.count);
  const ViewSyncMsg cross = sync;  // cross edges carry only view state
  sync.roster = ne_.roster_;
  sync.leader = ne_.leader_;
  const auto ring_bytes = wire_size(sync);
  // One shared payload per fan-out: k sends, one allocation.
  const net::Payload ring_payload{std::move(sync)};
  for (const NodeId peer : ne_.roster_) {
    if (peer == ne_.id()) continue;
    ne_.send(peer, kind::kViewSync, ring_payload, ring_bytes);
  }
  if (ne_.dir_.empty()) return;
  const auto cross_bytes = wire_size(cross);
  const net::Payload cross_payload{cross};
  if (ne_.parent_.valid() && ne_.tier_ - 1 >= ne_.config_.retain_tier) {
    ne_.send(ne_.parent_, kind::kViewSync, cross_payload, cross_bytes);
  }
  if (ne_.child_.valid() && ne_.config_.disseminate_down) {
    ne_.send(ne_.child_, kind::kViewSync, cross_payload, cross_bytes);
  }
}

void ViewSync::handle_view_sync(const ViewSyncMsg& msg, NodeId from) {
  GroupDirectory& dir = ne_.dir_;
  // Ring-shape adoption: the sync came from a node leading a ring that
  // contains us, and our local (roster, leader) drifted from it — a
  // reform we never received. Rides the ring-internal kSummary tick.
  if (msg.leader.valid() && msg.leader == from &&
      std::find(msg.roster.begin(), msg.roster.end(), ne_.id()) !=
          msg.roster.end() &&
      (ne_.roster_ != msg.roster || ne_.leader_ != msg.leader)) {
    ne_.adopt_shape(from, msg.roster, msg.leader);
  }

  // In-sync views answer a kSummary or kDigest with nothing: the common
  // steady-state tick ends here having cost one O(1) comparison,
  // regardless of the group count. (A hash collision between unequal
  // views — ~2^-64 — also lands here; it heals on the next tick after
  // either table changes, and never corrupts state since no entries were
  // merged.)
  const ViewDigest mine = dir.combined_digest();
  const bool in_sync = mine.hash == msg.digest && mine.count == msg.entry_count;
  if (msg.phase == ViewSyncMsg::Phase::kSummary) {
    if (in_sync) {
      if (!mismatches_.empty()) {
        std::erase_if(mismatches_,
                      [from](const Mismatch& m) { return m.sender == from; });
      }
      return;
    }
    // A mismatch that survives a quiet tick (or the give-up horizon)
    // pulls: answer with our packed per-group digests so the sender can
    // scope its kFull to just the differing groups.
    if (!escalate(from)) return;
    ViewSyncMsg reply;
    reply.phase = ViewSyncMsg::Phase::kDigest;
    reply.digest = mine.hash;
    reply.entry_count = static_cast<std::uint32_t>(mine.count);
    reply.group_digests = dir.packed_digests();
    ne_.metrics_.digest_groups_packed.increment(reply.group_digests.size());
    const auto reply_bytes = wire_size(reply);
    ne_.send(from, kind::kViewSync, std::move(reply), reply_bytes);
    return;
  }

  if (msg.phase == ViewSyncMsg::Phase::kDigest) {
    // On mismatch, ship our view and ask for the sender's newer entries
    // back; the pair then reconverges in one exchange. With a packed
    // per-group digest set (v4) the reply is scoped to the groups that
    // actually differ instead of the whole directory, and large groups
    // among them go down to bucket level (v5).
    if (in_sync) return;
    // Pre-packing sender (or a sender with an empty directory): no
    // per-group evidence to scope by — answer with everything (empty gids).
    std::vector<GroupId> gids;
    if (!msg.group_digests.empty()) {
      gids = dir.differing_groups(msg.group_digests);
      send_bucket_digests(gids, msg.group_digests, from);
      // Combined digests differ but every per-group digest matches: the
      // combined hash collided (~2^-64) or the mismatch lives in groups
      // neither side holds entries for. Nothing useful to ship — nor when
      // every differing group went down to bucket level.
      if (gids.empty()) return;
    }
    ne_.metrics_.group_fulls_sent.increment(gids.empty() ? dir.group_count()
                                                         : gids.size());
    if (!last_full_ || last_full_->changes != dir.change_count() ||
        last_full_->gids != gids) {
      ViewSyncMsg reply;
      reply.phase = ViewSyncMsg::Phase::kFull;
      reply.entries = dir.export_groups(gids);
      reply.reply_requested = true;
      reply.sync_gids = gids;
      const auto reply_bytes = wire_size(reply);
      last_full_ = FullReply{std::move(reply), dir.change_count(),
                             std::move(gids), reply_bytes};
    }
    ne_.send(from, kind::kViewSync, last_full_->payload, last_full_->bytes);
    return;
  }

  if (msg.phase == ViewSyncMsg::Phase::kBuckets) {
    // One level down: ship our entries of every bucket whose digest
    // differs from the sender's, and ask for the sender's newer entries of
    // those buckets back.
    ViewSyncMsg reply;
    reply.phase = ViewSyncMsg::Phase::kFull;
    reply.reply_requested = true;
    for (const GroupBuckets& theirs : msg.group_buckets) {
      const BucketHashes mine = dir.bucket_digests(theirs.gid);
      BucketScope scope{theirs.gid, {}};
      for (std::uint32_t b = 0; b < kBucketCount; ++b) {
        if (mine[b] != theirs.hashes[b]) scope.buckets.push_back(b);
      }
      if (!scope.buckets.empty()) {
        reply.bucket_scope.push_back(std::move(scope));
      }
    }
    // Group digests differ but every bucket digest matches: a collision at
    // group or bucket level (~2^-64). As at group level, nothing to ship.
    if (reply.bucket_scope.empty()) return;
    reply.entries = dir.export_buckets(reply.bucket_scope);
    ne_.metrics_.group_fulls_sent.increment(reply.bucket_scope.size());
    const auto reply_bytes = wire_size(reply);
    ne_.send(from, kind::kViewSync, std::move(reply), reply_bytes);
    return;
  }

  if (!msg.reply_requested) {
    ne_.import(msg.entries);
    return;
  }
  // Import and diff in one pass. The diff is scoped to the sync's groups
  // and buckets: a scoped kFull must not drag every unrelated group's (or
  // bucket's) entries into the reply (that would undo the packing
  // amortization). An empty scope = universal (pre-v4 sender).
  std::vector<TableEntry> diff;
  dir.import_and_diff(msg.entries, msg.sync_gids, diff, msg.bucket_scope);
  ne_.note_group_count();
  if (diff.empty()) return;
  std::size_t diff_groups = 0;
  GroupId last_gid;  // diff is gid-major, so distinct gids = run starts
  for (const TableEntry& entry : diff) {
    if (entry.gid != last_gid) {
      ++diff_groups;
      last_gid = entry.gid;
    }
  }
  ne_.metrics_.group_diffs_sent.increment(diff_groups);
  ViewSyncMsg reply;
  reply.phase = ViewSyncMsg::Phase::kDiff;
  reply.entries = std::move(diff);
  reply.sync_gids = msg.sync_gids;
  reply.bucket_scope = msg.bucket_scope;
  const auto reply_bytes = wire_size(reply);
  ne_.send(from, kind::kViewSync, std::move(reply), reply_bytes);
}

bool ViewSync::escalate(NodeId from) {
  const std::uint64_t changes = ne_.dir_.change_count();
  const sim::Time now = ne_.now();
  const auto it =
      std::find_if(mismatches_.begin(), mismatches_.end(),
                   [from](const Mismatch& m) { return m.sender == from; });
  if (it == mismatches_.end()) {
    mismatches_.push_back(Mismatch{from, now, changes});
    return false;
  }
  // Past this horizon a notification has exhausted its retransmissions:
  // whatever still differs is not in flight any more.
  const sim::Duration horizon =
      ne_.config_.notify_timeout *
      static_cast<sim::Duration>(ne_.config_.max_notify_retx + 1);
  if (it->changes == changes || now - it->since >= horizon) {
    mismatches_.erase(it);
    return true;
  }
  it->changes = changes;
  return false;
}

void ViewSync::send_bucket_digests(std::vector<GroupId>& gids,
                                   const std::vector<GroupDigest>& theirs,
                                   NodeId to) {
  GroupDirectory& dir = ne_.dir_;
  ViewSyncMsg sync;
  sync.phase = ViewSyncMsg::Phase::kBuckets;
  std::erase_if(gids, [&](GroupId gid) {
    const MemberTable* table = dir.table_if(gid);
    if (table == nullptr || table->size() <= kBucketThreshold) return false;
    // `theirs` is gid-ascending as packed_digests() emits it; a sender
    // that breaks that only keeps its groups whole.
    const auto it = std::lower_bound(
        theirs.begin(), theirs.end(), gid,
        [](const GroupDigest& d, GroupId g) { return d.gid < g; });
    if (it == theirs.end() || it->gid != gid ||
        it->count <= kBucketThreshold) {
      return false;
    }
    sync.group_buckets.push_back(GroupBuckets{gid, dir.bucket_digests(gid)});
    return true;
  });
  if (sync.group_buckets.empty()) return;
  const auto bytes = wire_size(sync);
  ne_.send(to, kind::kViewSync, std::move(sync), bytes);
}

// --------------------------------------------------------------------------
// Merge probing, offer and accept
// --------------------------------------------------------------------------

void ViewSync::attempt_merge() {
  if (ne_.known_peers_.size() <= ne_.roster_.size()) return;
  // Round-robin over peers we once knew but no longer ring with: they may
  // have recovered or live in another fragment.
  std::vector<NodeId> candidates;
  for (const NodeId peer : ne_.known_peers_) {
    if (!ne_.in_roster(peer)) candidates.push_back(peer);
  }
  if (candidates.empty()) return;
  const NodeId target = candidates[merge_probe_cursor_ % candidates.size()];
  ++merge_probe_cursor_;
  MergeOfferMsg offer{ne_.roster_, ne_.dir_.export_all()};
  const auto bytes = wire_size(offer);
  ne_.send(target, kind::kMergeOffer, std::move(offer), bytes);
}

void ViewSync::handle_merge_offer(const MergeOfferMsg& msg, NodeId from) {
  if (!ne_.is_leader()) {
    const bool i_am_in_offer =
        std::find(msg.roster.begin(), msg.roster.end(), ne_.id()) !=
        msg.roster.end();
    if (i_am_in_offer) return;  // the offerer already rings with us
    // A true fragment relays the offer to its leader and answers the
    // offerer directly as well. The relay alone deadlocks when our leader
    // pointer is fictional (the supposed leader repaired us out of its ring
    // across the partition and drops the relayed offer as "already ringing
    // with the offerer"): offers then die at the relay forever and the
    // rosters never reconverge — the post-heal orphan class of the
    // partition fuzz profile. The direct accept is safe in the
    // healthy-fragment case too: merge_fragment unions rosters and elects
    // deterministically, so it merely duplicates the leader-level merge the
    // relay triggers. When the node we believe leads us is the one telling
    // us we are not in its ring (e.g. we just recovered from a crash), our
    // state is stale: we offer ourselves back as a singleton fragment.
    const bool fragment = ne_.leader_.valid() && ne_.leader_ != ne_.id() &&
                          ne_.leader_ != from;
    if (fragment) {
      ne_.send(ne_.leader_, kind::kMergeOffer, msg, wire_size(msg));
    }
    MergeAcceptMsg accept{
        fragment ? ne_.roster_ : std::vector<NodeId>{ne_.id()},
        ne_.dir_.export_all()};
    const auto bytes = wire_size(accept);
    ne_.send(from, kind::kMergeAccept, std::move(accept), bytes);
    return;
  }
  if (ne_.in_roster(from)) {
    // We already ring with the offerer. That makes the offer stale only
    // when our rosters actually agree: a recovered crashed leader still
    // holds its pre-crash roster (which contains the survivors) while the
    // survivors repaired around it — rejecting their offers here would
    // deadlock the fragments into permanent disagreement. Merge whenever
    // the views diverge; merge_fragment is idempotent under agreement.
    std::vector<NodeId> theirs = msg.roster;
    std::vector<NodeId> ours = ne_.roster_;
    std::sort(theirs.begin(), theirs.end());
    std::sort(ours.begin(), ours.end());
    if (theirs == ours) return;  // consistent rings: truly stale
  }
  ne_.merge_fragment(msg.roster, msg.entries);
}

void ViewSync::handle_merge_accept(const MergeAcceptMsg& msg, NodeId from) {
  if (!ne_.is_leader()) return;
  if (ne_.in_roster(from) && msg.roster.size() <= 1) {
    return;  // already merged by an earlier accept
  }
  ne_.merge_fragment(msg.roster, msg.entries);
}

}  // namespace rgb::core
