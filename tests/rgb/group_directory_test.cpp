#include "rgb/group_directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "rgb/types.hpp"

namespace rgb::core {
namespace {

MembershipOp member_op(std::uint64_t gid, OpKind kind, std::uint64_t seq,
                       std::uint64_t guid, std::uint64_t ap) {
  MembershipOp op;
  op.kind = kind;
  op.uid = seq;
  op.seq = seq;
  op.claim_seq = kind == OpKind::kMemberJoin ? seq : 1;
  op.gid = GroupId{gid};
  op.member =
      MemberRecord{Guid{guid}, NodeId{ap}, proto::MemberStatus::kOperational};
  return op;
}

TEST(GroupDirectory, AppliesOpsIntoPerGroupTables) {
  GroupDirectory dir;
  EXPECT_TRUE(dir.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100)));
  EXPECT_TRUE(dir.apply(member_op(2, OpKind::kMemberJoin, 1, 10, 200)));

  // Same guid, two groups, independent records.
  ASSERT_NE(dir.table_if(GroupId{1}), nullptr);
  ASSERT_NE(dir.table_if(GroupId{2}), nullptr);
  EXPECT_EQ(dir.table_if(GroupId{1})->find(Guid{10})->access_proxy,
            NodeId{100});
  EXPECT_EQ(dir.table_if(GroupId{2})->find(Guid{10})->access_proxy,
            NodeId{200});
  EXPECT_EQ(dir.group_count(), 2u);
  EXPECT_EQ(dir.total_size(), 2u);
}

TEST(GroupDirectory, ReadPathsDoNotInstantiateGroups) {
  GroupDirectory dir;
  dir.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  EXPECT_EQ(dir.table_if(GroupId{7}), nullptr);
  EXPECT_EQ(dir.claim_of(GroupId{7}, Guid{10}), 0u);
  EXPECT_FALSE(dir.lookup(GroupId{7}, Guid{10}).has_value());
  EXPECT_EQ(dir.group_count(), 1u);
  // Queueing an op is a write path and may create (with an empty table).
  dir.insert(member_op(7, OpKind::kMemberJoin, 2, 10, 100));
  EXPECT_EQ(dir.group_count(), 2u);
  ASSERT_NE(dir.table_if(GroupId{7}), nullptr);
  EXPECT_TRUE(dir.table_if(GroupId{7})->empty());
}

TEST(GroupDirectory, ExportIsGidMajorGuidAscending) {
  GroupDirectory dir;
  dir.apply(member_op(5, OpKind::kMemberJoin, 1, 30, 100));
  dir.apply(member_op(2, OpKind::kMemberJoin, 2, 40, 100));
  dir.apply(member_op(5, OpKind::kMemberJoin, 3, 20, 100));
  dir.apply(member_op(2, OpKind::kMemberJoin, 4, 10, 100));

  const std::vector<TableEntry> all = dir.export_all();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].gid, GroupId{2});
  EXPECT_EQ(all[0].record.guid, Guid{10});
  EXPECT_EQ(all[1].gid, GroupId{2});
  EXPECT_EQ(all[1].record.guid, Guid{40});
  EXPECT_EQ(all[2].gid, GroupId{5});
  EXPECT_EQ(all[2].record.guid, Guid{20});
  EXPECT_EQ(all[3].gid, GroupId{5});
  EXPECT_EQ(all[3].record.guid, Guid{30});

  const std::vector<TableEntry> scoped = dir.export_groups({GroupId{5}});
  ASSERT_EQ(scoped.size(), 2u);
  EXPECT_EQ(scoped[0].gid, GroupId{5});
  EXPECT_EQ(scoped[1].gid, GroupId{5});
}

TEST(GroupDirectory, ImportRoundTripsAndMergesByLattice) {
  GroupDirectory a;
  a.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  a.apply(member_op(3, OpKind::kMemberJoin, 2, 20, 100));

  GroupDirectory b;
  EXPECT_TRUE(b.import_all(a.export_all()));
  EXPECT_EQ(b.export_all().size(), a.export_all().size());
  EXPECT_EQ(b.combined_digest().hash, a.combined_digest().hash);

  // Re-importing the same entries is a no-op.
  EXPECT_FALSE(b.import_all(a.export_all()));
}

TEST(GroupDirectory, CombinedDigestMixesGroupId) {
  // Identical member records in different groups must hash differently:
  // the combined digest covers (gid, entry), not just the entries.
  GroupDirectory a;
  a.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  GroupDirectory b;
  b.apply(member_op(2, OpKind::kMemberJoin, 1, 10, 100));

  EXPECT_NE(a.combined_digest().hash, b.combined_digest().hash);
  EXPECT_EQ(a.combined_digest().count, 1u);
}

TEST(GroupDirectory, PackedDigestsAreGidAscendingAndSkipEmptyGroups) {
  GroupDirectory dir;
  dir.apply(member_op(9, OpKind::kMemberJoin, 1, 10, 100));
  dir.apply(member_op(4, OpKind::kMemberJoin, 2, 20, 100));
  dir.insert(member_op(6, OpKind::kMemberJoin, 3, 30, 100));  // empty table

  const std::vector<GroupDigest> packed = dir.packed_digests();
  ASSERT_EQ(packed.size(), 2u);
  EXPECT_EQ(packed[0].gid, GroupId{4});
  EXPECT_EQ(packed[0].count, 1u);
  EXPECT_EQ(packed[1].gid, GroupId{9});
}

TEST(GroupDirectory, DifferingGroupsFindsMismatchAndSenderOnlyGroups) {
  GroupDirectory a;
  a.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  a.apply(member_op(2, OpKind::kMemberJoin, 2, 20, 100));

  GroupDirectory b;
  b.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));  // same as a
  b.apply(member_op(2, OpKind::kMemberJoin, 3, 30, 100));  // differs
  b.apply(member_op(5, OpKind::kMemberJoin, 4, 40, 100));  // only b has it

  const std::vector<GroupId> diff = a.differing_groups(b.packed_digests());
  // Group 1 matches; group 2 mismatches; group 5 is sender-only (a must
  // pull it to bootstrap). gid-ascending.
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0], GroupId{2});
  EXPECT_EQ(diff[1], GroupId{5});

  // Receiver-only groups are reported too: b never heard of group 7.
  a.apply(member_op(7, OpKind::kMemberJoin, 5, 70, 100));
  const std::vector<GroupId> diff2 = a.differing_groups(b.packed_digests());
  EXPECT_TRUE(std::find(diff2.begin(), diff2.end(), GroupId{7}) != diff2.end());
}

TEST(GroupDirectory, ImportAndDiffIsGroupScoped) {
  GroupDirectory a;
  a.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  a.apply(member_op(2, OpKind::kMemberJoin, 2, 20, 100));
  a.apply(member_op(2, OpKind::kMemberJoin, 3, 21, 100));

  GroupDirectory b;
  b.apply(member_op(2, OpKind::kMemberJoin, 2, 20, 100));

  // Scoped to group 2: only the entry b lacks comes back.
  const std::vector<GroupId> scope{GroupId{2}};
  std::vector<TableEntry> diff;
  EXPECT_FALSE(a.import_and_diff(b.export_all(), scope, diff));
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].gid, GroupId{2});
  EXPECT_EQ(diff[0].record.guid, Guid{21});

  // Empty scope = every group a holds.
  std::vector<TableEntry> full;
  EXPECT_FALSE(a.import_and_diff(b.export_all(), {}, full));
  EXPECT_EQ(full.size(), 2u);
}

TEST(GroupDirectory, MergedViewsDeduplicateAcrossGroups) {
  GroupDirectory dir;
  dir.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  dir.apply(member_op(2, OpKind::kMemberJoin, 2, 10, 100));  // same member
  dir.apply(member_op(2, OpKind::kMemberJoin, 3, 30, 200));

  EXPECT_TRUE(dir.contains(Guid{10}));
  EXPECT_FALSE(dir.contains(Guid{99}));

  const std::vector<MemberRecord> merged = dir.merged_snapshot();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].guid, Guid{10});
  EXPECT_EQ(merged[1].guid, Guid{30});

  const std::vector<MemberRecord> at100 = dir.merged_members_at(NodeId{100});
  ASSERT_EQ(at100.size(), 1u);
  EXPECT_EQ(at100[0].guid, Guid{10});

  const auto grouped = dir.grouped_members_at(NodeId{100});
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_EQ(grouped[0].first, GroupId{1});
  EXPECT_EQ(grouped[1].first, GroupId{2});
}

TEST(GroupDirectory, MergedViewsKeepTheLowestGidsRecord) {
  // Guid 10 is in groups 3 and 5 at different APs; group 5's record is
  // applied first and carries the newer seq, yet the merged views answer
  // group 3's.
  GroupDirectory dir;
  dir.apply(member_op(5, OpKind::kMemberJoin, 9, 10, 500));
  dir.apply(member_op(5, OpKind::kMemberJoin, 2, 5, 300));
  EXPECT_EQ(dir.merged_snapshot(), dir.table_if(GroupId{5})->snapshot());
  dir.apply(member_op(3, OpKind::kMemberJoin, 1, 10, 300));
  dir.apply(member_op(3, OpKind::kMemberJoin, 3, 20, 500));

  const MemberRecord ten_at_300{Guid{10}, NodeId{300},
                                proto::MemberStatus::kOperational};
  const MemberRecord ten_at_500{Guid{10}, NodeId{500},
                                proto::MemberStatus::kOperational};
  const MemberRecord five{Guid{5}, NodeId{300},
                          proto::MemberStatus::kOperational};
  const MemberRecord twenty{Guid{20}, NodeId{500},
                            proto::MemberStatus::kOperational};
  EXPECT_EQ(dir.merged_snapshot(),
            (std::vector<MemberRecord>{five, ten_at_300, twenty}));
  EXPECT_EQ(dir.merged_members_at(NodeId{300}),
            (std::vector<MemberRecord>{five, ten_at_300}));
  // At AP 500 only group 5 holds guid 10, so its record is the answer.
  EXPECT_EQ(dir.merged_members_at(NodeId{500}),
            (std::vector<MemberRecord>{ten_at_500, twenty}));
}

TEST(GroupDirectory, QueueRoutesByGroupAndDrainsNeOpsFirst) {
  GroupDirectory dir;
  dir.insert(member_op(3, OpKind::kMemberJoin, 1, 10, 100));
  dir.insert(member_op(1, OpKind::kMemberJoin, 2, 20, 100));

  MembershipOp ne_op;
  ne_op.kind = OpKind::kNeFail;
  ne_op.uid = 3;
  ne_op.seq = 3;
  ne_op.ne = NodeId{500};
  dir.insert(ne_op);

  EXPECT_FALSE(dir.queue_empty());
  EXPECT_EQ(dir.queue_size(), 3u);
  EXPECT_EQ(dir.ops_inserted(), 3u);

  const MessageQueue::Batch batch = dir.drain();
  ASSERT_EQ(batch.ops.size(), 3u);
  // NE ops ride first, then member ops in gid order.
  EXPECT_EQ(batch.ops[0].kind, OpKind::kNeFail);
  EXPECT_EQ(batch.ops[1].gid, GroupId{1});
  EXPECT_EQ(batch.ops[2].gid, GroupId{3});
  EXPECT_TRUE(dir.queue_empty());
}

TEST(GroupDirectory, ClearEmptiesEverything) {
  GroupDirectory dir;
  dir.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  dir.insert(member_op(1, OpKind::kMemberJoin, 2, 20, 100));
  dir.clear();
  EXPECT_TRUE(dir.empty());
  EXPECT_TRUE(dir.queue_empty());
  EXPECT_EQ(dir.group_count(), 0u);
  EXPECT_EQ(dir.combined_digest().count, 0u);
}

// --- incremental aggregates vs. a walk over groups() ------------------------

/// The combined digest's construction, recomputed by walking every group:
/// SplitMix64 over (gid, table hash), xor-folded over non-empty tables.
std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void expect_aggregates_match_walk(const GroupDirectory& dir) {
  ViewDigest digest;
  std::size_t queued = 0;
  std::uint64_t inserted = 0, collapsed = 0;
  for (const auto& [gid, st] : dir.groups()) {
    if (!st.table.empty()) {
      digest.hash ^= splitmix(splitmix(gid.value()) ^ st.table.digest().hash);
      digest.count += st.table.size();
    }
    queued += st.mq.size();
    inserted += st.mq.ops_inserted();
    collapsed += st.mq.ops_collapsed();
  }
  ASSERT_EQ(dir.combined_digest(), digest);
  ASSERT_EQ(dir.total_size(), digest.count);
  ASSERT_EQ(dir.empty(), digest.count == 0);
  ASSERT_EQ(dir.queue_size(), queued);
  ASSERT_EQ(dir.queue_empty(), queued == 0);
  ASSERT_EQ(dir.ops_inserted(), inserted);
  ASSERT_EQ(dir.ops_collapsed(), collapsed);
}

using OpKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         OpKind, GroupId, Guid, NodeId>;
OpKey key_of(const MembershipOp& op) {
  return {op.uid,   op.seq,        op.claim_seq,
          op.kind,  op.gid,        op.member.guid,
          op.member.access_proxy};
}

/// The per-group queues, drained by visiting every group in gid order —
/// the reference the directory's tracked list of queues holding ops must
/// reproduce. (No NE queue: every op here carries a gid.)
class WalkingQueues {
 public:
  explicit WalkingQueues(bool aggregate) : aggregate_(aggregate) {}

  void insert(const MembershipOp& op, Contributor contributor) {
    queues_.try_emplace(op.gid, aggregate_)
        .first->second.insert(op, contributor);
  }

  MessageQueue::Batch drain() {
    MessageQueue::Batch batch;
    for (auto& [gid, mq] : queues_) {
      if (mq.empty()) continue;
      if (!aggregate_ && !batch.ops.empty()) break;
      MessageQueue::Batch part = mq.drain();
      for (MembershipOp& op : part.ops) batch.ops.push_back(std::move(op));
      for (const Contributor& c : part.contributors) {
        if (std::find(batch.contributors.begin(), batch.contributors.end(),
                      c) == batch.contributors.end()) {
          batch.contributors.push_back(c);
        }
      }
    }
    return batch;
  }

  void clear() { queues_.clear(); }

 private:
  bool aggregate_;
  std::map<GroupId, MessageQueue> queues_;
};

/// Seeded random walk over every directory mutation point, checking after
/// each step that the O(1) aggregates equal a walk over groups(), that
/// drains come out exactly as the per-group walk yields them (gid order),
/// and that change_count() moves exactly when a table does.
void run_random_directory_walk(std::uint64_t seed, bool aggregate) {
  constexpr std::uint64_t kGroups = 72;
  constexpr std::uint64_t kGuids = 6;
  common::RngStream rng{seed};
  GroupDirectory dir{aggregate};
  WalkingQueues walk{aggregate};
  std::uint64_t seq = 0;
  std::uint64_t notify = 0;

  const auto random_gid = [&] { return 1 + rng.next_below(kGroups); };
  const auto random_op = [&](std::uint64_t gid) {
    const OpKind kinds[] = {OpKind::kMemberJoin, OpKind::kMemberLeave,
                            OpKind::kMemberHandoff, OpKind::kMemberFail};
    MembershipOp op = member_op(gid, kinds[rng.next_below(4)], ++seq,
                                1 + rng.next_below(kGuids),
                                100 + rng.next_below(3));
    // Some ops arrive stale: an older seq within an older epoch.
    if (rng.chance(0.2) && seq > 8) {
      op.seq -= 1 + rng.next_below(8);
      op.claim_seq = std::min(op.claim_seq, op.seq);
    }
    op.uid = 1000000 + seq;  // unique even when the seq went stale
    return op;
  };
  const auto random_contributor = [&](std::uint64_t gid) {
    if (rng.chance(0.5)) return Contributor{};
    // notify_id encodes the gid, so a contributor names its group.
    return Contributor{NodeId{500 + rng.next_below(4)}, gid * 1000 + ++notify};
  };
  const auto queue_both = [&](const MembershipOp& op, Contributor c) {
    dir.insert(op, c);
    walk.insert(op, c);
  };

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t changes_before = dir.change_count();
    bool table_may_change = false;
    switch (rng.next_below(8)) {
      case 0:
      case 1: {  // apply
        const bool changed = dir.apply(random_op(random_gid()));
        EXPECT_EQ(dir.change_count(), changes_before + (changed ? 1 : 0));
        table_may_change = true;
        break;
      }
      case 2: {  // import_all: gid-less, stale and rejected entries mixed in
        std::vector<TableEntry> entries;
        if (rng.chance(0.3)) {
          entries.push_back(TableEntry{
              MemberRecord{Guid{1}, NodeId{100}, MemberStatus::kOperational},
              ++seq, seq, GroupId{}});
        }
        std::uint64_t gid = random_gid();
        const std::uint64_t runs = 1 + rng.next_below(4);
        for (std::uint64_t r = 0; r < runs && gid <= kGroups; ++r) {
          const std::uint64_t n = 1 + rng.next_below(3);
          for (std::uint64_t i = 0; i < n; ++i) {
            const MembershipOp op = random_op(gid);
            entries.push_back(TableEntry{op.member, op.seq, op.claim_seq,
                                         GroupId{gid}});
          }
          gid += 1 + rng.next_below(6);
        }
        const bool changed = dir.import_all(entries);
        EXPECT_EQ(dir.change_count() > changes_before, changed);
        table_may_change = true;
        break;
      }
      case 3: {  // insert
        const std::uint64_t gid = random_gid();
        queue_both(random_op(gid), random_contributor(gid));
        break;
      }
      case 4: {  // insert_batch with a local join, then a notified leave
                 // that collapses it into one departure
        const std::uint64_t gid = random_gid();
        const std::uint64_t guid = 1 + rng.next_below(kGuids);
        MembershipOp join =
            member_op(gid, OpKind::kMemberJoin, ++seq, guid, 100);
        join.uid = 1000000 + seq;
        MembershipOp leave =
            member_op(gid, OpKind::kMemberLeave, ++seq, guid, 100);
        leave.uid = 1000000 + seq;
        leave.claim_seq = join.claim_seq;
        std::vector<MembershipOp> batch{join, random_op(random_gid())};
        dir.insert_batch(batch);
        for (const MembershipOp& op : batch) walk.insert(op, Contributor{});
        queue_both(leave, Contributor{NodeId{600}, gid * 1000 + ++notify});
        break;
      }
      case 5:
      case 6: {  // drain
        const MessageQueue::Batch got = dir.drain();
        const MessageQueue::Batch want = walk.drain();
        ASSERT_EQ(got.ops.size(), want.ops.size());
        for (std::size_t i = 0; i < got.ops.size(); ++i) {
          EXPECT_EQ(key_of(got.ops[i]), key_of(want.ops[i]));
        }
        EXPECT_EQ(got.contributors, want.contributors);
        EXPECT_TRUE(std::is_sorted(
            got.ops.begin(), got.ops.end(),
            [](const auto& a, const auto& b) { return a.gid < b.gid; }));
        if (!aggregate) {
          EXPECT_LE(got.ops.size(), 1u);
        }
        break;
      }
      default: {  // clear, rarely
        if (!rng.chance(0.1)) break;
        const bool had_entries = !dir.empty();
        dir.clear();
        walk.clear();
        EXPECT_EQ(dir.change_count() > changes_before, had_entries);
        table_may_change = true;
        break;
      }
    }
    if (!table_may_change) {
      EXPECT_EQ(dir.change_count(), changes_before);
    }
    expect_aggregates_match_walk(dir);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << " step " << step;
      return;
    }
  }
  // Order independence: rebuilding the same tables another way lands on
  // the same combined digest.
  GroupDirectory rebuilt;
  rebuilt.import_all(dir.export_all());
  EXPECT_EQ(rebuilt.combined_digest(), dir.combined_digest());
}

TEST(GroupDirectory, IncrementalAggregatesMatchAWalkAggregating) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_random_directory_walk(seed, /*aggregate=*/true);
  }
}

TEST(GroupDirectory, IncrementalAggregatesMatchAWalkNonAggregating) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_random_directory_walk(seed, /*aggregate=*/false);
  }
}

// --- fused kFull receipt ----------------------------------------------------

/// Brute-force reference for GroupDirectory::import_and_diff: imports every
/// entry (one gid at a time, in payload order), then looks each local entry
/// of the scope up among the incoming ones. A local entry is news to the
/// sender when no incoming copy exists or it is strictly newer than every
/// copy.
bool reference_import_and_diff(GroupDirectory& dir,
                               const std::vector<TableEntry>& entries,
                               const std::vector<GroupId>& gids,
                               std::vector<TableEntry>& newer) {
  std::map<GroupId, std::vector<TableEntry>> incoming;
  for (const TableEntry& e : entries) incoming[e.gid].push_back(e);
  bool changed = false;
  for (const auto& [gid, run] : incoming) changed |= dir.import_all(run);
  std::set<GroupId> scope(gids.begin(), gids.end());
  if (scope.empty()) {
    for (const auto& [gid, st] : dir.groups()) scope.insert(gid);
  }
  for (const GroupId gid : scope) {
    const MemberTable* tab = dir.table_if(gid);
    if (tab == nullptr) continue;
    const auto copies = incoming.find(gid);
    for (TableEntry local : tab->export_entries()) {
      bool news = true;
      if (copies != incoming.end()) {
        for (const TableEntry& e : copies->second) {
          if (e.record.guid == local.record.guid &&
              !record_precedes(e.claim_seq, e.last_seq, local.claim_seq,
                               local.last_seq)) {
            news = false;
          }
        }
      }
      if (news) {
        local.gid = gid;
        newer.push_back(local);
      }
    }
  }
  return changed;
}

std::map<GroupId, std::vector<TableEntry>> tables_of(const GroupDirectory& d) {
  std::map<GroupId, std::vector<TableEntry>> out;
  for (const auto& [gid, st] : d.groups()) out[gid] = st.table.export_entries();
  return out;
}

/// Runs the fused pass and the reference on two copies of `receiver` and
/// requires the same diff (content and order), tables, combined digest,
/// change count and changed flag.
void expect_fused_matches_reference(const GroupDirectory& receiver,
                                    const std::vector<TableEntry>& entries,
                                    const std::vector<GroupId>& gids,
                                    const std::string& label) {
  SCOPED_TRACE(label);
  GroupDirectory fused = receiver;
  GroupDirectory ref = receiver;
  std::vector<TableEntry> got;
  std::vector<TableEntry> want;
  const bool got_changed = fused.import_and_diff(entries, gids, got);
  const bool want_changed =
      reference_import_and_diff(ref, entries, gids, want);
  EXPECT_EQ(got_changed, want_changed);
  EXPECT_EQ(got, want);
  EXPECT_EQ(tables_of(fused), tables_of(ref));
  EXPECT_EQ(fused.combined_digest(), ref.combined_digest());
  EXPECT_EQ(fused.change_count(), ref.change_count());
  // The tables land where import_all alone would put them.
  GroupDirectory plain = receiver;
  EXPECT_EQ(plain.import_all(entries), got_changed);
  EXPECT_EQ(tables_of(fused), tables_of(plain));
}

/// A seeded receiver and a perturbed copy of it as the sender, over 24
/// groups of up to ~500 entries: entries stale, equal, newer or missing on
/// either side, equal (claim, seq) with different records, sender-only and
/// receiver-only groups, and a receiver group whose table is empty.
std::pair<GroupDirectory, GroupDirectory> random_directory_pair(
    common::RngStream& rng) {
  constexpr std::uint64_t kGroups = 24;
  std::vector<TableEntry> mine;
  std::vector<TableEntry> theirs;
  const auto entry = [](std::uint64_t gid, std::uint64_t guid,
                        std::uint64_t claim, std::uint64_t seq,
                        std::uint64_t ap) {
    const MemberStatus status =
        seq % 3 == 0 ? MemberStatus::kFailed : MemberStatus::kOperational;
    return TableEntry{MemberRecord{Guid{guid}, NodeId{ap}, status}, seq, claim,
                      GroupId{gid}};
  };
  for (std::uint64_t gid = 1; gid <= kGroups; ++gid) {
    const std::uint64_t shape = rng.next_below(10);
    const bool sender_only = shape == 0;
    const bool receiver_only = shape == 1;
    const std::uint64_t n = rng.chance(0.2) ? 200 + rng.next_below(300)
                                            : rng.next_below(40);
    for (std::uint64_t guid = 1; guid <= n; ++guid) {
      const std::uint64_t claim = 1 + rng.next_below(3);
      const std::uint64_t seq = claim + rng.next_below(50);
      const std::uint64_t ap = 100 + rng.next_below(4);
      TableEntry a = entry(gid, guid * 7, claim, seq, ap);
      TableEntry b = a;
      switch (rng.next_below(8)) {
        case 0:  // receiver newer: a later seq or a later epoch
          a = rng.chance(0.5) ? entry(gid, guid * 7, claim, seq + 5, ap)
                              : entry(gid, guid * 7, claim + 1, 1, ap + 1);
          break;
        case 1:  // sender newer
          b = rng.chance(0.5) ? entry(gid, guid * 7, claim, seq + 5, ap)
                              : entry(gid, guid * 7, claim + 1, 1, ap + 1);
          break;
        case 2:  // equal (claim, seq), different record
          b = entry(gid, guid * 7, claim, seq, ap + 1);
          break;
        case 3:
          b.gid = GroupId{};  // receiver only (dropped below)
          break;
        case 4:
          a.gid = GroupId{};  // sender only
          break;
        default:
          break;
      }
      if (!sender_only && a.gid.valid()) mine.push_back(a);
      if (!receiver_only && b.gid.valid()) theirs.push_back(b);
    }
  }
  std::pair<GroupDirectory, GroupDirectory> out;
  out.first.import_all(mine);
  out.second.import_all(theirs);
  // A queued op instantiates a group without touching its table.
  out.first.insert(member_op(kGroups + 3, OpKind::kMemberJoin, 1, 1, 100));
  return out;
}

TEST(GroupDirectory, ImportAndDiffMatchesBruteForceReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    common::RngStream rng{0xF05ED000 + seed};
    const auto [receiver, sender] = random_directory_pair(rng);
    ASSERT_GE(receiver.group_count(), 16u);
    const std::string at = "seed " + std::to_string(seed) + ": ";

    // What the NE sends: the sender scopes its kFull to the groups whose
    // digests differ from the receiver's, or sends everything.
    const std::vector<GroupId> scope =
        sender.differing_groups(receiver.packed_digests());
    ASSERT_FALSE(scope.empty());
    const std::vector<TableEntry> scoped = sender.export_groups(scope);
    expect_fused_matches_reference(receiver, scoped, scope, at + "scoped");
    expect_fused_matches_reference(receiver, sender.export_all(), {},
                                   at + "universal");
    expect_fused_matches_reference(receiver, scoped, {},
                                   at + "scoped payload, universal diff");

    // Gid-less entries, at the front and inside the payload.
    std::vector<TableEntry> gidless = scoped;
    TableEntry stray = scoped.front();
    stray.gid = GroupId{};
    gidless.insert(gidless.begin(), stray);
    gidless.insert(gidless.begin() + static_cast<std::ptrdiff_t>(
                                         gidless.size() / 2),
                   stray);
    expect_fused_matches_reference(receiver, gidless, scope, at + "gid-less");

    // Hand-made runs: shuffled, with repeated guids at other lattice
    // positions, and one group split into two runs.
    std::vector<TableEntry> shuffled = sender.export_all();
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    }
    expect_fused_matches_reference(receiver, shuffled, {}, at + "shuffled");
    std::vector<TableEntry> repeats = scoped;
    for (std::size_t i = 0; i < scoped.size(); i += 1 + rng.next_below(5)) {
      TableEntry copy = scoped[i];
      switch (rng.next_below(3)) {
        case 0:  // newer
          copy.last_seq += 3;
          break;
        case 1:  // older
          copy.last_seq = copy.last_seq > 1 ? copy.last_seq - 1 : 0;
          break;
        default:  // same (claim, seq), another record
          copy.record.access_proxy = NodeId{999};
          break;
      }
      repeats.insert(repeats.begin() + static_cast<std::ptrdiff_t>(
                                           rng.next_below(repeats.size() + 1)),
                     copy);
    }
    expect_fused_matches_reference(receiver, repeats, scope, at + "repeats");
    std::vector<TableEntry> split = scoped;
    std::rotate(split.begin(),
                split.begin() + static_cast<std::ptrdiff_t>(split.size() / 3),
                split.end());
    expect_fused_matches_reference(receiver, split, scope, at + "split runs");

    // Scopes naming groups neither side holds, unsorted and repeated.
    std::vector<GroupId> odd_scope = scope;
    odd_scope.push_back(GroupId{77});
    odd_scope.push_back(scope.front());
    odd_scope.push_back(GroupId{});
    std::reverse(odd_scope.begin(), odd_scope.end());
    expect_fused_matches_reference(receiver, scoped, odd_scope,
                                   at + "unsorted scope");
    expect_fused_matches_reference(receiver, {}, scope, at + "empty payload");
    if (::testing::Test::HasFailure()) return;
  }
}

// --- bucket-level exchange --------------------------------------------------

/// A directory pair over `groups` groups of 1-5,000 records each: the first
/// is the kDigest answerer, the second its peer, a copy perturbed at a
/// per-group rate from one record in a thousand to one in five (newer on
/// either side, equal (claim, seq) with another record, or missing on
/// either side). Both are built from shuffled payloads with gid-less
/// strays.
std::pair<GroupDirectory, GroupDirectory> random_large_pair(
    common::RngStream& rng, std::uint64_t groups) {
  std::vector<TableEntry> mine;
  std::vector<TableEntry> theirs;
  for (std::uint64_t gid = 1; gid <= groups; ++gid) {
    const std::uint64_t n = 1 + rng.next_below(5000);
    const double rate =
        std::vector<double>{0.001, 0.01, 0.2}[rng.next_below(3)];
    for (std::uint64_t guid = 1; guid <= n; ++guid) {
      const std::uint64_t claim = 1 + rng.next_below(3);
      const std::uint64_t seq = claim + rng.next_below(50);
      TableEntry a{MemberRecord{Guid{guid * 13}, NodeId{100 + guid % 4},
                                MemberStatus::kOperational},
                   seq, claim, GroupId{gid}};
      TableEntry b = a;
      bool in_a = true;
      bool in_b = true;
      if (rng.chance(rate)) {
        switch (rng.next_below(5)) {
          case 0:
            a.last_seq += 1 + rng.next_below(4);
            break;
          case 1:
            b.claim_seq += 1;
            b.record.status = MemberStatus::kFailed;
            break;
          case 2:
            b.record.access_proxy = NodeId{999};
            break;
          case 3:
            in_a = false;
            break;
          default:
            in_b = false;
            break;
        }
      }
      if (in_a) mine.push_back(a);
      if (in_b) theirs.push_back(b);
    }
  }
  const auto build = [&](std::vector<TableEntry> payload) {
    for (std::size_t i = payload.size(); i > 1; --i) {
      std::swap(payload[i - 1], payload[rng.next_below(i)]);
    }
    TableEntry stray = payload.front();
    stray.gid = GroupId{};
    payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(
                                         rng.next_below(payload.size())),
                   stray);
    GroupDirectory dir;
    dir.import_all(payload);
    return dir;
  };
  return {build(mine), build(theirs)};
}

/// A kFull payload as it may arrive: shuffled, with gid-less strays.
std::vector<TableEntry> mangled(std::vector<TableEntry> payload,
                                common::RngStream& rng) {
  for (std::size_t i = payload.size(); i > 1; --i) {
    std::swap(payload[i - 1], payload[rng.next_below(i)]);
  }
  TableEntry stray{MemberRecord{Guid{1}, NodeId{1}, MemberStatus::kFailed},
                   1'000'000, 1'000'000, GroupId{}};
  payload.insert(payload.begin(), stray);
  payload.push_back(stray);
  return payload;
}

/// The whole-group exchange the reference keeps: `a` answers the peer's
/// kDigest with a kFull of the differing groups, `b` imports it and diffs
/// back, `a` imports the diff.
void whole_group_exchange(GroupDirectory& a, GroupDirectory& b,
                          common::RngStream& rng) {
  const std::vector<GroupId> gids = a.differing_groups(b.packed_digests());
  std::vector<TableEntry> diff;
  b.import_and_diff(mangled(a.export_groups(gids), rng), gids, diff);
  a.import_all(diff);
}

/// The same exchange one level down for every differing group: `a` sends
/// its bucket digests, `b` ships a kFull of the buckets that differ, `a`
/// imports it and diffs back within those buckets, `b` imports the diff.
/// Returns the bucket scope.
std::vector<BucketScope> bucketed_exchange(GroupDirectory& a,
                                           GroupDirectory& b,
                                           common::RngStream& rng) {
  std::vector<BucketScope> scope;
  for (const GroupId gid : a.differing_groups(b.packed_digests())) {
    const BucketHashes theirs = a.bucket_digests(gid);
    const BucketHashes mine = b.bucket_digests(gid);
    BucketScope differing{gid, {}};
    for (std::uint32_t bucket = 0; bucket < kBucketCount; ++bucket) {
      if (mine[bucket] != theirs[bucket]) differing.buckets.push_back(bucket);
    }
    if (!differing.buckets.empty()) scope.push_back(std::move(differing));
  }
  std::vector<TableEntry> diff;
  a.import_and_diff(mangled(b.export_buckets(scope), rng), {}, diff, scope);
  b.import_all(diff);
  return scope;
}

void expect_same_directory(const GroupDirectory& got,
                           const GroupDirectory& want) {
  EXPECT_EQ(tables_of(got), tables_of(want));
  EXPECT_EQ(got.combined_digest(), want.combined_digest());
  EXPECT_EQ(got.change_count(), want.change_count());
}

TEST(GroupDirectory, BucketedExchangeMatchesWholeGroupReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::RngStream rng{0xB0C7E7 + seed};
    const auto [a, b] = random_large_pair(rng, 2 + rng.next_below(4));
    ASSERT_NE(a.combined_digest(), b.combined_digest());

    GroupDirectory ref_a = a;
    GroupDirectory ref_b = b;
    whole_group_exchange(ref_a, ref_b, rng);
    GroupDirectory got_a = a;
    GroupDirectory got_b = b;
    const std::vector<BucketScope> scope = bucketed_exchange(got_a, got_b, rng);
    ASSERT_FALSE(scope.empty());
    expect_same_directory(got_a, ref_a);
    expect_same_directory(got_b, ref_b);

    // The scope may arrive out of order, split, repeated, with indices
    // past kBucketCount and naming groups neither end holds: a receiver reads
    // it as the clean scope.
    std::vector<BucketScope> odd;
    for (const BucketScope& s : scope) {
      const auto half = s.buckets.begin() +
                        static_cast<std::ptrdiff_t>(s.buckets.size() / 2);
      odd.push_back(BucketScope{s.gid, {s.buckets.begin(), half}});
      odd.push_back(BucketScope{s.gid, {half, s.buckets.end()}});
      odd.push_back(BucketScope{s.gid, {s.buckets.front(), 128, 4000}});
    }
    odd.push_back(BucketScope{GroupId{777}, {1, 2, 3}});
    std::reverse(odd.begin(), odd.end());
    GroupDirectory odd_a = a;
    const GroupDirectory plain_b = b;
    std::vector<TableEntry> want;
    std::vector<TableEntry> got;
    GroupDirectory clean_a = a;
    clean_a.import_and_diff(plain_b.export_buckets(scope), {}, want, scope);
    odd_a.import_and_diff(plain_b.export_buckets(odd), {}, got, odd);
    EXPECT_EQ(got, want);
    expect_same_directory(odd_a, clean_a);
    EXPECT_EQ(odd_a.group_count(), a.group_count())
        << "a scope alone instantiates no group";
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(GroupDirectory, BucketDigestsXorToTheGroupDigest) {
  GroupDirectory dir;
  for (std::uint64_t m = 1; m <= 300; ++m) {
    dir.apply(member_op(5, OpKind::kMemberJoin, m, m, 100));
  }
  std::uint64_t folded = 0;
  for (const std::uint64_t h : dir.bucket_digests(GroupId{5})) folded ^= h;
  EXPECT_EQ(folded, dir.table_if(GroupId{5})->digest().hash);
  const std::uint64_t changes = dir.change_count();
  EXPECT_EQ(dir.bucket_digests(GroupId{6}), BucketHashes{});
  EXPECT_EQ(dir.table_if(GroupId{6}), nullptr)
      << "reading an absent group's buckets must not instantiate it";
  EXPECT_EQ(dir.change_count(), changes);
}

TEST(MemberGroups, StrideIsSortedDeterministicAndClamped) {
  // guid 7 with 10 groups, 3 per member: starts at 1 + 7 % 10 = 8, strides
  // cyclically — {8, then wraps}. Result is sorted gid-ascending.
  const std::vector<GroupId> got = member_groups(Guid{7}, 10, 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_TRUE(std::find(got.begin(), got.end(), GroupId{8}) != got.end());

  // Same inputs, same answer (no hidden state).
  EXPECT_EQ(member_groups(Guid{7}, 10, 3), got);

  // groups_per_member clamps to the group count; zero means one.
  EXPECT_EQ(member_groups(Guid{1}, 2, 99).size(), 2u);
  EXPECT_EQ(member_groups(Guid{1}, 4, 0).size(), 1u);

  // Single-group config: everyone lands in GroupId{1}.
  const std::vector<GroupId> single = member_groups(Guid{42}, 1, 1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], GroupId{1});
}

}  // namespace
}  // namespace rgb::core
