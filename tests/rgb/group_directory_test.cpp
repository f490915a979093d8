#include "rgb/group_directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
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

TEST(GroupDirectory, NewerThanIsGroupScoped) {
  GroupDirectory a;
  a.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  a.apply(member_op(2, OpKind::kMemberJoin, 2, 20, 100));
  a.apply(member_op(2, OpKind::kMemberJoin, 3, 21, 100));

  GroupDirectory b;
  b.apply(member_op(2, OpKind::kMemberJoin, 2, 20, 100));

  // Scoped to group 2: only the entry b lacks comes back.
  const auto diff = a.newer_than(b.export_all(), {GroupId{2}});
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].gid, GroupId{2});
  EXPECT_EQ(diff[0].record.guid, Guid{21});

  // Empty scope = every group a holds.
  const auto full = a.newer_than(b.export_all(), {});
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

/// The per-group queues, drained and orphan-collected by visiting every
/// group in gid order — the reference the directory's tracked lists of
/// queues holding work must reproduce. (No NE queue: every op here carries
/// a gid.)
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

  std::vector<Contributor> take_orphaned_acks() {
    std::vector<Contributor> out;
    for (auto& [gid, mq] : queues_) {
      for (const Contributor& c : mq.take_orphaned_acks()) {
        if (std::find(out.begin(), out.end(), c) == out.end()) {
          out.push_back(c);
        }
      }
    }
    return out;
  }

  void clear() { queues_.clear(); }

 private:
  bool aggregate_;
  std::map<GroupId, MessageQueue> queues_;
};

/// Seeded random walk over every directory mutation point, checking after
/// each step that the O(1) aggregates equal a walk over groups(), that
/// drains and orphaned acks come out exactly as the per-group walk yields
/// them (gid order), and that change_count() moves exactly when a table
/// does.
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
    // notify_id encodes the gid so orphan order can be checked against it.
    return Contributor{NodeId{500 + rng.next_below(4)}, gid * 1000 + ++notify};
  };
  const auto queue_both = [&](const MembershipOp& op, Contributor c) {
    dir.insert(op, c);
    walk.insert(op, c);
  };

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t changes_before = dir.change_count();
    bool table_may_change = false;
    switch (rng.next_below(9)) {
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
      case 4: {  // insert_batch with a local join+leave pair: the leave's
                 // contributor is orphaned when the pair annihilates
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
      case 7: {  // take_orphaned_acks
        const std::vector<Contributor> got = dir.take_orphaned_acks();
        EXPECT_EQ(got, walk.take_orphaned_acks());
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end(),
                                   [](const auto& a, const auto& b) {
                                     return a.notify_id / 1000 <
                                            b.notify_id / 1000;
                                   }));
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
