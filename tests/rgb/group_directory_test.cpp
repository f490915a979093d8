#include "rgb/group_directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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
  // table() is the write path and may create.
  dir.table(GroupId{7});
  EXPECT_EQ(dir.group_count(), 2u);
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
  dir.table(GroupId{6});  // instantiated but empty: not packed

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
