#include "rgb/member_table.hpp"

#include <gtest/gtest.h>

namespace rgb::core {
namespace {

MembershipOp op(OpKind kind, std::uint64_t seq, std::uint64_t guid,
                std::uint64_t ap, std::uint64_t old_ap = 0) {
  MembershipOp o;
  o.kind = kind;
  o.seq = seq;
  o.member = MemberRecord{Guid{guid}, NodeId{ap},
                          proto::MemberStatus::kOperational};
  if (old_ap != 0) o.old_ap = NodeId{old_ap};
  return o;
}

TEST(MemberTable, JoinInsertsOperationalRecord) {
  MemberTable t;
  EXPECT_TRUE(t.apply(op(OpKind::kMemberJoin, 1, 10, 100)));
  EXPECT_TRUE(t.contains(Guid{10}));
  const auto rec = t.find(Guid{10});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->access_proxy, NodeId{100});
  EXPECT_EQ(rec->status, proto::MemberStatus::kOperational);
}

TEST(MemberTable, LeaveMarksDisconnected) {
  MemberTable t;
  t.apply(op(OpKind::kMemberJoin, 1, 10, 100));
  EXPECT_TRUE(t.apply(op(OpKind::kMemberLeave, 2, 10, 100)));
  EXPECT_FALSE(t.contains(Guid{10}));
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(MemberTable, FailMarksFailed) {
  MemberTable t;
  t.apply(op(OpKind::kMemberJoin, 1, 10, 100));
  t.apply(op(OpKind::kMemberFail, 2, 10, 100));
  EXPECT_FALSE(t.contains(Guid{10}));
  EXPECT_EQ(t.find(Guid{10})->status, proto::MemberStatus::kFailed);
}

TEST(MemberTable, HandoffMovesAp) {
  MemberTable t;
  t.apply(op(OpKind::kMemberJoin, 1, 10, 100));
  t.apply(op(OpKind::kMemberHandoff, 2, 10, 200, 100));
  EXPECT_EQ(t.find(Guid{10})->access_proxy, NodeId{200});
  EXPECT_TRUE(t.contains(Guid{10}));
}

TEST(MemberTable, DuplicateApplyIsIdempotent) {
  MemberTable t;
  const auto join = op(OpKind::kMemberJoin, 5, 10, 100);
  EXPECT_TRUE(t.apply(join));
  EXPECT_FALSE(t.apply(join));  // same seq: no change
  EXPECT_EQ(t.size(), 1u);
}

TEST(MemberTable, StaleOpIsRejected) {
  MemberTable t;
  t.apply(op(OpKind::kMemberHandoff, 10, 7, 300, 200));
  // A retransmitted older join must not roll the member back.
  EXPECT_FALSE(t.apply(op(OpKind::kMemberJoin, 4, 7, 100)));
  EXPECT_EQ(t.find(Guid{7})->access_proxy, NodeId{300});
}

TEST(MemberTable, OutOfOrderHandoffChainResolvesToNewest) {
  MemberTable t;
  t.apply(op(OpKind::kMemberJoin, 1, 7, 100));
  // Deliveries may reorder across rings; highest seq must win.
  t.apply(op(OpKind::kMemberHandoff, 9, 7, 400, 300));
  t.apply(op(OpKind::kMemberHandoff, 5, 7, 300, 100));
  EXPECT_EQ(t.find(Guid{7})->access_proxy, NodeId{400});
}

TEST(MemberTable, SnapshotSortedByGuidAndOperationalOnly) {
  MemberTable t;
  t.apply(op(OpKind::kMemberJoin, 1, 30, 100));
  t.apply(op(OpKind::kMemberJoin, 2, 10, 100));
  t.apply(op(OpKind::kMemberJoin, 3, 20, 100));
  t.apply(op(OpKind::kMemberLeave, 4, 20, 100));
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].guid, Guid{10});
  EXPECT_EQ(snap[1].guid, Guid{30});
}

TEST(MemberTable, MembersAtFiltersByAp) {
  MemberTable t;
  t.apply(op(OpKind::kMemberJoin, 1, 1, 100));
  t.apply(op(OpKind::kMemberJoin, 2, 2, 200));
  t.apply(op(OpKind::kMemberJoin, 3, 3, 100));
  const auto at100 = t.members_at(NodeId{100});
  ASSERT_EQ(at100.size(), 2u);
  EXPECT_EQ(at100[0].guid, Guid{1});
  EXPECT_EQ(at100[1].guid, Guid{3});
  EXPECT_EQ(t.members_at(NodeId{999}).size(), 0u);
}

TEST(MemberTable, NeOpsAreIgnored) {
  MemberTable t;
  MembershipOp ne;
  ne.kind = OpKind::kNeFail;
  ne.seq = 1;
  ne.ne = NodeId{5};
  EXPECT_FALSE(t.apply(ne));
  EXPECT_EQ(t.size(), 0u);
}

TEST(MemberTable, MergeAdoptsNewerRecords) {
  MemberTable a, b;
  a.apply(op(OpKind::kMemberJoin, 1, 7, 100));
  b.apply(op(OpKind::kMemberHandoff, 5, 7, 200, 100));
  b.apply(op(OpKind::kMemberJoin, 2, 8, 300));
  a.merge(b);
  EXPECT_EQ(a.find(Guid{7})->access_proxy, NodeId{200});
  EXPECT_TRUE(a.contains(Guid{8}));
}

TEST(MemberTable, MergeKeepsOwnNewerRecords) {
  MemberTable a, b;
  a.apply(op(OpKind::kMemberHandoff, 9, 7, 500, 100));
  b.apply(op(OpKind::kMemberJoin, 1, 7, 100));
  a.merge(b);
  EXPECT_EQ(a.find(Guid{7})->access_proxy, NodeId{500});
}

TEST(MemberTable, EqualityComparesOperationalView) {
  MemberTable a, b;
  a.apply(op(OpKind::kMemberJoin, 1, 7, 100));
  b.apply(op(OpKind::kMemberJoin, 2, 7, 100));  // different seq, same view
  EXPECT_TRUE(a == b);
  b.apply(op(OpKind::kMemberJoin, 3, 8, 100));
  EXPECT_FALSE(a == b);
}

TEST(MemberTable, RejoinAfterLeaveWithHigherSeq) {
  MemberTable t;
  t.apply(op(OpKind::kMemberJoin, 1, 7, 100));
  t.apply(op(OpKind::kMemberLeave, 2, 7, 100));
  EXPECT_TRUE(t.apply(op(OpKind::kMemberJoin, 3, 7, 200)));
  EXPECT_TRUE(t.contains(Guid{7}));
  EXPECT_EQ(t.find(Guid{7})->access_proxy, NodeId{200});
}

TEST(MemberTable, UpsertAndRemoveBypassSequencing) {
  MemberTable t;
  t.upsert(MemberRecord{Guid{1}, NodeId{9}, proto::MemberStatus::kOperational});
  EXPECT_TRUE(t.contains(Guid{1}));
  t.remove(Guid{1});
  EXPECT_FALSE(t.contains(Guid{1}));
  EXPECT_FALSE(t.find(Guid{1}).has_value());
}

TEST(MemberTable, ClearEmptiesEverything) {
  MemberTable t;
  t.apply(op(OpKind::kMemberJoin, 1, 7, 100));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

// --- anti-entropy digest (PR3) ----------------------------------------------

TEST(MemberTableDigest, EmptyTableDigestIsZeroCount) {
  MemberTable t;
  EXPECT_EQ(t.digest().count, 0u);
}

TEST(MemberTableDigest, OrderIndependent) {
  // The digest is an xor-accumulation, so any application order of the
  // same final entries must agree — that is what lets two NEs compare
  // views without exporting and sorting them.
  MemberTable a, b;
  a.apply(op(OpKind::kMemberJoin, 1, 10, 100));
  a.apply(op(OpKind::kMemberJoin, 2, 20, 101));
  a.apply(op(OpKind::kMemberJoin, 3, 30, 102));
  b.apply(op(OpKind::kMemberJoin, 3, 30, 102));
  b.apply(op(OpKind::kMemberJoin, 1, 10, 100));
  b.apply(op(OpKind::kMemberJoin, 2, 20, 101));
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(MemberTableDigest, SensitiveToSeqStatusApAndCount) {
  MemberTable base;
  base.apply(op(OpKind::kMemberJoin, 1, 10, 100));

  MemberTable newer_seq;  // same record, newer seq
  newer_seq.apply(op(OpKind::kMemberJoin, 5, 10, 100));
  EXPECT_NE(base.digest().hash, newer_seq.digest().hash);

  MemberTable other_ap;
  other_ap.apply(op(OpKind::kMemberJoin, 1, 10, 101));
  EXPECT_NE(base.digest().hash, other_ap.digest().hash);

  MemberTable failed;
  failed.apply(op(OpKind::kMemberFail, 1, 10, 100));
  EXPECT_NE(base.digest().hash, failed.digest().hash);

  MemberTable more;
  more.apply(op(OpKind::kMemberJoin, 1, 10, 100));
  more.apply(op(OpKind::kMemberJoin, 2, 20, 100));
  EXPECT_NE(base.digest(), more.digest());
  EXPECT_EQ(more.digest().count, 2u);
}

TEST(MemberTableDigest, IncrementalMaintenanceMatchesRebuild) {
  // Every mutation path — apply (insert + overwrite), import, merge,
  // upsert, remove — must leave the incrementally-maintained digest equal
  // to a from-scratch import of the same entries.
  MemberTable t;
  t.apply(op(OpKind::kMemberJoin, 1, 10, 100));
  t.apply(op(OpKind::kMemberJoin, 2, 20, 101));
  t.apply(op(OpKind::kMemberHandoff, 3, 10, 102));  // overwrite
  t.apply(op(OpKind::kMemberFail, 4, 20, 101));     // overwrite
  t.apply(op(OpKind::kMemberFail, 1, 20, 101));     // stale: no-op

  MemberTable other;
  other.apply(op(OpKind::kMemberJoin, 9, 30, 103));
  other.apply(op(OpKind::kMemberJoin, 8, 10, 104));  // newer than t's
  t.merge(other);
  t.import_entries(other.export_entries());  // idempotent second pass
  t.upsert(proto::MemberRecord{Guid{40}, NodeId{105},
                               proto::MemberStatus::kOperational});
  t.remove(Guid{20});

  MemberTable rebuilt;
  rebuilt.import_entries(t.export_entries());
  EXPECT_EQ(t.digest(), rebuilt.digest());
  EXPECT_EQ(t.digest().count, t.size());

  t.clear();
  EXPECT_EQ(t.digest(), MemberTable{}.digest());
}

// ---------------------------------------------------------------------------
// Attachment-epoch (claim_seq) lattice: records order by (claim, seq)
// lexicographically — a newer physical attachment epoch beats anything
// derived from an older one regardless of raw seq, which is what makes
// cross-partition false-failure records and repair re-assertions unable to
// shadow a legitimate handoff.
// ---------------------------------------------------------------------------

MembershipOp epoch_op(OpKind kind, std::uint64_t seq, std::uint64_t claim,
                      std::uint64_t guid, std::uint64_t ap) {
  MembershipOp o = op(kind, seq, guid, ap);
  o.claim_seq = claim;
  return o;
}

TEST(MemberTableLattice, NewerEpochBeatsFresherSeqOfOlderEpoch) {
  // join@100 (epoch 10) -> detector false-fail with a very fresh seq
  // (epoch 10) -> the real handoff@200 (epoch 20, seq 20) that raced it.
  MemberTable t;
  t.apply(epoch_op(OpKind::kMemberJoin, 10, 10, 1, 100));
  t.apply(epoch_op(OpKind::kMemberFail, 1000, 10, 1, 100));
  EXPECT_EQ(t.find(Guid{1})->status, proto::MemberStatus::kFailed);
  // The handoff's seq (20) is far below the false-fail's (1000), yet its
  // newer epoch wins: the attachment can never be shadowed.
  EXPECT_TRUE(t.apply(epoch_op(OpKind::kMemberHandoff, 20, 20, 1, 200)));
  EXPECT_EQ(t.find(Guid{1})->access_proxy, NodeId{200});
  EXPECT_EQ(t.claim_of(Guid{1}), 20u);
  // And the old epoch's records are now inert, whatever their seq.
  EXPECT_FALSE(t.apply(epoch_op(OpKind::kMemberJoin, 5000, 10, 1, 100)));
  EXPECT_EQ(t.find(Guid{1})->access_proxy, NodeId{200});
}

TEST(MemberTableLattice, ReanchorWinsWithinItsEpochOnly) {
  // False accusation of epoch 10 (seq 50), re-anchored by the host with a
  // fresh seq in the SAME epoch: wins against the accusation...
  MemberTable t;
  t.apply(epoch_op(OpKind::kMemberJoin, 10, 10, 1, 100));
  t.apply(epoch_op(OpKind::kMemberFail, 50, 10, 1, 100));
  EXPECT_TRUE(t.apply(epoch_op(OpKind::kMemberJoin, 60, 10, 1, 100)));
  EXPECT_TRUE(t.contains(Guid{1}));
  // ...but loses to any newer epoch, even one with a lower raw seq — the
  // repair can never override an attachment it raced with.
  EXPECT_TRUE(t.apply(epoch_op(OpKind::kMemberHandoff, 55, 55, 1, 200)));
  EXPECT_FALSE(t.apply(epoch_op(OpKind::kMemberJoin, 70, 10, 1, 100)));
  EXPECT_EQ(t.find(Guid{1})->access_proxy, NodeId{200});
}

TEST(MemberTableLattice, ImportAndMergeAndDiffUseLatticeOrder) {
  MemberTable a, b;
  a.apply(epoch_op(OpKind::kMemberJoin, 10, 10, 1, 100));
  a.apply(epoch_op(OpKind::kMemberFail, 900, 10, 1, 100));  // false fail
  b.apply(epoch_op(OpKind::kMemberHandoff, 20, 20, 1, 200));
  // Import in both directions: the newer epoch wins on both sides.
  MemberTable a2;
  a2.import_entries(a.export_entries());
  EXPECT_TRUE(a2.import_entries(b.export_entries()));
  EXPECT_EQ(a2.find(Guid{1})->access_proxy, NodeId{200});
  EXPECT_FALSE(b.import_entries(a.export_entries()));
  EXPECT_EQ(b.find(Guid{1})->access_proxy, NodeId{200});
  // import_and_diff: a's false-fail record is NOT newer than b's entry, so
  // the import leaves b unchanged and the diff b would send back for a's
  // entries contains b's record.
  std::vector<TableEntry> diff;
  EXPECT_FALSE(b.import_and_diff(a.export_entries(), diff));
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].claim_seq, 20u);
  // merge follows the same order.
  a.merge(b);
  EXPECT_EQ(a.find(Guid{1})->access_proxy, NodeId{200});
}

TEST(MemberTableLattice, ClaimChangesFlipTheDigest) {
  MemberTable a, b;
  a.apply(epoch_op(OpKind::kMemberJoin, 10, 10, 1, 100));
  b.apply(epoch_op(OpKind::kMemberJoin, 10, 9, 1, 100));
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(
      MemberTable::entry_hash(
          MemberRecord{Guid{1}, NodeId{100}, proto::MemberStatus::kOperational},
          10, 10),
      MemberTable::entry_hash(
          MemberRecord{Guid{1}, NodeId{100}, proto::MemberStatus::kOperational},
          10, 9));
}

TEST(MemberTableDigest, EqualTablesAgreeDifferingTablesDiverge) {
  MemberTable a, b;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    a.apply(op(OpKind::kMemberJoin, i, i, 100 + (i % 5)));
    b.apply(op(OpKind::kMemberJoin, i, i, 100 + (i % 5)));
  }
  EXPECT_EQ(a.digest(), b.digest());
  b.apply(op(OpKind::kMemberHandoff, 99, 25, 104));
  EXPECT_NE(a.digest(), b.digest());
}

}  // namespace
}  // namespace rgb::core
