#include "rgb/member_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

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
  a.import_entries(b.export_entries());
  EXPECT_EQ(a.find(Guid{7})->access_proxy, NodeId{200});
  EXPECT_TRUE(a.contains(Guid{8}));
}

TEST(MemberTable, MergeKeepsOwnNewerRecords) {
  MemberTable a, b;
  a.apply(op(OpKind::kMemberHandoff, 9, 7, 500, 100));
  b.apply(op(OpKind::kMemberJoin, 1, 7, 100));
  a.import_entries(b.export_entries());
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
  // Every mutation path — apply (insert + overwrite), import — must leave
  // the incrementally-maintained digest equal to a from-scratch import of
  // the same entries.
  MemberTable t;
  t.apply(op(OpKind::kMemberJoin, 1, 10, 100));
  t.apply(op(OpKind::kMemberJoin, 2, 20, 101));
  t.apply(op(OpKind::kMemberHandoff, 3, 10, 102));  // overwrite
  t.apply(op(OpKind::kMemberFail, 4, 20, 101));     // overwrite
  t.apply(op(OpKind::kMemberFail, 1, 20, 101));     // stale: no-op

  MemberTable other;
  other.apply(op(OpKind::kMemberJoin, 9, 30, 103));
  other.apply(op(OpKind::kMemberJoin, 8, 10, 104));  // newer than t's
  t.import_entries(other.export_entries());
  t.import_entries(other.export_entries());  // idempotent second pass

  MemberTable rebuilt;
  rebuilt.import_entries(t.export_entries());
  EXPECT_EQ(t.digest(), rebuilt.digest());
  EXPECT_EQ(t.digest().count, t.size());
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
  // Importing b into a follows the same order.
  a.import_entries(b.export_entries());
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

// ---------------------------------------------------------------------------
// Bucket digests (wire v5): one Merkle level under the table digest.
// ---------------------------------------------------------------------------

std::uint64_t xor_of(const BucketHashes& hashes) {
  std::uint64_t out = 0;
  for (const std::uint64_t h : hashes) out ^= h;
  return out;
}

TEST(MemberTableBuckets, DigestsXorToTheTableDigestIndexedOrNot) {
  MemberTable t;
  for (std::uint64_t i = 1; i <= 600; ++i) {
    t.apply(op(OpKind::kMemberJoin, i, i * 3, 100 + (i % 7)));
  }
  const BucketHashes walked = t.bucket_digests();
  EXPECT_EQ(xor_of(walked), t.digest().hash);
  t.index_buckets();
  EXPECT_EQ(t.bucket_digests(), walked);
  t.index_buckets();  // idempotent
  EXPECT_EQ(t.bucket_digests(), walked);

  // One changed record moves exactly its own bucket's digest.
  t.apply(op(OpKind::kMemberFail, 700, 30, 100));
  const BucketHashes after = t.bucket_digests();
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    if (b == MemberTable::bucket_of(Guid{30})) {
      EXPECT_NE(after[b], walked[b]);
    } else {
      EXPECT_EQ(after[b], walked[b]) << "bucket " << b;
    }
  }
}

TEST(MemberTableBuckets, IndexFollowsEveryMutation) {
  // Index first, then every mutation path — apply (insert + overwrite),
  // import: the kept bucket digests and the bucket-scoped export
  // must equal those of an unindexed rebuild.
  MemberTable t;
  t.apply(op(OpKind::kMemberJoin, 1, 10, 100));
  t.index_buckets();
  for (std::uint64_t i = 2; i <= 300; ++i) {
    t.apply(op(OpKind::kMemberJoin, i, i * 11, 100 + (i % 5)));
  }
  t.apply(op(OpKind::kMemberHandoff, 400, 10, 102));  // overwrite
  MemberTable other;
  other.apply(op(OpKind::kMemberJoin, 500, 33, 103));   // newer than t's
  other.apply(op(OpKind::kMemberJoin, 501, 9999, 104));  // new to t
  t.import_entries(other.export_entries());
  const std::vector<TableEntry> imported{TableEntry{
      MemberRecord{Guid{8888}, NodeId{101}, proto::MemberStatus::kFailed}, 600,
      600, GroupId{}}};
  t.import_entries(imported);

  MemberTable rebuilt;
  rebuilt.import_entries(t.export_entries());
  EXPECT_EQ(t.bucket_digests(), rebuilt.bucket_digests());
  BucketMask odd;
  for (std::size_t b = 1; b < kBucketCount; b += 2) odd.set(b);
  std::vector<TableEntry> indexed;
  std::vector<TableEntry> walked;
  t.append_entries(indexed, GroupId{4}, odd);
  rebuilt.append_entries(walked, GroupId{4}, odd);
  EXPECT_EQ(indexed, walked);
  EXPECT_FALSE(indexed.empty());
  for (const TableEntry& e : indexed) {
    EXPECT_TRUE(odd.test(MemberTable::bucket_of(e.record.guid)));
  }
}

TEST(MemberTableBuckets, ScopedDiffLooksForAbsentRecordsInScopeOnly) {
  MemberTable t;
  for (std::uint64_t i = 1; i <= 400; ++i) {
    t.apply(op(OpKind::kMemberJoin, i, i, 100));
  }
  const std::size_t scoped = MemberTable::bucket_of(Guid{5});
  BucketMask scope;
  scope.set(scoped);
  // The sender knows none of the table: every record of the scoped bucket,
  // and no other, is news to it.
  std::vector<TableEntry> newer;
  EXPECT_FALSE(t.import_and_diff({}, newer, scope));
  ASSERT_FALSE(newer.empty());
  for (const TableEntry& e : newer) {
    EXPECT_EQ(MemberTable::bucket_of(e.record.guid), scoped);
  }
  EXPECT_TRUE(std::is_sorted(newer.begin(), newer.end(),
                             [](const TableEntry& a, const TableEntry& b) {
                               return a.record.guid < b.record.guid;
                             }));
  std::vector<TableEntry> bucket;
  t.append_entries(bucket, GroupId{}, scope);
  EXPECT_EQ(newer, bucket);
}

// ---------------------------------------------------------------------------
// Differential test: a MemberTable against a reference that keeps one row
// per guid in a std::map and applies the same total rank, written out on
// its own (`outranks` below), through random
// applies, imports, fused import+diffs (whole and bucket-scoped), bucket
// indexing and guid-order refreshes, in three fill phases that each start
// from a fresh table. The guid patterns stress the table's index: guid %
// (prime size) placement, linear probing with wrap-around, and growth
// through seven index sizes. The order refreshes land before and after
// appends, status changes and imports, and on an empty table, so the
// snapshot every step checks is often read through the kept order.
// ---------------------------------------------------------------------------

/// The record rank, independently of record_precedes: `a` out-ranks `b`
/// when its (claim, seq, status, access proxy) is lexicographically
/// greater.
bool outranks(const TableEntry& a, const TableEntry& b) {
  const auto key = [](const TableEntry& e) {
    return std::make_tuple(e.claim_seq, e.last_seq,
                           static_cast<int>(e.record.status),
                           e.record.access_proxy.value());
  };
  return key(a) > key(b);
}

class ReferenceTable {
 public:
  bool apply(const MembershipOp& o) {
    if (!o.is_member_op()) return false;
    MemberRecord rec = o.member;
    rec.status = proto::MemberStatus::kOperational;
    if (o.kind == OpKind::kMemberLeave) {
      rec.status = proto::MemberStatus::kDisconnected;
    } else if (o.kind == OpKind::kMemberFail) {
      rec.status = proto::MemberStatus::kFailed;
    }
    return land(TableEntry{rec, o.seq, o.claim_seq, GroupId{}});
  }

  bool import(std::span<const TableEntry> entries) {
    bool changed = false;
    for (const TableEntry& e : entries) changed |= land(e);
    return changed;
  }

  /// MemberTable::import_and_diff's result for a guid-ascending `run`.
  bool import_and_diff(std::span<const TableEntry> run,
                       std::vector<TableEntry>& newer,
                       const BucketMask& scope) {
    const bool changed = import(run);
    for (const auto& [guid, row] : rows_) {
      const auto it = std::find_if(run.begin(), run.end(), [&](const auto& e) {
        return e.record.guid == guid;
      });
      const bool wanted =
          it == run.end()
              ? scope.test(MemberTable::bucket_of(guid))
              : outranks(row, *it);
      if (wanted) newer.push_back(row);
    }
    return changed;
  }

  [[nodiscard]] const std::map<Guid, TableEntry>& rows() const { return rows_; }

  [[nodiscard]] std::vector<MemberRecord> snapshot(
      std::optional<NodeId> ap = std::nullopt) const {
    std::vector<MemberRecord> out;
    for (const auto& [guid, row] : rows_) {
      if (row.record.status == proto::MemberStatus::kOperational &&
          (!ap || row.record.access_proxy == *ap)) {
        out.push_back(row.record);
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<TableEntry> entries(GroupId gid,
                                                const BucketMask& mask) const {
    std::vector<TableEntry> out;
    for (const auto& [guid, row] : rows_) {
      if (!mask.test(MemberTable::bucket_of(guid))) continue;
      out.push_back(row);
      out.back().gid = gid;
    }
    return out;
  }

  [[nodiscard]] BucketHashes bucket_digests() const {
    BucketHashes out{};
    for (const auto& [guid, row] : rows_) {
      out[MemberTable::bucket_of(guid)] ^=
          MemberTable::entry_hash(row.record, row.last_seq, row.claim_seq);
    }
    return out;
  }

 private:
  bool land(const TableEntry& e) {
    const auto it = rows_.find(e.record.guid);
    if (it != rows_.end() && !outranks(e, it->second)) return false;
    rows_[e.record.guid] = TableEntry{e.record, e.last_seq, e.claim_seq, {}};
    return true;
  }

  std::map<Guid, TableEntry> rows_;
};

/// Every read of `t` against the reference: the sorted views, the exports
/// (whole and restricted to `mask`), the digests, and the point reads of
/// each guid in `probes`.
testing::AssertionResult agrees(const MemberTable& t, const ReferenceTable& ref,
                                std::span<const Guid> probes, NodeId ap,
                                const BucketMask& mask) {
  if (t.size() != ref.rows().size() || t.empty() != ref.rows().empty()) {
    return testing::AssertionFailure()
           << "size " << t.size() << " vs " << ref.rows().size();
  }
  if (t.snapshot() != ref.snapshot()) {
    return testing::AssertionFailure() << "snapshot differs";
  }
  if (t.members_at(ap) != ref.snapshot(ap)) {
    return testing::AssertionFailure() << "members_at(" << ap << ") differs";
  }
  if (t.export_entries() != ref.entries(GroupId{}, ~BucketMask{})) {
    return testing::AssertionFailure() << "export_entries differs";
  }
  std::vector<TableEntry> scoped{TableEntry{}};  // appended after a prefix
  t.append_entries(scoped, GroupId{7}, mask);
  std::vector<TableEntry> expected{TableEntry{}};
  for (const TableEntry& e : ref.entries(GroupId{7}, mask)) {
    expected.push_back(e);
  }
  if (scoped != expected) {
    return testing::AssertionFailure() << "bucket-scoped append differs";
  }
  const BucketHashes buckets = ref.bucket_digests();
  std::uint64_t hash = 0;
  for (const std::uint64_t h : buckets) hash ^= h;
  if (t.digest() != ViewDigest{hash, ref.rows().size()}) {
    return testing::AssertionFailure() << "digest differs";
  }
  if (t.bucket_digests() != buckets) {
    return testing::AssertionFailure() << "bucket digests differ";
  }
  for (const Guid guid : probes) {
    const auto it = ref.rows().find(guid);
    const TableEntry* row = it == ref.rows().end() ? nullptr : &it->second;
    const std::optional<TableEntry> entry = t.lookup(guid);
    const std::optional<MemberRecord> record = t.find(guid);
    const bool same =
        row == nullptr
            ? !entry && !record && !t.contains(guid) &&
                  t.claim_of(guid) == 0 && t.last_seq_of(guid) == 0
            : entry && *entry == *row && record && *record == row->record &&
                  t.contains(guid) == (row->record.status ==
                                       proto::MemberStatus::kOperational) &&
                  t.claim_of(guid) == row->claim_seq &&
                  t.last_seq_of(guid) == row->last_seq;
    if (!same) {
      return testing::AssertionFailure()
             << "point reads of guid " << guid << " differ";
    }
  }
  return testing::AssertionSuccess();
}

/// Every index size up to 521 divides kOneHome, so its multiples share one
/// home slot until the index outgrows 521 slots.
constexpr std::uint64_t kOneHome = 11ULL * 17 * 37 * 67 * 131 * 257 * 521;

struct GuidPattern {
  const char* name;
  std::uint64_t (*guid)(std::uint64_t k);  ///< the pattern's k-th guid
};

void run_differential(const GuidPattern& pattern, std::uint64_t seed) {
  SCOPED_TRACE(pattern.name);
  common::RngStream rng{seed};
  std::uint64_t fresh = 0;  // the first pattern index never handed out
  const auto pick = [&] {
    if (rng.chance(0.45)) return Guid{pattern.guid(fresh++)};
    return Guid{pattern.guid(rng.next_below(fresh + 2))};
  };
  const auto entry = [&](Guid guid) {
    const auto status = static_cast<proto::MemberStatus>(rng.next_below(3));
    const NodeId ap{100 + rng.next_below(4)};
    return TableEntry{MemberRecord{guid, ap, status}, 1 + rng.next_below(40),
                      rng.next_below(4), GroupId{}};
  };
  const auto mask = [&] {
    BucketMask out;
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      out.set(b, rng.chance(0.125));
    }
    return out;
  };
  std::size_t step = 0;
  // 600 records grow the index 11 -> 17 -> 37 -> 67 -> 131 -> 257 -> 521
  // -> 1031; then a fresh table is filled to 200 from the same guids, and
  // another to 600 again.
  for (const std::size_t target : {600U, 200U, 600U}) {
    MemberTable table;
    ReferenceTable ref;
    fresh = 0;
    if (rng.chance(0.5)) table.index_order();  // on an empty table
    while (ref.rows().size() < target) {
      std::vector<Guid> probes{Guid{0}, Guid{pattern.guid(fresh + 3)}};
      const std::uint64_t r = rng.next_below(100);
      if (r < 55) {
        const TableEntry e = entry(pick());
        MembershipOp o;
        o.kind = static_cast<OpKind>(rng.next_below(5));  // kNeJoin: ignored
        o.seq = e.last_seq;
        o.claim_seq = e.claim_seq;
        o.member = e.record;
        ASSERT_EQ(table.apply(o), ref.apply(o)) << "apply, step " << step;
        probes.push_back(e.record.guid);
      } else if (r < 62) {
        table.index_order();
      } else if (r < 75) {
        std::vector<TableEntry> batch;  // any order, guids may repeat
        for (std::uint64_t n = rng.next_below(7); n > 0; --n) {
          batch.push_back(entry(pick()));
          probes.push_back(batch.back().record.guid);
        }
        ASSERT_EQ(table.import_entries(batch), ref.import(batch))
            << "import_entries, step " << step;
      } else if (r < 95) {
        std::map<Guid, TableEntry> by_guid;
        for (std::uint64_t n = rng.next_below(9); n > 0; --n) {
          const TableEntry e = entry(pick());
          by_guid.insert_or_assign(e.record.guid, e);
          probes.push_back(e.record.guid);
        }
        std::vector<TableEntry> run;
        for (const auto& [guid, e] : by_guid) run.push_back(e);
        const BucketMask scope = rng.chance(0.5) ? ~BucketMask{} : mask();
        std::vector<TableEntry> newer;
        std::vector<TableEntry> expected;
        if (rng.chance(0.5)) {  // the diff appends after what is there
          newer.push_back(entry(Guid{1}));
          expected.push_back(newer.back());
        }
        ASSERT_EQ(table.import_and_diff(run, newer, scope),
                  ref.import_and_diff(run, expected, scope))
            << "import_and_diff, step " << step;
        ASSERT_EQ(newer, expected) << "import_and_diff, step " << step;
      } else {
        table.index_buckets();
      }
      if (step % 64 == 0 || ref.rows().size() == target) {
        for (const auto& [guid, row] : ref.rows()) probes.push_back(guid);
      }
      ASSERT_TRUE(agrees(table, ref, probes, NodeId{100 + rng.next_below(4)},
                         mask()))
          << "step " << step;
      ++step;
    }
  }
}

TEST(MemberTableDifferential, AscendingGuids) {
  run_differential({"ascending", [](std::uint64_t k) { return k + 1; }}, 1);
}

TEST(MemberTableDifferential, GuidsStridedBy100) {
  run_differential({"stride 100", [](std::uint64_t k) { return 100 * k + 7; }},
                   2);
}

TEST(MemberTableDifferential, GuidsStridedBy1000) {
  run_differential(
      {"stride 1000", [](std::uint64_t k) { return 1000 * k + 42; }}, 3);
}

TEST(MemberTableDifferential, GuidsSharingOneHomeSlot) {
  run_differential(
      {"one home slot", [](std::uint64_t k) { return kOneHome * (k + 1); }},
      4);
}

TEST(MemberTableDifferential, GuidsHomedAtTheLastSlot) {
  // Every probe starts at the index's last slot and wraps to slot 0.
  run_differential({"last slot",
                    [](std::uint64_t k) { return kOneHome * (k + 1) - 1; }},
                   5);
}

TEST(MemberTableDifferential, GuidsNearTheTopOfTheRange) {
  run_differential({"near 2^64 - 1",
                    [](std::uint64_t k) {
                      return std::numeric_limits<std::uint64_t>::max() - 3 * k;
                    }},
                   6);
}

}  // namespace
}  // namespace rgb::core
