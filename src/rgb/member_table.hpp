// Membership view held by a network entity: the paper's
// ListOfLocalMembers / ListOfRingMembers / ListOfNeighborMembers are all
// instances of this table with different scopes.
//
// Applying the same op twice is harmless (idempotent apply keyed by the
// record rank, record_precedes), which lets retransmitted notifications and
// merged partitions reconcile without special cases.
//
// Storage: every record lives in one dense vector in insertion order, and
// an open-addressing index of 4-byte positions finds a guid's record.
// Records are never erased (leave and fail are statuses), so the index is
// insert-only: linear probing, load at most 3/4, sizes from a ladder of
// primes just above powers of two. A guid's home slot is guid % size: a
// token round's ops arrive in near-ascending guid order and land in
// neighbouring slots, and one group's strided guids still spread over the
// whole index. A position is 4 bytes, which caps a table at 2^32 - 1
// records (insertion past that throws std::length_error). A table that
// answers queries also keeps its records' guid order, as positions
// (index_order): a query's snapshot walks it instead of sorting, and a
// refresh sorts only the records appended since the last one.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "rgb/types.hpp"

namespace rgb::core {

/// One reconciliation unit of a member table: the record plus the newest
/// op sequence that produced it and the attachment epoch it belongs to.
/// Exchanged by the anti-entropy view sync (kViewSync), ring reforms,
/// merges and snapshots, and merged by the same rank as ops (an op lands
/// as its entry_of).
struct TableEntry {
  MemberRecord record;
  std::uint64_t last_seq = 0;
  /// Attachment epoch of the record (MembershipOp::claim_seq).
  std::uint64_t claim_seq = 0;
  /// Group the entry belongs to. Stamped at the GroupDirectory boundary —
  /// inside one MemberTable every entry belongs to the same group, so the
  /// table itself (and its digest) stays group-agnostic, which is what
  /// keeps a G=1 directory digest bit-identical to the v3 single table.
  GroupId gid;

  friend bool operator==(const TableEntry&, const TableEntry&) = default;
};

/// The rank of two versions of one member's record. Attachment epochs
/// order first (a newer physical join/handoff beats anything derived from
/// an older epoch — detector-inferred failures, repair re-assertions —
/// regardless of raw seq), and within one epoch the op sequence orders
/// events. Seqs may collide (types.hpp), so on an equal (claim_seq, seq)
/// the content decides: Failed over Disconnected over Operational (the
/// MemberStatus order), then the higher access proxy. The rank is total on
/// distinct versions, and equal versions never precede each other. Every
/// merge of two versions keeps the higher-ranked one: MemberTable::apply
/// and import, the MQ's aggregation and the GroupDirectory's canonical
/// payload. So member records form a join-semilattice: the same set of
/// ops/entries merged in any order, with any repeats, converges to the same
/// table, which is what anti-entropy's digest comparison relies on. The
/// group does not take part (one table holds one group).
[[nodiscard]] constexpr bool record_precedes(const TableEntry& a,
                                             const TableEntry& b) {
  return std::tie(a.claim_seq, a.last_seq, a.record.status,
                  a.record.access_proxy) <
         std::tie(b.claim_seq, b.last_seq, b.record.status,
                  b.record.access_proxy);
}

/// The status a member op leaves its record in: Operational after a join
/// or handoff, Disconnected after a leave, Failed after a fail.
[[nodiscard]] constexpr MemberStatus status_of(OpKind kind) {
  switch (kind) {
    case OpKind::kMemberLeave:
      return MemberStatus::kDisconnected;
    case OpKind::kMemberFail:
      return MemberStatus::kFailed;
    default:
      return MemberStatus::kOperational;
  }
}

/// The entry a member op leaves in a table: its record with the status of
/// its kind, its seq and its claim epoch, stamped with its group. An op is
/// ranked against another op or an entry through it.
[[nodiscard]] constexpr TableEntry entry_of(const MembershipOp& op) {
  return TableEntry{
      MemberRecord{op.member.guid, op.member.access_proxy, status_of(op.kind)},
      op.seq, op.claim_seq, op.gid};
}

/// Compact summary of a table for digest-first anti-entropy: an
/// order-independent 64-bit hash over every (guid, seq, record) plus the
/// entry count. Equal tables always have equal digests; unequal tables
/// collide with probability ~2^-64 per comparison (and only a *persistent*
/// collision — two tables that differ yet never change again — could stall
/// reconciliation, since any further mutation re-rolls the hash).
struct ViewDigest {
  std::uint64_t hash = 0;
  std::uint64_t count = 0;

  friend bool operator==(const ViewDigest&, const ViewDigest&) = default;
};

/// One group's digest inside the packed multi-group anti-entropy frame:
/// all groups a link serves travel as one vector of these per probe tick,
/// so steady-state sync bytes grow ~11B per group instead of one full
/// kDigest frame (>= 64B base) per group per link.
struct GroupDigest {
  GroupId gid;
  std::uint64_t hash = 0;
  std::uint64_t count = 0;

  friend bool operator==(const GroupDigest&, const GroupDigest&) = default;
};

/// Bucket-level anti-entropy (wire v5), one level of a Merkle tree under
/// the group digest: a record's bucket is its guid hash mod kBucketCount, and a
/// bucket's digest is the xor of its entries' MemberTable::entry_hash, so a
/// table's bucket digests xor to its digest().hash.
inline constexpr std::size_t kBucketCount = 128;
using BucketHashes = std::array<std::uint64_t, kBucketCount>;
using BucketMask = std::bitset<kBucketCount>;

/// One group's bucket digests in a kBuckets frame.
struct GroupBuckets {
  GroupId gid;
  BucketHashes hashes{};

  friend bool operator==(const GroupBuckets&, const GroupBuckets&) = default;
};

/// One group's share of a bucket-scoped kFull / kDiff: the buckets, each
/// below kBucketCount and ascending, that the sync covers.
struct BucketScope {
  GroupId gid;
  std::vector<std::uint32_t> buckets;

  friend bool operator==(const BucketScope&, const BucketScope&) = default;
};

class MemberTable {
 public:
  /// Applies a member op: imports its entry_of. Returns true if the table
  /// changed. NE ops are ignored (tables track mobile hosts only).
  bool apply(const MembershipOp& op);

  [[nodiscard]] std::optional<MemberRecord> find(Guid guid) const;
  /// Record, seq and claim epoch in one probe — the reaffirmation /
  /// reconcile hot path reads all three per attached member per tick, and
  /// three separate map lookups were measurable at scale.
  [[nodiscard]] std::optional<TableEntry> lookup(Guid guid) const;
  [[nodiscard]] bool contains(Guid guid) const;
  /// Newest op sequence applied to `guid` (0 when unknown). The pair
  /// (claim_of, last_seq_of) never falls per guid in (claim, seq) order, as
  /// every merge keeps the higher-ranked record; the check-layer monotone
  /// oracle asserts that observed views never regress it.
  [[nodiscard]] std::uint64_t last_seq_of(Guid guid) const;
  /// Attachment epoch of `guid`'s record (0 when unknown / epoch-less).
  [[nodiscard]] std::uint64_t claim_of(Guid guid) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Operational members only, sorted by GUID for deterministic comparison.
  /// Walks the kept guid order when it covers every record (index_order),
  /// else copies the records and sorts them.
  [[nodiscard]] std::vector<MemberRecord> snapshot() const;

  /// Members currently attached to `ap`, sorted by GUID.
  [[nodiscard]] std::vector<MemberRecord> members_at(NodeId ap) const;

  /// Every record (operational or not) with its sequence, sorted by guid —
  /// the anti-entropy sync payload.
  [[nodiscard]] std::vector<TableEntry> export_entries() const;
  /// Appends every record, stamped with `gid`, to `out`; the appended part
  /// is guid-ascending.
  void append_entries(std::vector<TableEntry>& out, GroupId gid) const;
  /// append_entries restricted to the records whose bucket is in `buckets`.
  void append_entries(std::vector<TableEntry>& out, GroupId gid,
                      const BucketMask& buckets) const;

  /// Lattice merge of exported entries: an entry lands only when it
  /// out-ranks what this table holds for the guid (`record_precedes`).
  /// Returns true when anything changed.
  bool import_entries(std::span<const TableEntry> entries);

  /// import_entries for a strictly guid-ascending `run`, fused with the
  /// diff an anti-entropy receiver sends back: appends to `newer` every
  /// entry of this table that the import left out-ranking its incoming
  /// copy or that the run does not mention (the appended part is
  /// guid-ascending, gid unstamped). The same index probe imports and
  /// compares; records absent from the run are searched for only when the
  /// table holds more records than the run, only until all are found, and
  /// only in the buckets of `scope` (indexing the table's buckets when
  /// that is not all of them).
  bool import_and_diff(std::span<const TableEntry> run,
                       std::vector<TableEntry>& newer,
                       const BucketMask& scope = ~BucketMask{});

  /// O(1) anti-entropy digest, maintained incrementally: every mutation
  /// xors the affected entry's hash out of / into the accumulator, so a
  /// steady-state sync tick costs a comparison instead of an
  /// export-sort-ship of the whole table.
  [[nodiscard]] ViewDigest digest() const {
    return ViewDigest{digest_, entries_.size()};
  }

  /// The record's bucket: its guid hash mod kBucketCount.
  [[nodiscard]] static std::size_t bucket_of(Guid guid);
  /// Starts keeping bucket state: each bucket's digest, by the same xor as
  /// digest(), and its records, both updated with every later change. From
  /// then on bucket_digests() costs O(kBucketCount), and a bucket-scoped export
  /// or diff visits only the scoped buckets' records instead of the whole
  /// table. Idempotent; no entry, digest or answer changes.
  void index_buckets();
  /// Each bucket's digest: O(kBucketCount) once indexed, else one pass.
  [[nodiscard]] BucketHashes bucket_digests() const;

  /// Starts keeping the records' guid order, 4 bytes a record, and brings
  /// it up to date: the positions appended since the last call are sorted
  /// and merged in. Until the next append, snapshot() walks the order.
  /// Only a table that answers queries keeps one
  /// (GroupDirectory::group_snapshot); snapshot() starts none, or every
  /// table that a whole-system check reads would carry one. Idempotent; no
  /// entry, digest or answer changes.
  void index_order();

  /// The hash one entry contributes to the digest (exposed for tests that
  /// need to predict or collide digests).
  [[nodiscard]] static std::uint64_t entry_hash(const MemberRecord& record,
                                                std::uint64_t last_seq,
                                                std::uint64_t claim_seq);

  friend bool operator==(const MemberTable& a, const MemberTable& b);

  /// Empties the table and drops its bucket state and its guid order; the
  /// index keeps its size for the refill.
  void clear();

 private:
  struct Entry {
    MemberRecord record;
    std::uint64_t last_seq = 0;  ///< newest op sequence applied to this guid
    std::uint64_t claim_seq = 0; ///< attachment epoch of the record
  };
  [[nodiscard]] static std::uint64_t entry_hash(const Entry& entry) {
    return entry_hash(entry.record, entry.last_seq, entry.claim_seq);
  }
  [[nodiscard]] static TableEntry to_entry(const Entry& entry, GroupId gid) {
    return TableEntry{entry.record, entry.last_seq, entry.claim_seq, gid};
  }
  /// `guid`'s entry, or null.
  [[nodiscard]] const Entry* find_entry(Guid guid) const;
  /// `guid`'s entry and whether it is new (then appended).
  std::pair<Entry&, bool> emplace(Guid guid);
  /// Appends a new entry for `guid` (seq and claim 0, record default but
  /// for its guid) at the free index slot `slot`, or where its probe ends
  /// once the index has grown, and files it under its bucket once
  /// indexed. Kept out of emplace so that a lookup that finds its guid,
  /// the import hot path, stays small enough to inline.
  Entry& append(Guid guid, std::size_t slot);
  /// The index slot that holds `guid`, else the free slot its probe from
  /// the home slot guid % index size ends on. The index is non-empty.
  [[nodiscard]] std::size_t probe(Guid guid) const;
  /// Moves the index to the next size of the ladder and places every
  /// entry again.
  void grow();
  /// The lattice merge behind apply, import_entries and import_and_diff;
  /// with `newer` set, also appends each local entry left out-ranking its
  /// incoming copy.
  bool import(std::span<const TableEntry> entries,
              std::vector<TableEntry>* newer);
  /// Xors `entry`'s hash into (or out of) the digest and, once indexed,
  /// its bucket's digest.
  void flip(const Entry& entry);

  std::vector<Entry> entries_;  ///< every record, in insertion order
  /// Open-addressing index over entries_: 0 marks a free slot, any other
  /// value is an entry's position plus one. Empty until the first insert.
  std::vector<std::uint32_t> index_;
  std::uint64_t digest_ = 0;  ///< xor-accumulated entry hashes
  struct Bucket {
    std::uint64_t hash = 0;  ///< xor of the bucket's entry hashes
    /// The bucket's records as entries_ positions, ascending.
    std::vector<std::uint32_t> positions;
  };
  /// kBucketCount buckets from index_buckets() on, else empty: a table that
  /// never takes part in a bucket-level exchange (every small group, and
  /// every group that is never probed) carries no bucket state.
  std::vector<Bucket> buckets_;
  /// entries_ positions in guid order, covering the first order_.size()
  /// records: empty until index_order(), which extends it to all of them.
  std::vector<std::uint32_t> order_;
};

}  // namespace rgb::core
