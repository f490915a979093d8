// Membership view held by a network entity: the paper's
// ListOfLocalMembers / ListOfRingMembers / ListOfNeighborMembers are all
// instances of this table with different scopes.
//
// Applying the same op twice is harmless (idempotent apply keyed by op
// sequence), which lets retransmitted notifications and merged partitions
// reconcile without special cases.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rgb/types.hpp"

namespace rgb::core {

/// One reconciliation unit of a member table: the record plus the newest
/// op sequence that produced it and the attachment epoch it belongs to.
/// Exchanged by the anti-entropy view sync (kViewSync), ring reforms,
/// merges and snapshots, and applied with the same (claim_seq, seq)
/// lattice rule as ops.
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

/// The conflict-resolution order of member records: attachment epochs
/// order first (a newer physical join/handoff beats anything derived from
/// an older epoch — detector-inferred failures, repair re-assertions —
/// regardless of raw seq), and within one epoch the op sequence orders
/// events. This is a join-semilattice: the same set of ops/entries applied
/// in any order converges to the same table, which is what anti-entropy's
/// digest comparison relies on.
[[nodiscard]] constexpr bool record_precedes(std::uint64_t claim_a,
                                             std::uint64_t seq_a,
                                             std::uint64_t claim_b,
                                             std::uint64_t seq_b) {
  return claim_a != claim_b ? claim_a < claim_b : seq_a < seq_b;
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

class MemberTable {
 public:
  /// Applies a member op. Returns true if the table changed. NE ops are
  /// ignored (tables track mobile hosts only).
  bool apply(const MembershipOp& op);

  /// Direct record insertion/removal (used by merge reconciliation).
  void upsert(const MemberRecord& rec);
  void remove(Guid guid);

  [[nodiscard]] std::optional<MemberRecord> find(Guid guid) const;
  /// Record, seq and claim epoch in one probe — the reaffirmation /
  /// reconcile hot path reads all three per attached member per tick, and
  /// three separate map lookups were measurable at scale.
  [[nodiscard]] std::optional<TableEntry> lookup(Guid guid) const;
  [[nodiscard]] bool contains(Guid guid) const;
  /// Newest op sequence applied to `guid` (0 when unknown). The pair
  /// (claim_of, last_seq_of) is monotone per guid in `record_precedes`
  /// order by construction of `apply`; the check-layer monotone oracle
  /// asserts that observed views never regress it.
  [[nodiscard]] std::uint64_t last_seq_of(Guid guid) const;
  /// Attachment epoch of `guid`'s record (0 when unknown / epoch-less).
  [[nodiscard]] std::uint64_t claim_of(Guid guid) const;
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  /// Operational members only, sorted by GUID for deterministic comparison.
  [[nodiscard]] std::vector<MemberRecord> snapshot() const;

  /// Members currently attached to `ap`, sorted by GUID.
  [[nodiscard]] std::vector<MemberRecord> members_at(NodeId ap) const;

  /// Union-merge with another view (used by query fan-in and ring merge):
  /// unknown members are inserted; conflicts keep `other`'s record when
  /// its op sequence is newer.
  void merge(const MemberTable& other);

  /// Every record (operational or not) with its sequence, sorted by guid —
  /// the anti-entropy sync payload.
  [[nodiscard]] std::vector<TableEntry> export_entries() const;
  /// Appends every record, stamped with `gid`, to `out`; the appended part
  /// is guid-ascending.
  void append_entries(std::vector<TableEntry>& out, GroupId gid) const;

  /// Lattice merge of exported entries: an entry lands only when it is
  /// newer than what this table reflects for the guid in
  /// `record_precedes` order. Returns true when anything changed.
  bool import_entries(std::span<const TableEntry> entries);

  /// import_entries for a strictly guid-ascending `run`, fused with the
  /// diff an anti-entropy receiver sends back: appends to `newer` every
  /// entry of this table that the import left strictly newer than its
  /// incoming copy or that the run does not mention (the appended part is
  /// guid-ascending, gid unstamped). The same hash probe imports and
  /// compares; records absent from the run are searched for only when the
  /// table holds more records than the run, and only until all are found.
  bool import_and_diff(std::span<const TableEntry> run,
                       std::vector<TableEntry>& newer);

  /// O(1) anti-entropy digest, maintained incrementally: every mutation
  /// xors the affected entry's hash out of / into the accumulator, so a
  /// steady-state sync tick costs a comparison instead of an
  /// export-sort-ship of the whole table.
  [[nodiscard]] ViewDigest digest() const {
    return ViewDigest{digest_, records_.size()};
  }

  /// The hash one entry contributes to the digest (exposed for tests that
  /// need to predict or collide digests).
  [[nodiscard]] static std::uint64_t entry_hash(const MemberRecord& record,
                                                std::uint64_t last_seq,
                                                std::uint64_t claim_seq);

  friend bool operator==(const MemberTable& a, const MemberTable& b);

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
  /// The lattice merge behind import_entries / import_and_diff; with
  /// `newer` set, also appends each local entry left strictly newer than
  /// its incoming copy.
  bool import(std::span<const TableEntry> entries,
              std::vector<TableEntry>* newer);

  std::unordered_map<Guid, Entry> records_;
  std::uint64_t digest_ = 0;  ///< xor-accumulated entry hashes
};

}  // namespace rgb::core
