#include "rgb/member_table.hpp"

#include <algorithm>
#include <cassert>

namespace rgb::core {

namespace {
/// SplitMix64 finalizer: cheap, well-mixed, and stable across platforms
/// (the digest is compared between NEs, so it must be a pure function of
/// the entry values).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

bool by_guid(const TableEntry& a, const TableEntry& b) {
  return a.record.guid < b.record.guid;
}
}  // namespace

std::uint64_t MemberTable::entry_hash(const MemberRecord& record,
                                      std::uint64_t last_seq,
                                      std::uint64_t claim_seq) {
  // Chained mixing over every field that reconciliation cares about: a
  // change to the seq, the claim epoch, the hosting AP or the status must
  // flip the digest.
  std::uint64_t h = mix(record.guid.value());
  h = mix(h ^ last_seq);
  h = mix(h ^ claim_seq);
  h = mix(h ^ (record.access_proxy.value() * 4 +
               static_cast<std::uint64_t>(record.status)));
  return h;
}

std::size_t MemberTable::bucket_of(Guid guid) {
  return static_cast<std::size_t>(mix(guid.value()) % kBucketCount);
}

void MemberTable::index_buckets() {
  if (!buckets_.empty()) return;
  std::array<std::size_t, kBucketCount> sizes{};
  for (const auto& [guid, entry] : records_) ++sizes[bucket_of(guid)];
  buckets_.resize(kBucketCount);
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    buckets_[b].guids.reserve(sizes[b]);
  }
  for (const auto& [guid, entry] : records_) {
    Bucket& bucket = buckets_[bucket_of(guid)];
    bucket.hash ^= entry_hash(entry);
    bucket.guids.push_back(guid);
  }
}

BucketHashes MemberTable::bucket_digests() const {
  BucketHashes out{};
  if (!buckets_.empty()) {
    for (std::size_t b = 0; b < kBucketCount; ++b) out[b] = buckets_[b].hash;
    return out;
  }
  for (const auto& [guid, entry] : records_) {
    out[bucket_of(guid)] ^= entry_hash(entry);
  }
  return out;
}

void MemberTable::flip(const Entry& entry) {
  const std::uint64_t h = entry_hash(entry);
  digest_ ^= h;
  if (!buckets_.empty()) buckets_[bucket_of(entry.record.guid)].hash ^= h;
}

void MemberTable::track(Guid guid) {
  if (!buckets_.empty()) buckets_[bucket_of(guid)].guids.push_back(guid);
}

bool MemberTable::apply(const MembershipOp& op) {
  if (!op.is_member_op()) return false;

  const auto [it, inserted] = records_.try_emplace(op.member.guid);
  Entry& entry = it->second;
  // Idempotent lattice apply: an op that does not advance the record in
  // (claim, seq) order is a duplicate, a stale retransmission, or an
  // assertion derived from a superseded attachment epoch.
  if (!inserted &&
      !record_precedes(entry.claim_seq, entry.last_seq, op.claim_seq,
                       op.seq)) {
    return false;
  }
  if (!inserted) flip(entry);
  entry.last_seq = op.seq;
  entry.claim_seq = op.claim_seq;
  entry.record = op.member;

  switch (op.kind) {
    case OpKind::kMemberJoin:
    case OpKind::kMemberHandoff:
      entry.record.status = MemberStatus::kOperational;
      break;
    case OpKind::kMemberLeave:
      entry.record.status = MemberStatus::kDisconnected;
      break;
    default:  // kMemberFail (is_member_op() admits no other kind)
      entry.record.status = MemberStatus::kFailed;
      break;
  }
  flip(entry);
  if (inserted) track(op.member.guid);
  return true;
}

void MemberTable::upsert(const MemberRecord& rec) {
  const auto [it, inserted] = records_.try_emplace(rec.guid);
  if (!inserted) flip(it->second);
  it->second.record = rec;
  flip(it->second);
  if (inserted) track(rec.guid);
}

void MemberTable::remove(Guid guid) {
  const auto it = records_.find(guid);
  if (it == records_.end()) return;
  flip(it->second);
  records_.erase(it);
  if (!buckets_.empty()) std::erase(buckets_[bucket_of(guid)].guids, guid);
}

std::optional<MemberRecord> MemberTable::find(Guid guid) const {
  const auto it = records_.find(guid);
  if (it == records_.end()) return std::nullopt;
  return it->second.record;
}

std::optional<TableEntry> MemberTable::lookup(Guid guid) const {
  const auto it = records_.find(guid);
  if (it == records_.end()) return std::nullopt;
  return to_entry(it->second, GroupId{});
}

bool MemberTable::contains(Guid guid) const {
  const auto it = records_.find(guid);
  return it != records_.end() &&
         it->second.record.status == MemberStatus::kOperational;
}

std::uint64_t MemberTable::last_seq_of(Guid guid) const {
  const auto it = records_.find(guid);
  return it == records_.end() ? 0 : it->second.last_seq;
}

std::uint64_t MemberTable::claim_of(Guid guid) const {
  const auto it = records_.find(guid);
  return it == records_.end() ? 0 : it->second.claim_seq;
}

std::vector<MemberRecord> MemberTable::snapshot() const {
  std::vector<MemberRecord> out;
  out.reserve(records_.size());
  for (const auto& [guid, entry] : records_) {
    if (entry.record.status == MemberStatus::kOperational) {
      out.push_back(entry.record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MemberRecord& a, const MemberRecord& b) {
              return a.guid < b.guid;
            });
  return out;
}

std::vector<MemberRecord> MemberTable::members_at(NodeId ap) const {
  std::vector<MemberRecord> out;
  for (const auto& [guid, entry] : records_) {
    if (entry.record.status == MemberStatus::kOperational &&
        entry.record.access_proxy == ap) {
      out.push_back(entry.record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MemberRecord& a, const MemberRecord& b) {
              return a.guid < b.guid;
            });
  return out;
}

void MemberTable::merge(const MemberTable& other) {
  for (const auto& [guid, their] : other.records_) {
    const auto [it, inserted] = records_.try_emplace(guid);
    if (!inserted) {
      if (!record_precedes(it->second.claim_seq, it->second.last_seq,
                           their.claim_seq, their.last_seq)) {
        continue;
      }
      flip(it->second);
    } else {
      track(guid);
    }
    it->second = their;
    flip(it->second);
  }
}

std::vector<TableEntry> MemberTable::export_entries() const {
  std::vector<TableEntry> out;
  out.reserve(records_.size());
  append_entries(out, GroupId{});
  return out;
}

void MemberTable::append_entries(std::vector<TableEntry>& out,
                                 GroupId gid) const {
  const std::size_t first = out.size();
  for (const auto& [guid, entry] : records_) {
    out.push_back(to_entry(entry, gid));
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            by_guid);
}

void MemberTable::append_entries(std::vector<TableEntry>& out, GroupId gid,
                                 const BucketMask& buckets) const {
  if (buckets.all()) return append_entries(out, gid);
  const std::size_t first = out.size();
  if (buckets_.empty()) {
    for (const auto& [guid, entry] : records_) {
      if (buckets.test(bucket_of(guid))) out.push_back(to_entry(entry, gid));
    }
  } else {
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      if (!buckets.test(b)) continue;
      for (const Guid guid : buckets_[b].guids) {
        out.push_back(to_entry(records_.find(guid)->second, gid));
      }
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            by_guid);
}

bool MemberTable::import_entries(std::span<const TableEntry> entries) {
  return import(entries, nullptr);
}

bool MemberTable::import(std::span<const TableEntry> entries,
                         std::vector<TableEntry>* newer) {
  bool changed = false;
  for (const TableEntry& incoming : entries) {
    const auto [it, inserted] = records_.try_emplace(incoming.record.guid);
    Entry& local = it->second;
    if (!inserted) {
      if (!record_precedes(local.claim_seq, local.last_seq,
                           incoming.claim_seq, incoming.last_seq)) {
        if (newer != nullptr &&
            record_precedes(incoming.claim_seq, incoming.last_seq,
                            local.claim_seq, local.last_seq)) {
          newer->push_back(to_entry(local, GroupId{}));
        }
        continue;
      }
      flip(local);
    } else {
      track(incoming.record.guid);
    }
    local = Entry{incoming.record, incoming.last_seq, incoming.claim_seq};
    flip(local);
    changed = true;
  }
  return changed;
}

bool MemberTable::import_and_diff(std::span<const TableEntry> run,
                                  std::vector<TableEntry>& newer,
                                  const BucketMask& scope) {
  assert(std::adjacent_find(run.begin(), run.end(),
                            [](const TableEntry& a, const TableEntry& b) {
                              return !by_guid(a, b);
                            }) == run.end());
  const bool whole = scope.all();
  if (!whole) index_buckets();
  const std::size_t first = newer.size();
  const bool changed = import(run, &newer);
  // The run's guids are all in the table now and distinct, so the table
  // holds exactly size() - run.size() records the run does not mention.
  if (std::size_t absent = records_.size() - run.size(); absent != 0) {
    const std::size_t probed = newer.size();
    const auto in_run = [&](Guid guid) {
      const auto pos = std::lower_bound(
          run.begin(), run.end(), guid,
          [](const TableEntry& e, Guid g) { return e.record.guid < g; });
      return pos != run.end() && pos->record.guid == guid;
    };
    if (whole) {
      for (const auto& [guid, entry] : records_) {
        if (in_run(guid)) continue;
        newer.push_back(to_entry(entry, GroupId{}));
        if (--absent == 0) break;
      }
    } else {
      for (std::size_t b = 0; absent != 0 && b < kBucketCount; ++b) {
        if (!scope.test(b)) continue;
        for (const Guid guid : buckets_[b].guids) {
          if (in_run(guid)) continue;
          newer.push_back(to_entry(records_.find(guid)->second, GroupId{}));
          if (--absent == 0) break;
        }
      }
    }
    const auto begin = newer.begin();
    std::sort(begin + static_cast<std::ptrdiff_t>(probed), newer.end(),
              by_guid);
    std::inplace_merge(begin + static_cast<std::ptrdiff_t>(first),
                       begin + static_cast<std::ptrdiff_t>(probed),
                       newer.end(), by_guid);
  }
  return changed;
}

bool operator==(const MemberTable& a, const MemberTable& b) {
  return a.snapshot() == b.snapshot();
}

void MemberTable::clear() {
  records_.clear();
  digest_ = 0;
  std::vector<Bucket>().swap(buckets_);
}

}  // namespace rgb::core
