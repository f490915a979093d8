#include "rgb/member_table.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

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

bool by_record_guid(const MemberRecord& a, const MemberRecord& b) {
  return a.guid < b.guid;
}

/// The index cell of a free slot.
constexpr std::uint32_t kFree = 0;

/// Index sizes: the least prime above each power of two from 2^3 to 2^33.
/// A prime keeps guid % size from folding a stride onto a few slots; the
/// last size holds the record cap at load 1/2.
constexpr std::array<std::uint64_t, 31> kIndexSizes = {
    11,         17,         37,         67,         131,
    257,        521,        1031,       2053,       4099,
    8209,       16411,      32771,      65537,      131101,
    262147,     524309,     1048583,    2097169,    4194319,
    8388617,    16777259,   33554467,   67108879,   134217757,
    268435459,  536870923,  1073741827, 2147483659, 4294967311,
    8589934609};

/// Records one table can hold: a position plus one fits in an index cell.
constexpr std::size_t kMaxRecords = std::numeric_limits<std::uint32_t>::max();
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

std::size_t MemberTable::probe(Guid guid) const {
  const std::size_t size = index_.size();
  std::size_t slot = static_cast<std::size_t>(guid.value() % size);
  while (index_[slot] != kFree &&
         entries_[index_[slot] - 1].record.guid != guid) {
    if (++slot == size) slot = 0;
  }
  return slot;
}

const MemberTable::Entry* MemberTable::find_entry(Guid guid) const {
  if (index_.empty()) return nullptr;
  const std::uint32_t cell = index_[probe(guid)];
  return cell == kFree ? nullptr : &entries_[cell - 1];
}

void MemberTable::grow() {
  index_.assign(*std::upper_bound(kIndexSizes.begin(), kIndexSizes.end(),
                                  index_.size()),
                kFree);
  for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
    index_[probe(entries_[pos].record.guid)] =
        static_cast<std::uint32_t>(pos + 1);
  }
}

std::pair<MemberTable::Entry&, bool> MemberTable::emplace(Guid guid) {
  if (index_.empty()) grow();
  const std::size_t slot = probe(guid);
  if (index_[slot] != kFree) return {entries_[index_[slot] - 1], false};
  return {append(guid, slot), true};
}

MemberTable::Entry& MemberTable::append(Guid guid, std::size_t slot) {
  if (entries_.size() == kMaxRecords) {
    throw std::length_error("MemberTable holds at most 2^32 - 1 records");
  }
  if ((entries_.size() + 1) * 4 > index_.size() * 3) {
    grow();
    slot = probe(guid);
  }
  const auto pos = static_cast<std::uint32_t>(entries_.size());
  Entry& entry = entries_.emplace_back();
  entry.record.guid = guid;
  index_[slot] = pos + 1;
  if (!buckets_.empty()) buckets_[bucket_of(guid)].positions.push_back(pos);
  return entry;
}

void MemberTable::index_buckets() {
  if (!buckets_.empty()) return;
  std::array<std::size_t, kBucketCount> sizes{};
  for (const Entry& entry : entries_) ++sizes[bucket_of(entry.record.guid)];
  buckets_.resize(kBucketCount);
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    buckets_[b].positions.reserve(sizes[b]);
  }
  for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
    const Entry& entry = entries_[pos];
    Bucket& bucket = buckets_[bucket_of(entry.record.guid)];
    bucket.hash ^= entry_hash(entry);
    bucket.positions.push_back(static_cast<std::uint32_t>(pos));
  }
}

BucketHashes MemberTable::bucket_digests() const {
  BucketHashes out{};
  if (!buckets_.empty()) {
    for (std::size_t b = 0; b < kBucketCount; ++b) out[b] = buckets_[b].hash;
    return out;
  }
  for (const Entry& entry : entries_) {
    out[bucket_of(entry.record.guid)] ^= entry_hash(entry);
  }
  return out;
}

void MemberTable::flip(const Entry& entry) {
  const std::uint64_t h = entry_hash(entry);
  digest_ ^= h;
  if (!buckets_.empty()) buckets_[bucket_of(entry.record.guid)].hash ^= h;
}

bool MemberTable::apply(const MembershipOp& op) {
  if (!op.is_member_op()) return false;
  const TableEntry entry = entry_of(op);
  return import({&entry, 1}, nullptr);
}

std::optional<MemberRecord> MemberTable::find(Guid guid) const {
  const Entry* entry = find_entry(guid);
  if (entry == nullptr) return std::nullopt;
  return entry->record;
}

std::optional<TableEntry> MemberTable::lookup(Guid guid) const {
  const Entry* entry = find_entry(guid);
  if (entry == nullptr) return std::nullopt;
  return to_entry(*entry, GroupId{});
}

bool MemberTable::contains(Guid guid) const {
  const Entry* entry = find_entry(guid);
  return entry != nullptr &&
         entry->record.status == MemberStatus::kOperational;
}

std::uint64_t MemberTable::last_seq_of(Guid guid) const {
  const Entry* entry = find_entry(guid);
  return entry == nullptr ? 0 : entry->last_seq;
}

std::uint64_t MemberTable::claim_of(Guid guid) const {
  const Entry* entry = find_entry(guid);
  return entry == nullptr ? 0 : entry->claim_seq;
}

void MemberTable::index_order() {
  const auto kept = static_cast<std::ptrdiff_t>(order_.size());
  for (std::size_t pos = order_.size(); pos < entries_.size(); ++pos) {
    order_.push_back(static_cast<std::uint32_t>(pos));
  }
  const auto appended = order_.begin() + kept;
  if (appended == order_.end()) return;
  const auto by_guid_at = [this](std::uint32_t a, std::uint32_t b) {
    return entries_[a].record.guid < entries_[b].record.guid;
  };
  std::sort(appended, order_.end(), by_guid_at);
  if (kept != 0 && by_guid_at(*appended, *(appended - 1))) {
    std::inplace_merge(order_.begin(), appended, order_.end(), by_guid_at);
  }
}

std::vector<MemberRecord> MemberTable::snapshot() const {
  std::vector<MemberRecord> out;
  out.reserve(entries_.size());
  const auto keep = [&out](const Entry& entry) {
    if (entry.record.status == MemberStatus::kOperational) {
      out.push_back(entry.record);
    }
  };
  if (order_.size() == entries_.size()) {
    for (const std::uint32_t pos : order_) keep(entries_[pos]);
    return out;
  }
  for (const Entry& entry : entries_) keep(entry);
  std::sort(out.begin(), out.end(), by_record_guid);
  return out;
}

std::vector<MemberRecord> MemberTable::members_at(NodeId ap) const {
  std::vector<MemberRecord> out;
  for (const Entry& entry : entries_) {
    if (entry.record.status == MemberStatus::kOperational &&
        entry.record.access_proxy == ap) {
      out.push_back(entry.record);
    }
  }
  std::sort(out.begin(), out.end(), by_record_guid);
  return out;
}

std::vector<TableEntry> MemberTable::export_entries() const {
  std::vector<TableEntry> out;
  out.reserve(entries_.size());
  append_entries(out, GroupId{});
  return out;
}

void MemberTable::append_entries(std::vector<TableEntry>& out,
                                 GroupId gid) const {
  const std::size_t first = out.size();
  for (const Entry& entry : entries_) out.push_back(to_entry(entry, gid));
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            by_guid);
}

void MemberTable::append_entries(std::vector<TableEntry>& out, GroupId gid,
                                 const BucketMask& buckets) const {
  if (buckets.all()) return append_entries(out, gid);
  const std::size_t first = out.size();
  if (buckets_.empty()) {
    for (const Entry& entry : entries_) {
      if (buckets.test(bucket_of(entry.record.guid))) {
        out.push_back(to_entry(entry, gid));
      }
    }
  } else {
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      if (!buckets.test(b)) continue;
      for (const std::uint32_t pos : buckets_[b].positions) {
        out.push_back(to_entry(entries_[pos], gid));
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
    auto [local, inserted] = emplace(incoming.record.guid);
    if (!inserted) {
      // Idempotent lattice merge: an entry that does not out-rank the held
      // one is a duplicate, a stale retransmission, or an assertion derived
      // from a superseded attachment epoch.
      const TableEntry held = to_entry(local, GroupId{});
      if (!record_precedes(held, incoming)) {
        if (newer != nullptr && record_precedes(incoming, held)) {
          newer->push_back(held);
        }
        continue;
      }
      flip(local);
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
  if (std::size_t absent = entries_.size() - run.size(); absent != 0) {
    const std::size_t probed = newer.size();
    const auto in_run = [&](Guid guid) {
      const auto pos = std::lower_bound(
          run.begin(), run.end(), guid,
          [](const TableEntry& e, Guid g) { return e.record.guid < g; });
      return pos != run.end() && pos->record.guid == guid;
    };
    if (whole) {
      for (const Entry& entry : entries_) {
        if (in_run(entry.record.guid)) continue;
        newer.push_back(to_entry(entry, GroupId{}));
        if (--absent == 0) break;
      }
    } else {
      for (std::size_t b = 0; absent != 0 && b < kBucketCount; ++b) {
        if (!scope.test(b)) continue;
        for (const std::uint32_t pos : buckets_[b].positions) {
          const Entry& entry = entries_[pos];
          if (in_run(entry.record.guid)) continue;
          newer.push_back(to_entry(entry, GroupId{}));
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
  entries_.clear();
  std::fill(index_.begin(), index_.end(), kFree);
  digest_ = 0;
  std::vector<Bucket>().swap(buckets_);
  std::vector<std::uint32_t>().swap(order_);
}

}  // namespace rgb::core
