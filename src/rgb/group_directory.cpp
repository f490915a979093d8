#include "rgb/group_directory.hpp"

#include <algorithm>

namespace rgb::core {

namespace {
/// SplitMix64 finalizer (same construction as MemberTable's entry hash):
/// folds a group's id into its table digest so two groups with identical
/// tables still contribute distinct terms to the combined digest.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// One group's term in the combined digest, given the group's mixed id;
/// an empty table contributes none.
std::uint64_t term(std::uint64_t mixed_gid, const ViewDigest& d) {
  return d.count == 0 ? 0 : mix(mixed_gid ^ d.hash);
}

bool by_gid(const TableEntry& a, const TableEntry& b) { return a.gid < b.gid; }

bool by_gid_guid(const TableEntry& a, const TableEntry& b) {
  return a.gid != b.gid ? a.gid < b.gid : a.record.guid < b.record.guid;
}

/// Calls `fn(gid, run)` for each maximal run of equal gids, in order.
template <class Fn>
void for_each_run(std::span<const TableEntry> entries, const Fn& fn) {
  for (auto begin = entries.begin(); begin != entries.end();) {
    const GroupId gid = begin->gid;
    const auto end =
        std::find_if(begin, entries.end(),
                     [&](const TableEntry& e) { return e.gid != gid; });
    fn(gid, std::span<const TableEntry>{begin, end});
    begin = end;
  }
}

/// `entries` itself when it is gid-major and guid-ascending without
/// repeats; otherwise `storage` holding that shape, with each (gid, guid)
/// kept as its highest-ranked copy (record_precedes: the copy a lattice
/// import of every copy would leave).
std::span<const TableEntry> canonical(std::span<const TableEntry> entries,
                                      std::vector<TableEntry>& storage) {
  const auto out_of_order = [](const TableEntry& a, const TableEntry& b) {
    return !by_gid_guid(a, b);
  };
  if (std::adjacent_find(entries.begin(), entries.end(), out_of_order) ==
      entries.end()) {
    return entries;
  }
  storage.assign(entries.begin(), entries.end());
  std::stable_sort(storage.begin(), storage.end(), by_gid_guid);
  auto out = storage.begin();
  for (auto it = storage.begin(); it != storage.end();) {
    auto newest = it;
    auto next = it + 1;
    for (; next != storage.end() && !by_gid_guid(*it, *next); ++next) {
      if (record_precedes(*newest, *next)) newest = next;
    }
    *out++ = *newest;
    it = next;
  }
  storage.erase(out, storage.end());
  return storage;
}

/// A sync scope as (group, buckets) pairs, gid-ascending, one per group.
using Scope = std::vector<std::pair<GroupId, BucketMask>>;

/// Every group of `gids` whole and every group of `buckets` by its
/// buckets; a group named twice is scoped to the union, and bucket indices
/// of kBucketCount or more are dropped.
Scope scope_of(std::span<const GroupId> gids,
               std::span<const BucketScope> buckets) {
  Scope out;
  out.reserve(gids.size() + buckets.size());
  for (const GroupId gid : gids) out.emplace_back(gid, ~BucketMask{});
  for (const BucketScope& scope : buckets) {
    BucketMask mask;
    for (const std::uint32_t b : scope.buckets) {
      if (b < kBucketCount) mask.set(b);
    }
    out.emplace_back(scope.gid, mask);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t kept = 0;
  for (const auto& [gid, mask] : out) {
    if (kept != 0 && out[kept - 1].first == gid) {
      out[kept - 1].second |= mask;
    } else {
      out[kept++] = {gid, mask};
    }
  }
  out.resize(kept);
  return out;
}
/// Each group's `view` of its table (guid-sorted, one record per guid)
/// merged into one guid-sorted view with one record per guid, the lowest
/// gid's: a lone group's view as it is, else the views concatenated in
/// gid order, stable-sorted by guid, and the first copy of each guid kept.
template <class View>
std::vector<MemberRecord> merged_view(
    const std::map<GroupId, GroupDirectory::GroupState>& groups,
    const View& view) {
  if (groups.size() == 1) return view(groups.begin()->second.table);
  std::vector<MemberRecord> out;
  for (const auto& [gid, st] : groups) {
    const std::vector<MemberRecord> part = view(st.table);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const MemberRecord& a, const MemberRecord& b) {
                     return a.guid < b.guid;
                   });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const MemberRecord& a, const MemberRecord& b) {
                          return a.guid == b.guid;
                        }),
            out.end());
  return out;
}

}  // namespace

GroupDirectory::GroupState& GroupDirectory::state(GroupId gid) {
  const auto [it, inserted] = groups_.try_emplace(gid);
  if (inserted) {
    it->second.mq = MessageQueue{aggregate_};
  }
  return it->second;
}

template <class Edit>
bool GroupDirectory::edit_table(GroupId gid, const Edit& edit) {
  MemberTable& tab = state(gid).table;
  const ViewDigest before = tab.digest();
  if (!edit(tab)) return false;
  const ViewDigest after = tab.digest();
  const std::uint64_t mixed_gid = mix(gid.value());
  digest_.hash ^= term(mixed_gid, before) ^ term(mixed_gid, after);
  digest_.count += after.count - before.count;  // modular: shrinking is fine
  ++changes_;
  return true;
}

void GroupDirectory::insert(MembershipOp op, Contributor contributor) {
  const bool grouped = op.is_member_op() && op.gid.valid();
  const GroupId gid = grouped ? op.gid : GroupId{};
  MessageQueue& mq = grouped ? state(gid).mq : ne_queue_;
  const std::size_t size_before = mq.size();
  const std::uint64_t collapsed_before = mq.ops_collapsed();
  mq.insert(std::move(op), contributor);
  queued_ = queued_ - size_before + mq.size();
  ++ops_inserted_;
  ops_collapsed_ += mq.ops_collapsed() - collapsed_before;
  if (!grouped) return;  // the NE queue is checked directly, not listed
  // An insert can fill a queue; only a drain empties one.
  if (size_before == 0) {
    queued_groups_.insert(std::lower_bound(queued_groups_.begin(),
                                           queued_groups_.end(), gid),
                          gid);
  }
}

void GroupDirectory::insert_batch(std::vector<MembershipOp> ops) {
  for (MembershipOp& op : ops) insert(std::move(op), Contributor{});
}

void GroupDirectory::take_batch(MessageQueue& mq, MessageQueue::Batch& batch) {
  MessageQueue::Batch part = mq.drain();
  queued_ -= part.ops.size();
  for (MembershipOp& op : part.ops) batch.ops.push_back(std::move(op));
  for (Contributor& c : part.contributors) {
    if (std::find(batch.contributors.begin(), batch.contributors.end(), c) ==
        batch.contributors.end()) {
      batch.contributors.push_back(c);
    }
  }
}

MessageQueue::Batch GroupDirectory::drain() {
  // NE ops first (hierarchy changes gate everything else), then groups in
  // gid order. Non-aggregating mode keeps the one-op-per-round contract of
  // the single queue: drain stops after the first op it obtains.
  MessageQueue::Batch batch;
  if (!ne_queue_.empty()) take_batch(ne_queue_, batch);
  std::size_t emptied = 0;  // leading queued groups this drain emptied
  for (const GroupId gid : queued_groups_) {
    if (!aggregate_ && !batch.ops.empty()) break;
    MessageQueue& mq = groups_.find(gid)->second.mq;
    take_batch(mq, batch);
    if (!mq.empty()) break;  // non-aggregating: one op taken, more remain
    ++emptied;
  }
  queued_groups_.erase(queued_groups_.begin(),
                       queued_groups_.begin() +
                           static_cast<std::ptrdiff_t>(emptied));
  return batch;
}

const MemberTable* GroupDirectory::table_if(GroupId gid) const {
  const auto it = groups_.find(gid);
  return it == groups_.end() ? nullptr : &it->second.table;
}

bool GroupDirectory::apply(const MembershipOp& op) {
  if (!op.is_member_op() || !op.gid.valid()) return false;
  return edit_table(op.gid, [&](MemberTable& tab) { return tab.apply(op); });
}

std::vector<TableEntry> GroupDirectory::export_all() const {
  return export_groups({});
}

std::vector<TableEntry> GroupDirectory::export_groups(
    const std::vector<GroupId>& gids) const {
  std::vector<TableEntry> out;
  if (gids.empty()) {
    out.reserve(digest_.count);
    for (const auto& [gid, st] : groups_) st.table.append_entries(out, gid);
    return out;
  }
  std::size_t total = 0;
  for (const GroupId gid : gids) {
    if (const MemberTable* tab = table_if(gid)) total += tab->size();
  }
  out.reserve(total);
  for (const GroupId gid : gids) {
    if (const MemberTable* tab = table_if(gid)) tab->append_entries(out, gid);
  }
  return out;
}

bool GroupDirectory::import_all(std::span<const TableEntry> entries) {
  // Payloads are gid-major, so each group's entries are one run.
  bool changed = false;
  for_each_run(entries, [&](GroupId gid, std::span<const TableEntry> run) {
    if (!gid.valid()) return;  // malformed: a group-less entry has no home
    changed |= edit_table(
        gid, [&](MemberTable& tab) { return tab.import_entries(run); });
  });
  return changed;
}

std::vector<TableEntry> GroupDirectory::export_buckets(
    std::span<const BucketScope> scope) const {
  std::vector<TableEntry> out;
  for (const auto& [gid, buckets] : scope_of({}, scope)) {
    if (const MemberTable* tab = table_if(gid)) {
      tab->append_entries(out, gid, buckets);
    }
  }
  return out;
}

bool GroupDirectory::import_and_diff(std::span<const TableEntry> entries,
                                     std::span<const GroupId> gids,
                                     std::vector<TableEntry>& newer,
                                     std::span<const BucketScope> buckets) {
  std::vector<TableEntry> sorted_entries;
  entries = canonical(entries, sorted_entries);
  const bool universal = gids.empty() && buckets.empty();
  const Scope scope = scope_of(gids, buckets);
  const BucketMask whole = ~BucketMask{};
  // The buckets `gid` is diffed over; null when it is out of scope.
  const auto buckets_of = [&](GroupId gid) -> const BucketMask* {
    if (universal) return &whole;
    const auto it = std::lower_bound(
        scope.begin(), scope.end(), gid,
        [](const auto& s, GroupId g) { return s.first < g; });
    return it != scope.end() && it->first == gid ? &it->second : nullptr;
  };
  const std::size_t first = newer.size();
  bool changed = false;
  for_each_run(entries, [&](GroupId gid, std::span<const TableEntry> run) {
    if (!gid.valid()) return;
    const BucketMask* in_scope = buckets_of(gid);
    if (in_scope == nullptr) {
      changed |= edit_table(
          gid, [&](MemberTable& tab) { return tab.import_entries(run); });
      return;
    }
    const std::size_t from = newer.size();
    changed |= edit_table(gid, [&](MemberTable& tab) {
      return tab.import_and_diff(run, newer, *in_scope);
    });
    for (auto it = newer.begin() + static_cast<std::ptrdiff_t>(from);
         it != newer.end(); ++it) {
      it->gid = gid;
    }
  });
  // In-scope groups the payload does not mention: all of their scoped
  // buckets are news to the sender. Appended gid-ascending, then merged
  // into place.
  const std::size_t mid = newer.size();
  const auto append_unmentioned = [&](GroupId gid, const MemberTable& tab,
                                      const BucketMask& in_scope) {
    const auto pos = std::lower_bound(
        entries.begin(), entries.end(), gid,
        [](const TableEntry& e, GroupId g) { return e.gid < g; });
    if (pos == entries.end() || pos->gid != gid) {
      tab.append_entries(newer, gid, in_scope);
    }
  };
  if (universal) {
    for (const auto& [gid, st] : groups_) {
      append_unmentioned(gid, st.table, whole);
    }
  } else {
    for (const auto& [gid, in_scope] : scope) {
      if (const MemberTable* tab = table_if(gid)) {
        append_unmentioned(gid, *tab, in_scope);
      }
    }
  }
  std::inplace_merge(newer.begin() + static_cast<std::ptrdiff_t>(first),
                     newer.begin() + static_cast<std::ptrdiff_t>(mid),
                     newer.end(), by_gid);
  return changed;
}

std::vector<GroupDigest> GroupDirectory::packed_digests() const {
  std::vector<GroupDigest> out;
  out.reserve(groups_.size());
  for (const auto& [gid, st] : groups_) {
    if (st.table.empty()) continue;
    const ViewDigest d = st.table.digest();
    out.push_back(GroupDigest{gid, d.hash, d.count});
  }
  return out;
}

std::vector<GroupId> GroupDirectory::differing_groups(
    const std::vector<GroupDigest>& theirs) const {
  std::vector<GroupId> out;
  std::map<GroupId, const GroupDigest*> by_gid;
  for (const GroupDigest& d : theirs) by_gid[d.gid] = &d;
  // Local groups: differ when the sender's digest mismatches or the sender
  // did not mention a non-empty local group.
  for (const auto& [gid, st] : groups_) {
    const auto it = by_gid.find(gid);
    if (it == by_gid.end()) {
      if (!st.table.empty()) out.push_back(gid);
      continue;
    }
    const ViewDigest d = st.table.digest();
    if (d.hash != it->second->hash || d.count != it->second->count) {
      out.push_back(gid);
    }
    by_gid.erase(it);
  }
  // Sender-only groups this directory has never seen.
  for (const auto& [gid, d] : by_gid) out.push_back(gid);
  std::sort(out.begin(), out.end());
  return out;
}

BucketHashes GroupDirectory::bucket_digests(GroupId gid) {
  const auto it = groups_.find(gid);
  if (it == groups_.end()) return BucketHashes{};
  it->second.table.index_buckets();
  return it->second.table.bucket_digests();
}

std::uint64_t GroupDirectory::claim_of(GroupId gid, Guid guid) const {
  const MemberTable* tab = table_if(gid);
  return tab == nullptr ? 0 : tab->claim_of(guid);
}

std::optional<TableEntry> GroupDirectory::lookup(GroupId gid,
                                                 Guid guid) const {
  const MemberTable* tab = table_if(gid);
  if (tab == nullptr) return std::nullopt;
  auto entry = tab->lookup(guid);
  if (entry) entry->gid = gid;
  return entry;
}

bool GroupDirectory::contains(Guid guid) const {
  for (const auto& [gid, st] : groups_) {
    if (st.table.contains(guid)) return true;
  }
  return false;
}

std::vector<MemberRecord> GroupDirectory::group_snapshot(GroupId gid) {
  const auto it = groups_.find(gid);
  if (it == groups_.end()) return {};
  it->second.table.index_order();
  return it->second.table.snapshot();
}

std::vector<MemberRecord> GroupDirectory::merged_snapshot() const {
  return merged_view(groups_,
                     [](const MemberTable& tab) { return tab.snapshot(); });
}

std::vector<MemberRecord> GroupDirectory::merged_members_at(NodeId ap) const {
  return merged_view(groups_, [ap](const MemberTable& tab) {
    return tab.members_at(ap);
  });
}

std::vector<std::pair<GroupId, std::vector<MemberRecord>>>
GroupDirectory::grouped_members_at(NodeId ap) const {
  std::vector<std::pair<GroupId, std::vector<MemberRecord>>> out;
  for (const auto& [gid, st] : groups_) {
    std::vector<MemberRecord> members = st.table.members_at(ap);
    if (!members.empty()) out.emplace_back(gid, std::move(members));
  }
  return out;
}

void GroupDirectory::clear() {
  if (digest_.count != 0) ++changes_;
  groups_.clear();
  ne_queue_ = MessageQueue{aggregate_};
  digest_ = {};
  queued_ = 0;
  ops_inserted_ = 0;
  ops_collapsed_ = 0;
  queued_groups_.clear();
}

}  // namespace rgb::core
