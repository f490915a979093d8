// The replicated member table as a join-semilattice, checked exhaustively
// over a small universe: guids in two buckets, (claim, seq) ranks that
// collide, three statuses and two access proxies. The laws:
//   * import is idempotent, commutative and associative, and two tables
//     import to their join (per guid, the version with the greater
//     (claim, seq, status, access proxy), computed here independently of
//     record_precedes);
//   * applying an op equals importing its entry_of;
//   * a kFull/kDiff exchange (the sender's export, import_and_diff at the
//     receiver, the diff imported back), whole-group or bucket-scoped,
//     leaves both tables at their join inside the scope and as they were
//     outside it;
//   * equal tables have equal digests and bucket digests, and the unequal
//     tables of the universe have unequal digests.
// Records that tie on (claim, seq) but differ in status or access proxy
// are where a rank that is not total breaks these laws.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "rgb/member_table.hpp"

namespace rgb::core {
namespace {

using proto::MemberStatus;

struct Version {
  std::uint64_t claim = 0;
  std::uint64_t seq = 0;
  MemberStatus status = MemberStatus::kOperational;
  std::uint64_t ap = 0;
};

/// A universe: its guids and the versions each may hold. A table state
/// gives each guid an index into its versions, or -1 when it is absent.
struct Space {
  const char* name;
  std::vector<Guid> guids;
  std::vector<std::vector<Version>> versions;  ///< per guid
};
using State = std::vector<int>;

/// Guids 1 and the next guid of the same bucket, then the first guid of
/// another bucket.
std::array<Guid, 3> universe_guids() {
  const std::size_t home = MemberTable::bucket_of(Guid{1});
  std::uint64_t same = 2;
  while (MemberTable::bucket_of(Guid{same}) != home) ++same;
  std::uint64_t other = 2;
  while (MemberTable::bucket_of(Guid{other}) == home) ++other;
  return {Guid{1}, Guid{same}, Guid{other}};
}

constexpr std::array<MemberStatus, 3> kStatuses = {
    MemberStatus::kOperational, MemberStatus::kDisconnected,
    MemberStatus::kFailed};
constexpr std::array<std::uint64_t, 2> kAps = {100, 200};
/// (claim, seq) ranks: two share a claim, two share a seq.
constexpr std::array<std::pair<std::uint64_t, std::uint64_t>, 3> kRanks = {
    {{1, 1}, {1, 2}, {2, 2}}};

/// One guid holding any of the 18 versions.
Space one_guid() {
  std::vector<Version> versions;
  for (const auto& [claim, seq] : kRanks) {
    for (const MemberStatus status : kStatuses) {
      for (const std::uint64_t ap : kAps) {
        versions.push_back(Version{claim, seq, status, ap});
      }
    }
  }
  return Space{"one guid", {universe_guids()[0]}, {versions}};
}

/// Three guids in two buckets, each holding one of two versions that tie
/// on (claim, seq): the first pair differs in status, the second in access
/// proxy, the third in both.
Space three_guids() {
  const auto guids = universe_guids();
  return Space{"three guids",
               {guids.begin(), guids.end()},
               {{Version{1, 1, MemberStatus::kDisconnected, 100},
                 Version{1, 1, MemberStatus::kFailed, 100}},
                {Version{1, 1, MemberStatus::kFailed, 100},
                 Version{1, 1, MemberStatus::kFailed, 200}},
                {Version{1, 1, MemberStatus::kOperational, 200},
                 Version{1, 1, MemberStatus::kDisconnected, 100}}}};
}

std::vector<State> states_of(const Space& space) {
  std::vector<State> out{State(space.guids.size(), -1)};
  for (std::size_t g = 0; g < space.guids.size(); ++g) {
    const std::size_t before = out.size();
    for (std::size_t i = 0; i < before; ++i) {
      for (std::size_t v = 0; v < space.versions[g].size(); ++v) {
        State next = out[i];
        next[g] = static_cast<int>(v);
        out.push_back(next);
      }
    }
  }
  return out;
}

const Version& version_at(const Space& space, std::size_t g, int v) {
  return space.versions[g][static_cast<std::size_t>(v)];
}

MemberTable table_of(const Space& space, const State& state) {
  std::vector<TableEntry> entries;
  for (std::size_t g = 0; g < state.size(); ++g) {
    if (state[g] < 0) continue;
    const Version& v = version_at(space, g, state[g]);
    entries.push_back(TableEntry{
        MemberRecord{space.guids[g], NodeId{v.ap}, v.status}, v.seq,
        v.claim, GroupId{}});
  }
  MemberTable table;
  table.import_entries(entries);
  return table;
}

/// The join of two states, per guid the version with the greater
/// (claim, seq, status, access proxy); an absent guid is the bottom.
State join(const Space& space, const State& a, const State& b) {
  const auto key = [&](std::size_t g, int v) {
    const Version& version = version_at(space, g, v);
    return std::make_tuple(version.claim, version.seq,
                           static_cast<int>(version.status), version.ap);
  };
  State out = a;
  for (std::size_t g = 0; g < a.size(); ++g) {
    if (b[g] >= 0 && (a[g] < 0 || key(g, b[g]) > key(g, a[g]))) {
      out[g] = b[g];
    }
  }
  return out;
}

std::string describe(const Space& space, const State& state) {
  std::ostringstream out;
  out << "{";
  for (std::size_t g = 0; g < state.size(); ++g) {
    out << " guid " << space.guids[g] << ": ";
    if (state[g] < 0) {
      out << "-";
      continue;
    }
    const Version& v = version_at(space, g, state[g]);
    out << "(" << v.claim << "," << v.seq << ") status "
        << static_cast<int>(v.status) << " ap " << v.ap;
  }
  out << " }";
  return out.str();
}

/// The same records, digest and bucket digests.
bool same(const MemberTable& a, const MemberTable& b) {
  return a.export_entries() == b.export_entries() &&
         a.digest() == b.digest() && a.bucket_digests() == b.bucket_digests();
}

/// `table` holds exactly `state`: it is the same as a table built from it.
bool holds(const MemberTable& table, const Space& space, const State& state) {
  return same(table, table_of(space, state));
}

/// Counts failures per law and reports the first few.
class Failures {
 public:
  void add(const std::string& law, const std::string& detail) {
    if (++total_ <= 5) ADD_FAILURE() << law << ": " << detail;
    ++per_law_[law];
  }
  /// Fails the test with the count of each broken law, if any.
  void expect_none() const {
    std::ostringstream out;
    for (const auto& [law, count] : per_law_) {
      out << law << " " << count << "; ";
    }
    EXPECT_EQ(total_, 0u) << out.str();
  }

 private:
  std::size_t total_ = 0;
  std::map<std::string, std::size_t> per_law_;
};

MemberTable merged(const MemberTable& into, const MemberTable& from) {
  MemberTable out = into;
  out.import_entries(from.export_entries());
  return out;
}

void check_import_laws(const Space& space) {
  SCOPED_TRACE(space.name);
  const std::vector<State> states = states_of(space);
  const std::size_t n = states.size();
  std::vector<MemberTable> tables;
  for (const State& s : states) tables.push_back(table_of(space, s));
  const auto name = [&](std::size_t x) { return describe(space, states[x]); };
  Failures failures;
  // pair[x][y]: table x after importing table y.
  std::vector<std::vector<MemberTable>> pair(n);
  for (std::size_t x = 0; x < n; ++x) {
    MemberTable again = tables[x];
    if (again.import_entries(tables[x].export_entries()) ||
        !same(again, tables[x])) {
      failures.add("not idempotent", name(x));
    }
    for (std::size_t y = 0; y < n; ++y) {
      pair[x].push_back(merged(tables[x], tables[y]));
      if (!holds(pair[x][y], space, join(space, states[x], states[y]))) {
        failures.add("import is not the join", name(x) + " <- " + name(y));
      }
      if ((tables[x].digest() == tables[y].digest()) != (x == y)) {
        failures.add(x == y ? "equal digests differ" : "digests collide",
                     name(x) + " vs " + name(y));
      }
    }
  }
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      if (!same(pair[x][y], pair[y][x])) {
        failures.add("not commutative", name(x) + ", " + name(y));
      }
      for (std::size_t z = 0; z < n; ++z) {
        if (!same(merged(pair[x][y], tables[z]),
                  merged(tables[x], pair[y][z]))) {
          failures.add("not associative",
                       name(x) + ", " + name(y) + ", " + name(z));
        }
      }
    }
  }
  failures.expect_none();
}

TEST(MemberTableLaws, ImportIsTheJoinOfOneGuidsVersions) {
  check_import_laws(one_guid());  // 19 tables, 6,859 triples
}

TEST(MemberTableLaws, ImportIsTheJoinOfTiedVersionsAcrossBuckets) {
  check_import_laws(three_guids());  // 27 tables, 19,683 triples
}

TEST(MemberTableLaws, ApplyingAnOpImportsItsEntry) {
  // Every member op kind at every rank and access proxy, applied to every
  // one-guid table: the same table and answer as importing entry_of(op),
  // whose status is the one the op's kind sets.
  const Space space = one_guid();
  const std::array<std::pair<OpKind, MemberStatus>, 4> kinds = {
      {{OpKind::kMemberJoin, MemberStatus::kOperational},
       {OpKind::kMemberHandoff, MemberStatus::kOperational},
       {OpKind::kMemberLeave, MemberStatus::kDisconnected},
       {OpKind::kMemberFail, MemberStatus::kFailed}}};
  Failures failures;
  std::size_t cases = 0;
  for (const State& state : states_of(space)) {
    for (const auto& [kind, status] : kinds) {
      for (const auto& [claim, seq] : kRanks) {
        for (const std::uint64_t ap : kAps) {
          MembershipOp op;
          op.kind = kind;
          op.seq = seq;
          op.uid = seq;
          op.claim_seq = claim;
          // A status the kind overrides.
          op.member =
              MemberRecord{space.guids[0], NodeId{ap}, MemberStatus::kFailed};
          const TableEntry entry = entry_of(op);
          const MemberRecord want{space.guids[0], NodeId{ap}, status};
          MemberTable applied = table_of(space, state);
          MemberTable imported = applied;
          const bool apply_changed = applied.apply(op);
          const bool import_changed = imported.import_entries({&entry, 1});
          ++cases;
          if (entry.record != want || entry.last_seq != seq ||
              entry.claim_seq != claim ||
              apply_changed != import_changed ||
              applied.export_entries() != imported.export_entries() ||
              applied.digest() != imported.digest()) {
            failures.add("apply is not the import of entry_of",
                         "op kind " +
                             std::to_string(static_cast<int>(kind)) + " (" +
                             std::to_string(claim) + "," +
                             std::to_string(seq) + ") ap " +
                             std::to_string(ap) + " on " +
                             describe(space, state));
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 19u * 4 * 3 * 2);
  failures.expect_none();
}

/// A sender's kFull over `scope`, the receiver's import_and_diff and kDiff,
/// and the sender's import of it, for every pair of tables of `space`.
void check_exchange(const Space& space) {
  SCOPED_TRACE(space.name);
  const std::vector<State> states = states_of(space);
  BucketMask first;
  first.set(MemberTable::bucket_of(space.guids.front()));
  BucketMask last;
  last.set(MemberTable::bucket_of(space.guids.back()));
  const std::array<BucketMask, 3> scopes = {~BucketMask{}, first, last};
  Failures failures;
  for (const State& x : states) {
    for (const State& y : states) {
      const State both = join(space, x, y);
      for (const BucketMask& scope : scopes) {
        MemberTable sender = table_of(space, x);
        MemberTable receiver = table_of(space, y);
        std::vector<TableEntry> full;
        sender.append_entries(full, GroupId{}, scope);
        std::vector<TableEntry> diff;
        receiver.import_and_diff(full, diff, scope);
        sender.import_entries(diff);
        State want_sender = x;
        State want_receiver = y;
        for (std::size_t g = 0; g < both.size(); ++g) {
          if (scope.test(MemberTable::bucket_of(space.guids[g]))) {
            want_sender[g] = both[g];
            want_receiver[g] = both[g];
          }
        }
        if (!holds(sender, space, want_sender) ||
            !holds(receiver, space, want_receiver)) {
          failures.add(scope.all() ? "whole-group exchange misses the join"
                                   : "scoped exchange misses the join",
                       "sender " + describe(space, x) + ", receiver " +
                           describe(space, y));
        }
      }
    }
  }
  failures.expect_none();
}

TEST(MemberTableLaws, ExchangeLeavesBothTablesAtTheirJoin) {
  check_exchange(one_guid());
  check_exchange(three_guids());
}

}  // namespace
}  // namespace rgb::core
