#include "common/bounded_id_set.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"

namespace rgb::common {
namespace {

/// Fills a set of capacity `cap` with ids 1..cap+extra and checks that
/// exactly the `extra` oldest were forgotten, in FIFO order.
void expect_fifo_eviction(std::size_t cap, std::size_t extra) {
  BoundedIdSet set{cap};
  for (std::uint64_t id = 1; id <= cap; ++id) ASSERT_TRUE(set.insert(id));
  EXPECT_EQ(set.size(), cap);
  EXPECT_TRUE(set.contains(1));
  for (std::uint64_t id = cap + 1; id <= cap + extra; ++id) {
    ASSERT_TRUE(set.insert(id));
  }
  EXPECT_EQ(set.size(), cap);
  for (std::uint64_t id = 1; id <= extra; ++id) {
    EXPECT_FALSE(set.contains(id)) << "id " << id << " outlived the cap";
  }
  for (std::uint64_t id = extra + 1; id <= cap + extra; ++id) {
    EXPECT_TRUE(set.contains(id)) << "id " << id << " evicted early";
  }
}

TEST(BoundedIdSet, EvictsOldestAtTheDisseminationCap) {
  expect_fifo_eviction(8192, 3);
}

TEST(BoundedIdSet, EvictsOldestAtTheRoundCap) {
  expect_fifo_eviction(1024, 1024);
}

TEST(BoundedIdSet, DuplicateInsertIsRejectedAndKeepsOrder) {
  BoundedIdSet set{1024};
  for (std::uint64_t id = 1; id <= 1024; ++id) set.insert(id);
  // A duplicate neither grows the set nor refreshes the id's age.
  EXPECT_FALSE(set.insert(1));
  EXPECT_EQ(set.size(), 1024u);
  EXPECT_TRUE(set.insert(1025));
  EXPECT_FALSE(set.contains(1));
  EXPECT_TRUE(set.contains(2));
}

TEST(BoundedIdSet, EvictedIdReinsertsAsNew) {
  BoundedIdSet set{1024};
  for (std::uint64_t id = 1; id <= 1025; ++id) set.insert(id);
  ASSERT_FALSE(set.contains(1));
  // The forgotten id is new again and re-enters as the youngest, pushing
  // out the now-oldest id 2.
  EXPECT_TRUE(set.insert(1));
  EXPECT_TRUE(set.contains(1));
  EXPECT_FALSE(set.contains(2));
  EXPECT_EQ(set.size(), 1024u);
  EXPECT_FALSE(set.insert(1));
}

TEST(BoundedIdSet, ZeroCapHoldsNothing) {
  BoundedIdSet set{0};
  EXPECT_TRUE(set.insert(7));
  EXPECT_TRUE(set.insert(7));
  EXPECT_FALSE(set.contains(7));
  EXPECT_EQ(set.size(), 0u);
}

// --------------------------------------------------------------------------
// Differential: the block index against the layout it replaced
// --------------------------------------------------------------------------

/// The previous BoundedIdSet, kept as the reference model: a node-based
/// hash set for membership and a deque for age.
class ReferenceIdSet {
 public:
  explicit ReferenceIdSet(std::size_t cap) : cap_(cap) {}

  bool insert(std::uint64_t id) {
    if (!ids_.insert(id).second) return false;
    order_.push_back(id);
    if (order_.size() > cap_) {
      ids_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }
  [[nodiscard]] bool contains(std::uint64_t id) const {
    return ids_.count(id) != 0;
  }
  [[nodiscard]] std::size_t size() const { return order_.size(); }
  /// Held ids, oldest first.
  [[nodiscard]] const std::deque<std::uint64_t>& order() const {
    return order_;
  }

 private:
  std::size_t cap_;
  std::unordered_set<std::uint64_t> ids_;
  std::deque<std::uint64_t> order_;
};

/// Draws the next id of one stream; streams keep their own state.
using IdStream = std::function<std::uint64_t(RngStream&)>;

/// Op uids as NEs mint them (`origin << 24 | counter`): 30 origins, each
/// issuing batches of 1-13 consecutive uids.
IdStream origin_uids(std::size_t /*cap*/) {
  return [counters = std::vector<std::uint64_t>(30, 0), origin = 0ULL,
          left = 0ULL](RngStream& rng) mutable {
    if (left == 0) {
      origin = rng.next_below(counters.size());
      left = 1 + rng.next_below(13);
    }
    --left;
    return ((origin + 1) << 24) | ++counters[origin];
  };
}

/// Ids drawn from a range twice the cap: every block dense, many repeats.
IdStream dense_ids(std::size_t cap) {
  return [range = 2 * cap + 64](RngStream& rng) {
    return rng.next_below(range);
  };
}

/// Uniform 64-bit ids: one id per block, the index's worst case.
IdStream sparse_ids(std::size_t /*cap*/) {
  return [](RngStream& rng) { return rng.next_u64(); };
}

/// Every id falls in one of four far-apart blocks.
IdStream few_blocks(std::size_t /*cap*/) {
  return [](RngStream& rng) {
    constexpr std::uint64_t kKeys[] = {7, 7 + (1ULL << 20), 1ULL << 40,
                                       (1ULL << 58) - 1};
    return (kKeys[rng.next_below(4)] << 6) | rng.next_below(64);
  };
}

/// Ids 0-63 (block 0) and the 128 ids below 2^64 (the last two blocks).
IdStream edge_ids(std::size_t /*cap*/) {
  return [](RngStream& rng) {
    return rng.chance(0.5) ? rng.next_below(64)
                           : ~std::uint64_t{0} - rng.next_below(128);
  };
}

constexpr std::size_t kDifferentialCaps[] = {1,    63,   64,    65,
                                             1024, 8192, 65536};

/// Feeds the stream to a BoundedIdSet and the reference at every cap, for
/// twice the cap plus 2,000 steps. One step in 16 re-inserts a held id and
/// one in 16 the id the reference forgot last. After every step it
/// compares the insert's result, size() and contains() of the id, its
/// neighbours in and past its block, the forgotten id, the oldest held id,
/// a random held id and a random 64-bit id; at the end, every held id.
void expect_matches_reference(IdStream (*make_stream)(std::size_t),
                              std::uint64_t seed) {
  for (const std::size_t cap : kDifferentialCaps) {
    SCOPED_TRACE(::testing::Message() << "cap " << cap);
    RngStream rng{seed + cap};
    IdStream next_id = make_stream(cap);
    BoundedIdSet set{cap};
    ReferenceIdSet reference{cap};
    std::uint64_t forgotten = 0;
    for (std::size_t step = 0; step < 2 * cap + 2000; ++step) {
      const auto random_held = [&] {
        return reference.order()[rng.next_below(reference.size())];
      };
      const std::uint64_t pick = rng.next_below(16);
      std::uint64_t id = 0;
      if (pick == 0 && reference.size() > 0) {
        id = random_held();
      } else if (pick == 1) {
        id = forgotten;
      } else {
        id = next_id(rng);
      }
      const bool full = reference.size() == cap;
      const std::uint64_t oldest = full ? reference.order().front() : 0;
      const bool inserted = reference.insert(id);
      if (inserted && full) forgotten = oldest;
      ASSERT_EQ(set.insert(id), inserted) << "step " << step << " id " << id;
      ASSERT_EQ(set.size(), reference.size()) << "step " << step;
      const std::uint64_t probes[] = {id,
                                      id ^ 1,
                                      id + 64,
                                      forgotten,
                                      reference.order().front(),
                                      random_held(),
                                      rng.next_u64()};
      for (const std::uint64_t probe : probes) {
        ASSERT_EQ(set.contains(probe), reference.contains(probe))
            << "step " << step << " probe " << probe;
      }
    }
    for (const std::uint64_t held : reference.order()) {
      ASSERT_TRUE(set.contains(held)) << "held id " << held;
    }
  }
}

TEST(BoundedIdSetDifferential, OriginUids) {
  expect_matches_reference(origin_uids, 1);
}

TEST(BoundedIdSetDifferential, DenseIdsWithRepeats) {
  expect_matches_reference(dense_ids, 2);
}

TEST(BoundedIdSetDifferential, SparseIds) {
  expect_matches_reference(sparse_ids, 3);
}

TEST(BoundedIdSetDifferential, IdsSharingFourBlocks) {
  expect_matches_reference(few_blocks, 4);
}

TEST(BoundedIdSetDifferential, IdsAtBothEndsOfTheRange) {
  expect_matches_reference(edge_ids, 5);
}

}  // namespace
}  // namespace rgb::common
