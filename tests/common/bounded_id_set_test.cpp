#include "common/bounded_id_set.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rgb::common
