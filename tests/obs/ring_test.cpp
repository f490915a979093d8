// The bounded ring behind both OpTracer record streams: overwrite-oldest
// with honest drop counts, read oldest to newest whether or not it
// wrapped.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/ring.hpp"

namespace rgb::obs {
namespace {

TEST(BoundedRing, OverwritesOldestAndCountsDrops) {
  BoundedRing<std::uint64_t> ring{4, 4};
  EXPECT_TRUE(ring.items().empty());
  for (std::uint64_t i = 0; i < 3; ++i) ring.push(i);
  EXPECT_EQ(ring.items(), (std::vector<std::uint64_t>{0, 1, 2}));
  for (std::uint64_t i = 3; i < 10; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  // The four newest survive, read oldest-to-newest although the oldest
  // sits mid-storage.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(ring[i], 6 + i);
  EXPECT_EQ(ring.items(), (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

}  // namespace
}  // namespace rgb::obs
