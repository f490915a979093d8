// Layout of the ids an NE mints without coordination (op uids, token round
// ids, notify ids): the origin above bit 24, its counter masked below.
#include <gtest/gtest.h>

#include <cstdint>

#include "rgb/types.hpp"

namespace rgb::core {
namespace {

constexpr std::uint64_t kWrap = std::uint64_t{1} << 24;

TEST(OriginScopedId, OriginAboveTheCounter) {
  EXPECT_EQ(origin_scoped_id(NodeId{6}, 1), (6ULL << 24) | 1);
  EXPECT_EQ(origin_scoped_id(NodeId{6}, kWrap - 1), (7ULL << 24) - 1);
}

TEST(OriginScopedId, CounterWrapsWithinItsOrigin) {
  // NE 6's id number 2^24 + 5 wraps to its own id 5. Unmasked it would
  // set bit 24 and read as NE 7's id 5, which a dedup set of NE 7's round
  // ids would drop as a duplicate.
  EXPECT_EQ(origin_scoped_id(NodeId{6}, kWrap + 5),
            origin_scoped_id(NodeId{6}, 5));
  EXPECT_NE(origin_scoped_id(NodeId{6}, kWrap + 5),
            origin_scoped_id(NodeId{7}, 5));
  EXPECT_EQ(origin_scoped_id(NodeId{6}, kWrap) >> 24, 6u);
  EXPECT_EQ(origin_scoped_id(NodeId{7}, 3 * kWrap + 9) >> 24, 7u);
}

}  // namespace
}  // namespace rgb::core
