#include "common/parse.hpp"

#include <gtest/gtest.h>

namespace rgb::common {
namespace {

TEST(ParseU64, AcceptsDecimalDigitsOverTheWholeRange) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  // Decimal always: a leading zero is not an octal prefix.
  EXPECT_EQ(parse_u64("010"), 10u);
}

TEST(ParseU64, RejectsEverythingButDigitsAndOverflow) {
  for (const char* text : {"", "-1", "-0", " 1", "+1", "1 ", "0x10", "1e3",
                           "18446744073709551616", "99999999999999999999"}) {
    EXPECT_EQ(parse_u64(text), std::nullopt) << '"' << text << '"';
  }
}

}  // namespace
}  // namespace rgb::common
