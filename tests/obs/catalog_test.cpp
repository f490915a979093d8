// The metric catalog behind `rgb_exp metrics --catalog`: pinned byte for
// byte, and every row well formed.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "obs/catalog.hpp"

namespace rgb::obs {
namespace {

std::string catalog_text() {
  std::ostringstream os;
  write_catalog(os);
  return os.str();
}

/// Renaming, reordering, retyping or re-describing any row moves the
/// fingerprint. A deliberate catalog change re-pins the value this test
/// prints on failure.
TEST(MetricCatalog, GoldenFingerprint) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // 64-bit FNV-1a
  for (const char c : catalog_text()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  EXPECT_EQ(hash, 0x8ea0ab3a3bda50e9ULL)
      << "catalog fingerprint 0x" << std::hex << hash << ":\n"
      << catalog_text();
}

/// 59 rows, each "name  type  description" with a unique name, one of the
/// four types and a non-empty description.
TEST(MetricCatalog, EveryRowIsWellFormed) {
  std::istringstream lines{catalog_text()};
  std::set<std::string> names;
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line); ++rows) {
    std::istringstream fields{line};
    std::string name, type, description;
    fields >> name >> type;
    std::getline(fields >> std::ws, description);
    EXPECT_TRUE(names.insert(name).second) << "duplicate row: " << line;
    EXPECT_TRUE(type == "counter" || type == "gauge" || type == "family" ||
                type == "histogram")
        << line;
    EXPECT_FALSE(description.empty()) << line;
  }
  EXPECT_EQ(rows, 59u);
}

}  // namespace
}  // namespace rgb::obs
