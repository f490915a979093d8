// bench.multigroup determinism and sublinearity: the deterministic
// (timed=false) artifact must be byte-identical from run to run,
// every cell must converge with zero per-group divergence, and the
// steady-state kViewSync bytes per link per tick must stay flat as the
// group count grows (the kSummary push-pull keeps the steady frame O(1) in
// G, which is the whole point of multi-group serving on one hierarchy).
// Each cell is a scale trial with `groups` set; `rgb_exp bench
// --multigroup`'s shape (ring 3, 200us join spacing, its seed) at 20
// members per group and short windows.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/bench.hpp"

namespace rgb::exp {
namespace {

ScaleConfig small_base() {
  ScaleConfig base;
  base.ring_size = 3;
  base.join_spacing = sim::usec(200);
  base.seed = 0x96B0DF5ULL;
  base.members = 20;  // per group
  base.warmup_ticks = 4;
  base.steady_ticks = 4;
  return base;
}

std::string multigroup_json() {
  std::ostringstream log, json;
  const auto cells =
      run_multigroup_sweep(small_base(), {1, 6}, log, /*timed=*/false);
  EXPECT_TRUE(all_multigroup_clean(cells));
  write_multigroup_json(small_base(), cells, json);
  return json.str();
}

TEST(MultigroupBench, ArtifactByteIdenticalOnASecondRun) {
  const std::string first = multigroup_json();
  EXPECT_NE(first.find("\"bench\": \"bench_multigroup\""),
            std::string::npos);
  EXPECT_EQ(multigroup_json(), first);
}

TEST(MultigroupBench, SteadyBytesPerLinkStayFlatInGroupCount) {
  std::ostringstream log;
  const auto cells =
      run_multigroup_sweep(small_base(), {1, 8}, log, /*timed=*/false);
  ASSERT_EQ(cells.size(), 2u);
  ASSERT_TRUE(all_multigroup_clean(cells));
  const ScaleStats& g1 = cells[0];
  const ScaleStats& g8 = cells[1];
  EXPECT_EQ(g8.members, 8 * g1.members);
  ASSERT_GT(g1.bytes_per_link_tick(), 0.0);
  // Acceptance shape: G groups on one hierarchy must beat G independent
  // single-group hierarchies by at least 4x on steady bytes per link; the
  // kSummary fast path actually keeps the per-tick frame near-constant.
  EXPECT_LT(g8.bytes_per_link_tick(), 0.25 * 8.0 * g1.bytes_per_link_tick());
  EXPECT_LT(g8.bytes_per_link_tick(), 2.0 * g1.bytes_per_link_tick());
}

// The tick series `rgb_exp bench --multigroup --series` writes: 16 points
// over the join surge, then one per warm-up and one per steady tick, with
// divergence sampled in the untimed warm-up alone.
TEST(MultigroupBench, SeriesCsvCoversEveryPhase) {
  const ScaleConfig base = small_base();
  std::ostringstream log, csv;
  const auto cells = run_multigroup_sweep(base, {4}, log, /*timed=*/false);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].series_dropped, 0u);
  write_series_csv(cells[0], csv);
  std::vector<std::string> rows;
  std::istringstream lines{csv.str()};
  for (std::string row; std::getline(lines, row);) rows.push_back(row);

  constexpr std::size_t kJoinRows = 16;
  const std::size_t warmup = static_cast<std::size_t>(base.warmup_ticks);
  const std::size_t steady = static_cast<std::size_t>(base.steady_ticks);
  ASSERT_EQ(rows.size(), 1 + kJoinRows + warmup + steady);
  EXPECT_EQ(rows[0],
            "at_us,events,msgs,bytes,ops,reconcile_rounds,view_changes,"
            "repairs,divergence");
  for (std::size_t r = 1; r < rows.size(); ++r) {
    // Divergence is the last column, empty where it was not sampled.
    const bool in_warmup = r > kJoinRows && r <= kJoinRows + warmup;
    EXPECT_EQ(rows[r].back() != ',', in_warmup) << "row " << r << ": "
                                                 << rows[r];
  }
}

TEST(MultigroupBench, TrialReportsPerGroupConvergence) {
  ScaleConfig config = small_base();
  config.groups = 5;
  config.members = 5 * 20;
  const ScaleStats stats = run_scale_trial(config, /*timed=*/false);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.group_divergence, 0u);
  EXPECT_EQ(stats.members, 100u);
  // Every NE in the 2-tier ring-3 hierarchy hosts all 5 groups.
  EXPECT_EQ(stats.groups_created, 5u * stats.ne_count);
  // Untimed runs zero the wall-clock fields (the determinism contract).
  EXPECT_EQ(stats.join_wall_ms, 0.0);
  EXPECT_EQ(stats.steady_wall_ms, 0.0);
  EXPECT_EQ(stats.peak_rss_kb, 0);
}

}  // namespace
}  // namespace rgb::exp
