#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "exp/scenarios.hpp"

namespace rgb::exp {
namespace {

Scenario tiny_scenario(std::string id = "test.tiny") {
  Scenario s;
  s.id = std::move(id);
  s.title = "tiny";
  s.paper_ref = "none";
  s.metrics = {"x"};
  s.cells = {ParamSet{{"a", 1.0}}};
  s.trials_per_cell = 1;
  s.run = [](const TrialContext&) { return std::vector<double>{0.0}; };
  return s;
}

TEST(ParamSet, GetSetAndOverwrite) {
  ParamSet p{{"h", 3.0}, {"r", 5.0}};
  EXPECT_EQ(p.get("h"), 3.0);
  EXPECT_EQ(p.get_int("r"), 5);
  EXPECT_TRUE(p.has("h"));
  EXPECT_FALSE(p.has("f"));
  p.set("h", 4.0).set("f", 0.02);
  EXPECT_EQ(p.get("h"), 4.0);
  EXPECT_EQ(p.get("f"), 0.02);
  EXPECT_EQ(p.get_or("missing", -1.0), -1.0);
  EXPECT_THROW(static_cast<void>(p.get("missing")), std::out_of_range);
}

TEST(ParamSet, LabelKeepsInsertionOrderAndIntegerFormatting) {
  ParamSet p{{"r", 5.0}, {"f", 0.005}, {"k", 2.0}};
  EXPECT_EQ(p.label(), "r=5 f=0.005 k=2");
}

TEST(ParamSet, LabelRoundTripsHighPrecisionValues) {
  // Labels distinguish cells that differ beyond 6 significant digits
  // (regression: default ostream precision merged such cells in CSV).
  const ParamSet a{{"f", 0.00123456}};
  const ParamSet b{{"f", 0.001234564}};
  EXPECT_NE(a.label(), b.label());
}

TEST(ScenarioRegistry, FindAndSortedListing) {
  ScenarioRegistry reg;
  reg.add(tiny_scenario("b.second"));
  reg.add(tiny_scenario("a.first"));
  EXPECT_EQ(reg.size(), 2u);
  ASSERT_NE(reg.find("a.first"), nullptr);
  EXPECT_EQ(reg.find("missing"), nullptr);
  const auto all = reg.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->id, "a.first");
  EXPECT_EQ(all[1]->id, "b.second");
}

TEST(ScenarioRegistry, RejectsDuplicatesAndMalformedScenarios) {
  ScenarioRegistry reg;
  reg.add(tiny_scenario());
  EXPECT_THROW(reg.add(tiny_scenario()), std::invalid_argument);

  Scenario no_cells = tiny_scenario("test.nocells");
  no_cells.cells.clear();
  EXPECT_THROW(reg.add(no_cells), std::invalid_argument);

  Scenario no_metrics = tiny_scenario("test.nometrics");
  no_metrics.metrics.clear();
  EXPECT_THROW(reg.add(no_metrics), std::invalid_argument);

  Scenario no_fn = tiny_scenario("test.nofn");
  no_fn.run = nullptr;
  EXPECT_THROW(reg.add(no_fn), std::invalid_argument);
}

TEST(TrialSeed, StableAndWellSeparated) {
  // Same inputs => same seed (the determinism anchor).
  EXPECT_EQ(trial_seed(42, "s", 0, 0), trial_seed(42, "s", 0, 0));
  // Any varying component changes the seed; all seeds distinct across a
  // realistic grid.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {1ULL, 2ULL}) {
    for (const char* id : {"table2.fw_mc", "fw.sweep"}) {
      for (std::size_t cell = 0; cell < 20; ++cell) {
        for (std::uint64_t trial = 0; trial < 50; ++trial) {
          seeds.insert(trial_seed(base, id, cell, trial));
        }
      }
    }
  }
  EXPECT_EQ(seeds.size(), 2u * 2u * 20u * 50u);
}

TEST(BuiltinScenarios, RegistryIsPopulatedAndWellFormed) {
  const ScenarioRegistry& reg = builtin_scenarios();
  EXPECT_GE(reg.size(), 8u);
  for (const Scenario* s : reg.all()) {
    EXPECT_FALSE(s->metrics.empty()) << s->id;
    EXPECT_FALSE(s->cells.empty()) << s->id;
    EXPECT_TRUE(static_cast<bool>(s->run)) << s->id;
    EXPECT_GT(s->trials_per_cell, 0u) << s->id;
  }
  ASSERT_NE(reg.find("table2.fw_mc"), nullptr);
  EXPECT_EQ(reg.find("table2.fw_mc")->cells.size(), 18u);
}

}  // namespace
}  // namespace rgb::exp
