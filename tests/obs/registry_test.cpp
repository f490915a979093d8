// MetricsRegistry: enumeration order, lookup, deterministic JSON/CSV
// export, and the registry/legacy-field parity guard (the debug assertion
// behind RgbSystem::metrics_snapshot).
#include <gtest/gtest.h>

#include <sstream>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace rgb::obs {
namespace {

using rgb::testing::RgbSystemTest;

TEST(MetricsRegistry, EnumeratesInRegistrationOrder) {
  common::Counter a, b;
  a.increment(3);
  MetricsRegistry reg;
  reg.add_counter("z.second", &b);
  reg.add_counter("a.first", &a);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "z.second");  // registration order, not sorted
  EXPECT_EQ(snap[0].value, 0u);
  EXPECT_EQ(snap[1].name, "a.first");
  EXPECT_EQ(snap[1].value, 3u);
}

TEST(MetricsRegistry, ReadsLiveValuesAtSnapshotTime) {
  common::Counter c;
  MetricsRegistry reg;
  reg.add_counter("c", &c);
  EXPECT_EQ(reg.value_of("c"), 0u);
  c.increment(7);
  EXPECT_EQ(reg.value_of("c"), 7u);
  EXPECT_FALSE(reg.value_of("missing").has_value());
}

TEST(MetricsRegistry, FamiliesExpandInline) {
  MetricsRegistry reg;
  reg.add_family("fam.<k>", []() {
    return std::vector<MetricsRegistry::Sample>{{"fam.x", 1}, {"fam.y", 2}};
  });
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "fam.x");
  EXPECT_EQ(reg.value_of("fam.y"), 2u);
}

TEST(MetricsRegistry, HistogramSummariesAndJsonAreDeterministic) {
  common::Histogram h;
  h.add(10.0);
  h.add(1000.0);
  common::Counter c;
  c.increment(5);
  MetricsRegistry reg;
  reg.add_counter("n", &c);
  reg.add_histogram("lat", &h);

  const auto rows = reg.histograms();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "lat");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[0].max, 1000.0);

  std::ostringstream j1, j2, csv;
  reg.write_json(j1);
  reg.write_json(j2);
  reg.write_csv(csv);
  EXPECT_EQ(j1.str(), j2.str());
  EXPECT_NE(j1.str().find("\"n\": 5"), std::string::npos) << j1.str();
  EXPECT_NE(csv.str().find("n,5"), std::string::npos) << csv.str();
}

TEST(MetricsRegistry, CatalogCarriesTypesAndDescriptions) {
  common::Counter c;
  common::Histogram h;
  MetricsRegistry reg;
  reg.add_counter("ops", &c, "operations applied");
  reg.add_gauge("depth", []() { return std::uint64_t{0}; }, "queue depth");
  reg.add_family(
      "fam.kind<K>",
      []() { return std::vector<MetricsRegistry::Sample>{{"fam.kind1", 1}}; },
      "per-kind family");
  reg.add_histogram("lat", &h, "latency digest");

  const auto rows = reg.catalog();
  ASSERT_EQ(rows.size(), 4u);
  // Catalog order: scalar entries in registration order, then histograms.
  EXPECT_EQ(rows[0].name, "ops");
  EXPECT_STREQ(rows[0].type, "counter");
  EXPECT_EQ(rows[0].description, "operations applied");
  EXPECT_STREQ(rows[1].type, "gauge");
  EXPECT_EQ(rows[2].name, "fam.kind<K>");  // the pattern, not an expansion
  EXPECT_STREQ(rows[2].type, "family");
  EXPECT_EQ(rows[3].name, "lat");
  EXPECT_STREQ(rows[3].type, "histogram");

  std::ostringstream a, b;
  reg.write_catalog(a);
  reg.write_catalog(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("ops"), std::string::npos);
  EXPECT_NE(a.str().find("latency digest"), std::string::npos);
}

class RegistryParityTest : public RgbSystemTest {};

/// Satellite guard: after real protocol activity, the registry-enumerated
/// export and the legacy hand-read RgbMetrics / Network::Metrics fields
/// agree on every value.
TEST_F(RegistryParityTest, RegisteredExportMatchesLegacyFields) {
  auto& sys = build(2, 3);
  sys.start_probing();
  for (std::uint64_t i = 1; i <= 20; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  run_for_ms(2000);
  sys.crash_ne(sys.aps()[0]);  // exercise repair/detection counters too
  run_for_ms(3000);

  EXPECT_TRUE(registry_parity_ok(sys.obs().registry, sys.metrics(), network_));
  // The asserting snapshot path agrees with a direct registry read.
  EXPECT_EQ(sys.metrics_snapshot().size(), sys.obs().registry.snapshot().size());
  // Spot-check one name against the legacy field.
  EXPECT_EQ(sys.obs().registry.value_of("rgb.rounds_started"),
            sys.metrics().rounds_started.value());
  EXPECT_EQ(sys.obs().registry.value_of("net.sent"), network_.metrics().sent);
}

/// Drift is detected, not silently exported: a registry whose entry reads a
/// different location than the legacy field fails the parity check.
TEST_F(RegistryParityTest, DriftingRegistryFailsParity) {
  auto& sys = build(1, 3);
  sys.join(common::Guid{1}, sys.aps()[0]);
  run_all();

  MetricsRegistry drifted;
  register_rgb_metrics(drifted, sys.metrics());
  register_network_metrics(drifted, network_);
  EXPECT_TRUE(registry_parity_ok(drifted, sys.metrics(), network_));

  core::RgbMetrics other;  // same shape, different (idle) instance
  MetricsRegistry wrong;
  register_rgb_metrics(wrong, other);
  register_network_metrics(wrong, network_);
  EXPECT_FALSE(registry_parity_ok(wrong, sys.metrics(), network_));
}

/// Every metric an RgbSystem registers shows up in the catalog with a
/// non-empty description — the `rgb_exp metrics --catalog` contract.
TEST_F(RegistryParityTest, LiveSystemCatalogIsFullyDescribed) {
  auto& sys = build(1, 3);
  const auto rows = sys.obs().registry.catalog();
  EXPECT_GE(rows.size(), 40u);
  for (const auto& row : rows) {
    EXPECT_FALSE(row.name.empty());
    EXPECT_FALSE(row.description.empty()) << row.name;
    EXPECT_NE(row.type, nullptr) << row.name;
  }
  // The profiler surface is wired in: default-on handler accounting.
  EXPECT_TRUE(sys.obs().registry.value_of("obs.prof.handled.total"));
  EXPECT_TRUE(sys.obs().registry.value_of("obs.prof.mq_depth"));
}

class ProfilerTest : public RgbSystemTest {};

/// The deterministic handler profiler counts every delivery by message
/// kind with spans off (the default), and its registry surface reads the
/// same totals.
TEST_F(ProfilerTest, CountsDeliveriesPerKindUnderRealTraffic) {
  auto& sys = build(2, 3);
  ASSERT_FALSE(sys.obs().tracer.spans_enabled());  // default-off spans
  sys.start_probing();
  for (std::uint64_t i = 1; i <= 12; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  run_for_ms(2000);

  const OpTracer& prof = sys.obs().tracer;
  EXPECT_GT(prof.handled_total(), 0u);
  const OpTracer::HandledPerKind per_kind = prof.handled_per_kind();
  std::uint64_t sum = 0;
  std::size_t kinds_seen = 0;
  for (const std::uint64_t n : per_kind) {
    sum += n;
    kinds_seen += n != 0;
  }
  EXPECT_EQ(sum, prof.handled_total());
  EXPECT_GT(kinds_seen, 3u);  // probes, tokens, view sync, ...
  // Registry family exposes exactly the non-zero kinds.
  EXPECT_EQ(sys.obs().registry.value_of("obs.prof.handled.total"),
            prof.handled_total());
  for (std::size_t k = 0; k < per_kind.size(); ++k) {
    const auto name = "obs.prof.handled.kind" + std::to_string(k);
    const auto value = sys.obs().registry.value_of(name);
    if (per_kind[k] != 0) {
      ASSERT_TRUE(value.has_value()) << name;
      EXPECT_EQ(*value, per_kind[k]);
    } else {
      EXPECT_FALSE(value.has_value()) << name;
    }
  }
}

}  // namespace
}  // namespace rgb::obs
