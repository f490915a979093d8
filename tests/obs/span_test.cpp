// Causal spans: the tracer's span semantics (off by default, contexts), the
// single-connected-tree invariant for every traced op, and byte-identity
// of the Chrome trace export across runs of a join and handoff schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "rgb/rgb.hpp"
#include "sim/simulator.hpp"

namespace rgb::obs {
namespace {

TEST(OpTracerSpans, DisabledByDefaultRecordsNothing) {
  OpTracer tracer;
  EXPECT_FALSE(tracer.spans_enabled());
  const auto send = [&tracer] {
    return tracer.record_span(1, common::NodeId{1}, SpanKind::kSend, 7, 0, 0,
                              0);
  };
  EXPECT_EQ(send(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.span_counts().recorded, 0u);
  tracer.set_spans_enabled(true);
  EXPECT_NE(send(), 0u);
  EXPECT_EQ(tracer.span_counts().recorded, 1u);
}

TEST(OpTracerSpans, ScopeInstallsAndRestoresContext) {
  OpTracer tracer;
  tracer.set_spans_enabled(true);
  EXPECT_EQ(tracer.current().trace, 0u);
  {
    const OpTracer::Scope outer{tracer, {42, 7}};
    EXPECT_EQ(tracer.current().trace, 42u);
    EXPECT_EQ(tracer.current().span, 7u);
    {
      const OpTracer::Scope inner{tracer, {43, 8}};
      EXPECT_EQ(tracer.current().trace, 43u);
    }
    EXPECT_EQ(tracer.current().trace, 42u);
  }
  EXPECT_EQ(tracer.current().trace, 0u);
}

/// One RGB run with spans on: members join round-robin over the APs, then
/// a batch of members hand off to an AP under another tier-0 node. Returns
/// the Chrome trace export plus the span list.
struct TracedRun {
  std::string chrome;
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
};

TracedRun run_handoff_trial() {
  common::RngStream rng{7};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  core::RgbConfig config;
  config.probe_period = sim::msec(100);
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 3}};
  sys.obs().tracer.set_spans_enabled(true);

  const std::vector<common::NodeId>& aps = sys.aps();
  constexpr std::uint64_t kMembers = 12;
  for (std::uint64_t i = 1; i <= kMembers; ++i) {
    const common::NodeId ap = aps[i % aps.size()];
    simulator.schedule_at(sim::msec(10) * i,
                          [&sys, ap, i]() { sys.join(common::Guid{i}, ap); });
  }
  // Handoffs move a member to the same position in the next AP ring, which
  // hangs under another tier-0 node.
  const std::size_t ring_stride = aps.size() / 3;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    const common::NodeId to = aps[(i + ring_stride) % aps.size()];
    simulator.schedule_at(
        sim::msec(400) + sim::msec(20) * i,
        [&sys, to, i]() { sys.handoff(common::Guid{i}, to); });
  }
  sys.start_probing();
  simulator.run_until(sim::sec(3));

  TracedRun out;
  std::ostringstream os;
  write_chrome_trace(os, sys.obs().tracer);
  out.chrome = os.str();
  out.spans = sys.obs().tracer.spans();
  out.dropped = sys.obs().tracer.span_counts().dropped;
  return out;
}

/// The exported trace is a function of the seed: byte-identical on a
/// second run.
TEST(SpanDeterminism, HandoffTraceByteIdenticalOnASecondRun) {
  const TracedRun first = run_handoff_trial();
  EXPECT_FALSE(first.chrome.empty());
  EXPECT_EQ(run_handoff_trial().chrome, first.chrome);
  // The export actually carries cross-NE flow events, not just tracks.
  EXPECT_NE(first.chrome.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(first.chrome.find("\"ph\":\"f\""), std::string::npos);
}

/// Every traced op's parent links form a single connected tree: exactly
/// one root (the kOpRoot with parent 0), every other span's parent
/// recorded within the same trace. Parents always precede children in
/// record order, so parent-resolution + unique root implies connectivity.
TEST(SpanDeterminism, ParentLinksFormOneConnectedTreePerOp) {
  const TracedRun run = run_handoff_trial();
  ASSERT_EQ(run.dropped, 0u) << "ring overflow would sever parent links";
  ASSERT_FALSE(run.spans.empty());

  std::map<std::uint64_t, std::set<std::uint64_t>> ids_by_trace;
  for (const Span& s : run.spans) {
    if (s.trace == 0) {
      // Untraced handler spans (probe/heartbeat deliveries) are roots of
      // nothing: no parent, no trace.
      EXPECT_EQ(s.kind, SpanKind::kHandler);
      EXPECT_EQ(s.parent, 0u);
      continue;
    }
    EXPECT_TRUE(ids_by_trace[s.trace].insert(s.id).second)
        << "duplicate span id " << s.id << " in trace " << s.trace;
  }
  ASSERT_GE(ids_by_trace.size(), 12u);  // at least one trace per join op

  std::map<std::uint64_t, int> roots_by_trace;
  std::size_t multi_ne_traces = 0;
  for (const auto& [trace, ids] : ids_by_trace) {
    std::set<common::NodeId> nes;
    for (const Span& s : run.spans) {
      if (s.trace != trace) continue;
      nes.insert(s.ne);
      if (s.parent == 0) {
        EXPECT_EQ(s.kind, SpanKind::kOpRoot)
            << "non-root span without a parent in trace " << trace;
        EXPECT_EQ(s.b, trace) << "kOpRoot operand b must be the op uid";
        ++roots_by_trace[trace];
      } else {
        EXPECT_TRUE(ids.count(s.parent))
            << to_string(s.kind) << " span " << s.id << " in trace " << trace
            << " parents under unrecorded span " << s.parent;
      }
    }
    EXPECT_EQ(roots_by_trace[trace], 1) << "trace " << trace;
    if (nes.size() > 1) ++multi_ne_traces;
  }
  // Dissemination work: ops propagate beyond their birth NE, so the trees
  // genuinely span NEs (the flow events have something to connect).
  EXPECT_GT(multi_ne_traces, 0u);
}

}  // namespace
}  // namespace rgb::obs
