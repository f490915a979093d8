// The suite's fixed catalog: workloads, end-to-end metrics with their
// regression bounds, workload outcomes with theirs, and per-layer metrics.
// BENCHMARK.json at the repository root is this catalog (outcomes aside)
// printed by `bench_suite --catalog`;
// `bench_suite --smoke` fails when the committed file drifts from it.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rgb/messages.hpp"

namespace suite {

struct WorkloadInfo {
  std::string name;
  std::string why;
};

struct Metric {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
  double bound = 0.0;  ///< end-to-end only: allowed worsening, share of median
  /// True for sim-time values and counts: they repeat byte for byte at a
  /// fixed seed. False for wall-clock and memory readings.
  bool exact = false;
};

inline const std::vector<WorkloadInfo>& workload_catalog() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"join_surge",
       "write path: 200k facade joins at 2000/s into one group; token, grant, "
       "MQ, table apply and codec sizing run hot, directory walks and "
       "anti-entropy are bypassed"},
      {"groups_steady",
       "probe ticks and kSummary anti-entropy at rest over 1000 groups x 20 "
       "members; the per-op write path is bypassed, the O(G) steady cost "
       "lives here"},
      {"churn_faults",
       "2000 heartbeating hosts fail, leave, hand off and rejoin (40/s) over "
       "NE-NE links losing 2% while a top-ring NE is down 8 s of every 30 s: "
       "detection, stability, repair, retransmission, anti-entropy"},
      {"query_mix",
       "200 group queries/s (TMS and BMS) beside 100 writes/s over 100 "
       "groups on 1-10 ms links: query handlers and table snapshots against "
       "token rounds"},
  };
  return kWorkloads;
}

inline const std::vector<Metric>& e2e_catalog() {
  // Each bound but setup_s's is at least twice the largest spread (IQR /
  // median over ten seeds) seen on any workload (README.md). churn_faults sets the latency
  // bounds: its 2% NE-NE loss puts its latencies on steps between
  // retransmission timeouts. The two CPU times carry the largest bound
  // allowed: even rescaled by Reference their spread reaches 7-12% on a
  // shared machine.
  static const std::vector<Metric> kMetrics = {
      {"setup_s", "s", "lower", 0.25, false},
      {"window_s", "s", "lower", 0.25, false},
      {"rss_b_per_member", "B", "lower", 0.05, false},
      {"join_p50_ms", "ms", "lower", 0.25, true},
      {"join_p90_ms", "ms", "lower", 0.2, true},
      {"dissem_p50_ms", "ms", "lower", 0.25, true},
      {"dissem_p90_ms", "ms", "lower", 0.2, true},
      {"net_kB_per_s", "kB/s", "lower", 0.1, true},
  };
  return kMetrics;
}

/// A workload outcome: a metric that exists on some workloads only, or is
/// too noisy on one of them to be gated there, so it cannot be an
/// end-to-end metric (those are gated on every workload). Every run prints
/// its workload's outcomes in the detail line, and `run.py ab` judges them
/// like end-to-end metrics, with the bound given per workload: at least
/// three times the largest spread seen on that workload.
struct Outcome {
  std::string name;
  std::string unit;
  std::string better;
  std::vector<std::pair<std::string, double>> bounds;  ///< workload, bound
};

inline const std::vector<Outcome>& outcome_catalog() {
  static const std::vector<Outcome> kOutcomes = {
      {"join_p99_ms", "ms", "lower",
       {{"join_surge", 0.05}, {"groups_steady", 0.1}, {"churn_faults", 0.85},
        {"query_mix", 0.1}}},
      {"dissem_p99_ms", "ms", "lower",
       {{"join_surge", 0.05}, {"groups_steady", 0.1}, {"churn_faults", 0.6},
        {"query_mix", 0.1}}},
      {"detect_p50_ms", "ms", "lower", {{"churn_faults", 0.05}}},
      {"detect_p99_ms", "ms", "lower", {{"churn_faults", 0.05}}},
      {"view_changes", "count", "lower", {{"churn_faults", 0.15}}},
      {"query_p50_ms", "ms", "lower", {{"query_mix", 0.05}}},
      {"query_p99_ms", "ms", "lower", {{"query_mix", 0.05}}},
      {"stale_frac", "ratio", "lower", {{"query_mix", 0.12}}},
      {"bytes_per_op", "B", "lower",
       {{"join_surge", 0.02}, {"churn_faults", 0.12}, {"query_mix", 0.04}}},
      {"sync_b_per_link_tick", "B", "lower",
       {{"groups_steady", 0.02}, {"churn_faults", 0.05}}},
  };
  return kOutcomes;
}

/// Delivery-handler kinds reported one by one; every other kind is
/// reported as "other".
struct NeKind {
  const char* name;
  rgb::net::MessageKind kind;
};

inline const std::vector<NeKind>& ne_kinds() {
  namespace k = rgb::core::kind;
  static const std::vector<NeKind> kKinds = {
      {"token", k::kToken},
      {"token_pass_ack", k::kTokenPassAck},
      {"token_request", k::kTokenRequest},
      {"token_grant", k::kTokenGrant},
      {"token_release", k::kTokenRelease},
      {"holder_ack", k::kHolderAck},
      {"notify_parent", k::kNotifyParent},
      {"notify_child", k::kNotifyChild},
      {"probe", k::kProbe},
      {"probe_ack", k::kProbeAck},
      {"view_sync", k::kViewSync},
      {"repair", k::kRepair},
      {"ring_reform", k::kRingReform},
      {"reconcile", k::kReconcile},
      {"alert", k::kAlert},
      {"mh_request", k::kMhRequest},
      {"mh_heartbeat", k::kMhHeartbeat},
      {"query_request", k::kQueryRequest},
      {"query_reply", k::kQueryReply},
  };
  return kKinds;
}

inline const std::vector<Metric>& layer_catalog() {
  static const std::vector<Metric> kMetrics = [] {
    std::vector<Metric> m = {
        {"sim.events", "count", "lower", 0, true},
        {"sim.ev_per_s", "1/s", "higher", 0, false},
        {"sim.window_total_s", "s", "lower", 0, false},
        {"sim.timers_self_s", "s", "lower", 0, false},
        {"net.msgs", "count", "lower", 0, true},
        {"net.bytes", "B", "lower", 0, true},
        {"net.drops", "count", "lower", 0, true},
        {"net.msgs_per_op", "msg/op", "lower", 0, true},
        {"wire.size_calls", "count", "lower", 0, true},
        {"wire.size_s", "s", "lower", 0, false},
        {"wire.encode_ns_per_b", "ns/B", "lower", 0, false},
        {"wire.decode_ns_per_b", "ns/B", "lower", 0, false},
    };
    for (const NeKind& k : ne_kinds()) {
      m.push_back({std::string("ne.") + k.name + ".n", "count", "lower", 0, true});
      m.push_back({std::string("ne.") + k.name + ".frac", "frac", "lower", 0, false});
    }
    m.push_back({"ne.other.n", "count", "lower", 0, true});
    m.push_back({"ne.other.frac", "frac", "lower", 0, false});
    const std::vector<Metric> rest = {
        {"dir.combined_digest_us", "us", "lower", 0, false},
        {"dir.packed_digests_us", "us", "lower", 0, false},
        {"dir.lookup_ns", "ns", "lower", 0, false},
        {"dir.export_all_ms", "ms", "lower", 0, false},
        {"table.apply_ns", "ns", "lower", 0, false},
        {"table.snapshot_us", "us", "lower", 0, false},
        {"mq.ops_per_round", "op/round", "higher", 0, true},
        {"mq.collapsed_frac", "frac", "higher", 0, true},
        {"rgb.token_retx", "count", "lower", 0, true},
        {"rgb.notify_retx", "count", "lower", 0, true},
        {"rgb.repairs", "count", "lower", 0, true},
        {"rgb.reconcile_rounds", "count", "lower", 0, true},
        {"rgb.group_fulls", "count", "lower", 0, true},
        {"rgb.group_diffs", "count", "lower", 0, true},
        {"rgb.view_changes", "count", "lower", 0, true},
        {"rgb.detections", "count", "higher", 0, true},
        {"stability.alerts", "count", "lower", 0, true},
        {"stability.cuts", "count", "lower", 0, true},
        {"stability.suppressed_flaps", "count", "lower", 0, true},
        {"stability.fallbacks", "count", "lower", 0, true},
        {"query.completed", "count", "higher", 0, true},
        {"query.msgs_per_query", "msg/query", "lower", 0, true},
        {"query.entries_per_reply", "entry/reply", "lower", 0, true},
        {"query.stale_frac", "frac", "lower", 0, true},
        {"obs.trace_overhead_frac", "frac", "lower", 0, false},
        {"bench.gen_s", "s", "lower", 0, false},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

inline std::string format_bound(double bound) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", bound);
  return buf;
}

/// The exact content of BENCHMARK.json.
inline std::string benchmark_json() {
  std::ostringstream os;
  os << "{\n"
     << "  \"command\": [\"python3\", \"bench/suite/run.py\"],\n"
     << "  \"paths\": [\"bench/suite\"],\n"
     << "  \"run_seconds\": 10,\n"
     << "  \"workloads\": [\n";
  const auto& workloads = workload_catalog();
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    os << "    {\"name\": \"" << workloads[i].name << "\", \"why\": \""
       << workloads[i].why << "\"}" << (i + 1 < workloads.size() ? "," : "")
       << "\n";
  }
  os << "  ],\n  \"end_to_end\": [\n";
  const auto& e2e = e2e_catalog();
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    os << "    {\"name\": \"" << e2e[i].name << "\", \"unit\": \"" << e2e[i].unit
       << "\", \"better\": \"" << e2e[i].better
       << "\", \"bound\": " << format_bound(e2e[i].bound) << "}"
       << (i + 1 < e2e.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"per_layer\": [\n";
  const auto& layer = layer_catalog();
  for (std::size_t i = 0; i < layer.size(); ++i) {
    os << "    {\"name\": \"" << layer[i].name << "\", \"unit\": \""
       << layer[i].unit << "\", \"better\": \"" << layer[i].better << "\"}"
       << (i + 1 < layer.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace suite
