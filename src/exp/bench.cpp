#include "exp/bench.hpp"

#include <algorithm>
#include <memory>
#include <ostream>

#include "common/rng.hpp"
#include "exp/scenario.hpp"
#include "net/network.hpp"
#include "obs/trace_export.hpp"
#include "rgb/mobile_host.hpp"
#include "rgb/rgb.hpp"
#include "sim/simulator.hpp"

namespace rgb::exp {

namespace {

/// The scale trial's probe tick: the warm-up and steady windows are counted
/// in it.
constexpr sim::Duration kProbePeriod = sim::msec(250);

LatencyStats latency_from(const common::Histogram& h) {
  LatencyStats out;
  out.count = h.count();
  out.p50 = h.p50();
  out.p90 = h.p90();
  out.p99 = h.p99();
  out.p999 = h.p999();
  out.max = h.max();
  out.mean = h.mean();
  return out;
}

void write_latency_json(std::ostream& os, const LatencyStats& l) {
  os << "{\"count\": " << l.count << ", \"p50_us\": " << format_double(l.p50)
     << ", \"p90_us\": " << format_double(l.p90)
     << ", \"p99_us\": " << format_double(l.p99)
     << ", \"p999_us\": " << format_double(l.p999)
     << ", \"max_us\": " << format_double(l.max)
     << ", \"mean_us\": " << format_double(l.mean) << '}';
}

ProfileStats profile_from(const obs::OpTracer& tracer) {
  ProfileStats out;
  out.handled_total = tracer.handled_total();
  const obs::OpTracer::HandledPerKind handled = tracer.handled_per_kind();
  for (std::size_t k = 0; k < handled.size(); ++k) {
    if (handled[k] != 0) {
      out.handled.emplace_back(static_cast<unsigned>(k), handled[k]);
    }
  }
  return out;
}

/// kViewSync frames per steady probe tick = synced links (each steady frame
/// is one link-tick; none is a reply once converged).
std::uint64_t links_per_tick(const ScaleStats& stats,
                             const ScaleConfig& config) {
  return config.steady_ticks > 0
             ? stats.viewsync_msgs /
                   static_cast<std::uint64_t>(config.steady_ticks)
             : 0;
}

/// The one trial body behind scale, trace and multi-group cells:
/// `trace_out`, when set, turns causal spans on and receives the Chrome
/// trace export of the trial.
ScaleStats run_scale_trial_impl(const ScaleConfig& config,
                                std::ostream* trace_out) {
  common::RngStream rng{config.seed};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  core::RgbConfig rgb_config;
  rgb_config.probe_period = kProbePeriod;
  rgb_config.snapshot_join = config.snapshot_join;
  rgb_config.groups = config.groups;
  core::RgbSystem sys{network, rgb_config,
                      core::HierarchyLayout{config.tiers, config.ring_size}};
  // Spans flip on before any traffic so every op gets a complete causal
  // tree.
  sys.obs().tracer.set_spans_enabled(trace_out != nullptr);

  ScaleStats stats;
  stats.members = config.members;
  stats.groups = config.groups;
  stats.ne_count = sys.layout().ne_count();
  stats.snapshot_join = config.snapshot_join;

  // Tick time-series: cumulative counters probed at a fixed sim-time
  // cadence (armed per phase below; see SeriesSampler's header for why the
  // sample batches are finite).
  obs::SeriesSampler sampler([&](sim::Time at, bool with_divergence) {
    obs::SeriesPoint p;
    p.at = at;
    p.events = simulator.executed_events();
    p.msgs_sent = network.metrics().sent;
    p.bytes_sent = network.metrics().bytes_sent;
    p.ops_disseminated = sys.metrics().ops_disseminated.value();
    p.reconcile_rounds = sys.metrics().reconcile_rounds.value();
    p.view_changes = sys.obs().tracer.view_changes().value();
    p.repairs = sys.metrics().repairs.value();
    if (with_divergence) {
      p.divergence = static_cast<std::int64_t>(sys.view_divergence());
    }
    return p;
  });

  // Join phase: members arrive spaced in virtual time, round-robin over
  // the APs; probing stays off so the phase measures dissemination alone.
  const auto& aps = sys.aps();
  for (std::uint64_t i = 0; i < config.members; ++i) {
    const auto ap = aps[i % aps.size()];
    simulator.schedule_at(config.join_spacing * i, [&sys, ap, i]() {
      sys.join(common::Guid{i + 1}, ap);
    });
  }
  // Join and steady samples skip the O(NE*N) divergence walk; divergence
  // series points come from the warm-up phase below, whose repair they
  // show, plus the explicit post-drain measurement.
  constexpr int kJoinSamples = 16;
  const sim::Duration arrival_window = config.join_spacing * config.members;
  sampler.arm(simulator, 0,
              std::max<sim::Duration>(arrival_window / kJoinSamples, 1),
              kJoinSamples, /*with_divergence=*/false);
  simulator.run();
  stats.join_events = simulator.executed_events();
  stats.join_bytes = network.metrics().bytes_sent;
  stats.join_snapshot_msgs = network.metrics().sent_of(core::kind::kSnapshot);
  stats.join_snapshot_bytes =
      network.metrics().bytes_of(core::kind::kSnapshot);
  // Post-drain, pre-warm-up: what the join phase alone left disagreeing.
  stats.join_divergence = sys.view_divergence();

  // Warm-up: the first probe windows repair whatever view divergence the
  // join surge left behind (anti-entropy mop-up); only then is the system
  // in steady state.
  sys.start_probing();
  sampler.arm(simulator, simulator.now(), kProbePeriod, config.warmup_ticks,
              /*with_divergence=*/true);
  simulator.run_until(simulator.now() +
                      kProbePeriod *
                          static_cast<std::uint64_t>(config.warmup_ticks));
  const std::uint64_t pre_steady_events = simulator.executed_events();
  const std::uint64_t pre_steady_vc = sys.obs().tracer.view_changes().value();
  const std::uint64_t pre_steady_repairs = sys.metrics().repairs.value();

  // Steady state: probing + anti-entropy only; measure one window.
  network.reset_metrics();
  sampler.arm(simulator, simulator.now(), kProbePeriod, config.steady_ticks,
              /*with_divergence=*/false);
  simulator.run_until(simulator.now() +
                      kProbePeriod *
                          static_cast<std::uint64_t>(config.steady_ticks));

  stats.steady_events = simulator.executed_events() - pre_steady_events;
  const auto& metrics = network.metrics();
  stats.viewsync_msgs = metrics.sent_of(core::kind::kViewSync);
  stats.viewsync_bytes = metrics.bytes_of(core::kind::kViewSync);
  stats.total_bytes = metrics.bytes_sent;
  stats.converged = sys.membership_converged();
  stats.group_divergence = sys.group_view_divergence();
  stats.groups_created = sys.metrics().groups_created.value();
  stats.digests_packed = sys.metrics().digest_groups_packed.value();
  stats.group_fulls = sys.metrics().group_fulls_sent.value();
  stats.group_diffs = sys.metrics().group_diffs_sent.value();

  const obs::OpTracer& tracer = sys.obs().tracer;
  stats.dissemination_latency =
      latency_from(tracer.merged_member_dissemination());
  stats.join_latency = latency_from(tracer.join_latency());
  stats.view_changes = tracer.view_changes().value();
  stats.steady_view_changes = tracer.view_changes().value() - pre_steady_vc;
  stats.steady_repairs = sys.metrics().repairs.value() - pre_steady_repairs;
  stats.series = sampler.points();
  stats.series_dropped = sampler.dropped();
  stats.profile = profile_from(tracer);
  const obs::OpTracer::RingCounts spans = tracer.span_counts();
  stats.spans_recorded = spans.recorded;
  stats.spans_dropped = spans.dropped;

  if (trace_out != nullptr) {
    obs::write_chrome_trace(*trace_out, tracer);
  }
  return stats;
}

}  // namespace

ScaleStats run_scale_trial(const ScaleConfig& config) {
  return run_scale_trial_impl(config, nullptr);
}

ScaleStats run_trace_trial(const ScaleConfig& config,
                           std::ostream& trace_out) {
  return run_scale_trial_impl(config, &trace_out);
}

DetectStats run_detect_trial(std::uint64_t seed) {
  common::RngStream rng{seed};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  core::RgbConfig config;
  config.probe_period = sim::msec(250);
  config.mh_failure_timeout = sim::sec(1);
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 3}};
  sys.start_probing();

  // A small heartbeating population over the 9 APs.
  constexpr std::uint64_t kHosts = 18;
  const auto& aps = sys.aps();
  std::vector<std::unique_ptr<core::MobileHost>> hosts;
  for (std::uint64_t i = 0; i < kHosts; ++i) {
    hosts.push_back(std::make_unique<core::MobileHost>(
        common::NodeId{900001 + i}, common::Guid{i + 1}, common::GroupId{1},
        network, sim::msec(250)));
    simulator.schedule_at(sim::msec(10) * i, [&hosts, &aps, i]() {
      hosts[i]->join_via(aps[i % aps.size()]);
    });
  }
  simulator.run_until(sim::sec(3));

  DetectStats stats;
  // Faulty disconnections, staggered so the sweep sees distinct silences.
  for (std::uint64_t i = 0; i < 6; ++i) {
    simulator.schedule_at(sim::sec(4) + sim::msec(200) * i,
                          [&hosts, i]() { hosts[i]->fail(); });
    ++stats.failed_members;
  }
  // One AP crash: the ring splices it out (NE detection) and its stranded
  // members are declared failed (crash-anchored member detection).
  simulator.schedule_at(sim::sec(6), [&sys, &aps]() { sys.crash_ne(aps[1]); });
  ++stats.crashed_nes;
  simulator.run_until(sim::sec(12));
  sys.recover_ne(aps[1]);
  simulator.run_until(sim::sec(20));

  const obs::OpTracer& tracer = sys.obs().tracer;
  stats.member_detection = latency_from(tracer.member_detection());
  stats.ne_detection = latency_from(tracer.ne_detection());
  stats.view_changes = tracer.view_changes().value();
  return stats;
}

OscillationStats run_oscillation_trial(bool stability, std::uint64_t seed) {
  common::RngStream rng{seed};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  core::RgbConfig config;
  config.probe_period = sim::msec(250);
  // Starved retransmission budget: one short loss streak on a token hop
  // exhausts it, so every streak becomes a single-observer false suspicion
  // — exactly the per-flap reconfiguration regime the stability layer
  // exists to suppress. The A/B cells differ ONLY in `stability`.
  config.retx_timeout = sim::msec(20);
  config.max_retx = 2;
  config.round_timeout = sim::msec(500);
  config.stability = stability;
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 3}};
  sys.start_probing();

  OscillationStats stats;
  stats.stability = stability;
  stats.window = sim::sec(10);

  // Seed a small population round-robin over the APs and let it converge.
  constexpr std::uint64_t kMembers = 18;
  const auto& aps = sys.aps();
  for (std::uint64_t i = 0; i < kMembers; ++i) {
    sys.join(common::Guid{i + 1}, aps[i % aps.size()]);
  }
  simulator.run_until(sim::sec(2));

  // Churn + loss window: 20% sustained loss, and every 100ms each member
  // independently toggles (leave or fail when present, rejoin when absent)
  // with 2% probability — the check layer's churn-verb regime.
  const std::uint64_t pre_vc = sys.obs().tracer.view_changes().value();
  const std::uint64_t pre_repairs = sys.metrics().repairs.value();
  const std::uint64_t pre_merges = sys.metrics().merges.value();
  network.set_default_drop_probability(0.20);
  const sim::Time window_end = simulator.now() + stats.window;
  const auto churn_rng =
      std::make_shared<common::RngStream>(rng.fork("churn"));
  std::vector<bool> live(kMembers, true);
  // The step holds itself weakly and each pending tick strongly, so it is
  // freed after its last tick instead of keeping itself alive.
  const auto step = std::make_shared<std::function<void()>>();
  *step = [&, churn_rng, window_end, self = std::weak_ptr(step)]() {
    for (std::uint64_t i = 0; i < kMembers; ++i) {
      if (churn_rng->uniform(0.0, 1.0) >= 0.02) continue;
      const common::Guid mh{i + 1};
      if (live[i]) {
        if (churn_rng->next_below(2) == 0) {
          sys.leave(mh);
        } else {
          sys.fail(mh);
        }
        live[i] = false;
      } else {
        sys.join(mh, aps[churn_rng->next_below(aps.size())]);
        live[i] = true;
      }
      ++stats.churn_events;
    }
    if (simulator.now() + sim::msec(100) <= window_end) {
      simulator.schedule_after(sim::msec(100),
                               [next = self.lock()] { (*next)(); });
    }
  };
  (*step)();
  simulator.run_until(window_end);
  network.set_default_drop_probability(0.0);

  stats.view_changes = sys.obs().tracer.view_changes().value() - pre_vc;
  stats.repairs = sys.metrics().repairs.value() - pre_repairs;
  stats.merges = sys.metrics().merges.value() - pre_merges;
  stats.alerts = sys.metrics().stability_alerts.value();
  stats.cuts = sys.metrics().stability_cuts.value();
  stats.suppressed_flaps = sys.metrics().stability_suppressed_flaps.value();
  stats.fallbacks = sys.metrics().stability_timeout_fallbacks.value();

  // Loss over: the reaffirm/merge machinery heals any residual false
  // splices, then convergence is a fair ask again.
  simulator.run_until(window_end + sim::sec(10));
  stats.converged = sys.membership_converged();
  return stats;
}

OscillationStats run_oscillation_cell(bool stability,
                                      const std::vector<std::uint64_t>& seeds) {
  OscillationStats cell;
  cell.stability = stability;
  cell.converged = !seeds.empty();
  for (const std::uint64_t seed : seeds) {
    const OscillationStats one = run_oscillation_trial(stability, seed);
    cell.window += one.window;
    cell.churn_events += one.churn_events;
    cell.view_changes += one.view_changes;
    cell.repairs += one.repairs;
    cell.merges += one.merges;
    cell.alerts += one.alerts;
    cell.cuts += one.cuts;
    cell.suppressed_flaps += one.suppressed_flaps;
    cell.fallbacks += one.fallbacks;
    cell.converged = cell.converged && one.converged;
  }
  return cell;
}

std::vector<ScaleConfig> scale_cells(
    const ScaleConfig& base, const std::vector<std::uint64_t>& member_counts,
    const SweepModes& modes) {
  std::vector<ScaleConfig> cells;
  for (const std::uint64_t members : member_counts) {
    for (const bool snapshot : {false, true}) {
      if (snapshot ? !modes.snapshot : !modes.dissemination) continue;
      ScaleConfig config = base;
      config.members = members;
      config.snapshot_join = snapshot;
      cells.push_back(config);
    }
  }
  return cells;
}

std::vector<ScaleConfig> multigroup_cells(
    const ScaleConfig& base, const std::vector<std::uint64_t>& group_counts) {
  std::vector<ScaleConfig> cells;
  for (const std::uint64_t groups : group_counts) {
    ScaleConfig config = base;
    config.groups = groups;
    config.members = groups * base.members;
    cells.push_back(config);
  }
  return cells;
}

std::vector<ScaleStats> run_sweep(const std::vector<ScaleConfig>& cells,
                                  std::ostream& log) {
  std::vector<ScaleStats> all;
  for (const ScaleConfig& config : cells) {
    log << "bench: members=" << config.members << " groups=" << config.groups
        << " join=" << (config.snapshot_join ? "snapshot" : "dissemination")
        << " ...\n";
    const ScaleStats stats = run_scale_trial(config);
    log << "  join " << stats.join_events << " events / " << stats.join_bytes
        << " bytes, divergence " << stats.join_divergence << "; steady "
        << stats.steady_events << " events, kViewSync " << stats.viewsync_msgs
        << " msgs / " << stats.viewsync_bytes << " bytes over "
        << links_per_tick(stats, config) << " links ("
        << stats.bytes_per_link_tick() << " B/link/tick); group_divergence "
        << stats.group_divergence
        << "; converged=" << (stats.converged ? "yes" : "NO") << std::endl;
    all.push_back(stats);
  }
  return all;
}

bool all_clean(const std::vector<ScaleStats>& stats) {
  return std::all_of(stats.begin(), stats.end(), [](const ScaleStats& s) {
    return s.converged && s.group_divergence == 0;
  });
}

void write_bench_json(const ScaleConfig& base,
                      const std::vector<ScaleStats>& stats, std::ostream& os,
                      const DetectStats* detect,
                      const std::vector<OscillationStats>* oscillation) {
  os << "{\n"
     // One name for every sweep: the one the scale artifacts have always
     // carried.
     << "  \"bench\": \"bench_scale\",\n"
     << "  \"layout\": {\"tiers\": " << base.tiers
     << ", \"ring_size\": " << base.ring_size << "},\n"
     << "  \"probe_period_us\": " << kProbePeriod << ",\n"
     << "  \"warmup_ticks\": " << base.warmup_ticks << ",\n"
     << "  \"steady_ticks\": " << base.steady_ticks << ",\n"
     << "  \"join_spacing_us\": " << base.join_spacing << ",\n"
     << "  \"seed\": " << base.seed << ",\n"
     << "  \"cells\": [\n";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const ScaleStats& s = stats[i];
    os << "    {\"members\": " << s.members << ", \"groups\": " << s.groups
       << ", \"ne_count\": " << s.ne_count
       << ", \"snapshot_join\": " << (s.snapshot_join ? "true" : "false")
       << ", \"converged\": " << (s.converged ? "true" : "false")
       << ", \"group_divergence\": " << s.group_divergence << ",\n"
       << "     \"join\": {\"events\": " << s.join_events
       << ", \"bytes\": " << s.join_bytes
       << ", \"snapshot_msgs\": " << s.join_snapshot_msgs
       << ", \"snapshot_bytes\": " << s.join_snapshot_bytes
       << ", \"divergence\": " << s.join_divergence << "},\n"
       << "     \"steady\": {\"events\": " << s.steady_events
       << ", \"viewsync_msgs\": " << s.viewsync_msgs
       << ", \"viewsync_bytes\": " << s.viewsync_bytes
       << ", \"total_bytes\": " << s.total_bytes
       << ", \"links\": " << links_per_tick(s, base)
       << ", \"bytes_per_link_tick\": "
       << format_double(s.bytes_per_link_tick())
       << ", \"view_changes\": " << s.steady_view_changes
       << ", \"repairs\": " << s.steady_repairs << "},\n"
       << "     \"directory\": {\"groups_created\": " << s.groups_created
       << ", \"digests_packed\": " << s.digests_packed
       << ", \"group_fulls\": " << s.group_fulls
       << ", \"group_diffs\": " << s.group_diffs << "},\n"
       << "     \"latency\": {\"dissemination\": ";
    write_latency_json(os, s.dissemination_latency);
    os << ", \"join_to_root\": ";
    write_latency_json(os, s.join_latency);
    os << "},\n"
       << "     \"view_changes\": " << s.view_changes << ",\n"
       << "     \"series_dropped\": " << s.series_dropped << ",\n"
       << "     \"series\": [";
    for (std::size_t j = 0; j < s.series.size(); ++j) {
      const obs::SeriesPoint& p = s.series[j];
      os << (j == 0 ? "\n" : ",\n")
         << "       {\"at_us\": " << p.at << ", \"events\": " << p.events
         << ", \"msgs\": " << p.msgs_sent << ", \"bytes\": " << p.bytes_sent
         << ", \"ops\": " << p.ops_disseminated
         << ", \"reconcile_rounds\": " << p.reconcile_rounds
         << ", \"view_changes\": " << p.view_changes
         << ", \"repairs\": " << p.repairs
         << ", \"divergence\": " << p.divergence << "}";
    }
    os << (s.series.empty() ? "" : "\n     ") << "],\n";
    // Deterministic handler-profile digest: invocation counts per kind.
    os << "     \"profile\": {\"handled_total\": " << s.profile.handled_total
       << ", \"handled\": {";
    for (std::size_t j = 0; j < s.profile.handled.size(); ++j) {
      os << (j == 0 ? "" : ", ") << "\"kind" << s.profile.handled[j].first
         << "\": " << s.profile.handled[j].second;
    }
    os << "}, \"spans_recorded\": " << s.spans_recorded
       << ", \"spans_dropped\": " << s.spans_dropped << "}}"
       << (i + 1 < stats.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (detect != nullptr) {
    os << ",\n  \"detect\": {\"failed_members\": " << detect->failed_members
       << ", \"crashed_nes\": " << detect->crashed_nes
       << ", \"view_changes\": " << detect->view_changes << ",\n"
       << "    \"member\": ";
    write_latency_json(os, detect->member_detection);
    os << ",\n    \"ne\": ";
    write_latency_json(os, detect->ne_detection);
    os << "}";
  }
  if (oscillation != nullptr && !oscillation->empty()) {
    os << ",\n  \"oscillation\": [";
    for (std::size_t i = 0; i < oscillation->size(); ++i) {
      const OscillationStats& o = (*oscillation)[i];
      os << (i == 0 ? "\n" : ",\n")
         << "    {\"stability\": " << (o.stability ? "true" : "false")
         << ", \"window_us\": " << o.window
         << ", \"churn_events\": " << o.churn_events
         << ", \"view_changes\": " << o.view_changes
         << ", \"repairs\": " << o.repairs << ", \"merges\": " << o.merges
         << ",\n     \"alerts\": " << o.alerts << ", \"cuts\": " << o.cuts
         << ", \"suppressed_flaps\": " << o.suppressed_flaps
         << ", \"fallbacks\": " << o.fallbacks
         << ", \"converged\": " << (o.converged ? "true" : "false") << "}";
    }
    os << "\n  ]";
  }
  os << "\n}\n";
}

void write_series_csv(const ScaleStats& stats, std::ostream& os) {
  os << "at_us,events,msgs,bytes,ops,reconcile_rounds,view_changes,repairs,"
        "divergence\n";
  for (const obs::SeriesPoint& p : stats.series) {
    os << p.at << ',' << p.events << ',' << p.msgs_sent << ','
       << p.bytes_sent << ',' << p.ops_disseminated << ','
       << p.reconcile_rounds << ',' << p.view_changes << ',' << p.repairs
       << ',';
    if (p.divergence >= 0) os << p.divergence;
    os << '\n';
  }
}

}  // namespace rgb::exp
