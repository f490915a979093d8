// bench_suite: the repository's fixed benchmark.
//
//   bench_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   bench_suite --smoke [--benchmark PATH]
//   bench_suite --catalog
//   bench_suite --workload churn_findings [--seed N]
//
// One workload per process, single-threaded, on the public API only. An
// untraced run reports the end-to-end metrics; `--trace 1` runs the
// workload a second time with the layer clock installed and reports the
// per-layer metrics. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is a
// "detail" object with sample counts and the workload-specific outcomes.
// Human-readable progress goes to stderr.
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace suite {
namespace {

constexpr int kSlices = 10;

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Cumulative program counters, read at the window's edges.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t src_crash = 0;  ///< send attempts of a crashed source
  std::uint64_t sync_msgs = 0;
  std::uint64_t sync_bytes = 0;
  std::uint64_t ops = 0;
  std::uint64_t mq_inserted = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t detections = 0;
  core::RgbMetrics rgb;
};

Counters read_counters(Deployment& d) {
  Counters c;
  const net::Network::Metrics& m = d.network.metrics();
  c.events = d.simulator.executed_events();
  c.msgs = m.sent;
  c.bytes = m.bytes_sent;
  c.drops = m.dropped_loss + m.dropped_crash + m.dropped_src_crash +
            m.dropped_partition + m.dropped_unattached;
  c.src_crash = m.dropped_src_crash;
  c.sync_msgs = m.sent_of(core::kind::kViewSync);
  c.sync_bytes = m.bytes_of(core::kind::kViewSync);
  c.ops = d.ops_issued;
  for (const NodeId id : d.system.all_nes()) {
    c.mq_inserted += d.system.entity(id)->directory().ops_inserted();
  }
  c.view_changes = d.system.obs().tracer.view_changes().value();
  c.detections = d.probe.detect_us.size();
  c.rgb = d.system.metrics();
  return c;
}

struct WindowRun {
  std::vector<double> cpu_s;     ///< thread CPU time per sim-time slice
  std::vector<double> slowdown;  ///< of the Reference passes around the slices
  std::vector<double> slices_s;  ///< cpu_s / mean slowdown around the slice
  double wall_s = 0.0;           ///< the slices' wall time
  sim::Duration length = 0;
  Counters before;
  Counters after;

  /// Ten times the median rescaled slice: robust to one slice slowed by a
  /// neighbour on a shared machine.
  [[nodiscard]] double window_s() const { return kSlices * median(slices_s); }
};

WindowRun run_window(Workload& w, Reference& reference) {
  Deployment& d = w.d();
  WindowRun run;
  const sim::Time start = d.simulator.now();
  run.length = w.start_window();
  run.before = read_counters(d);
  run.slowdown.push_back(reference.slowdown());
  for (int i = 1; i <= kSlices; ++i) {
    const std::uint64_t wall_start = wall_ns();
    const std::uint64_t t0 = cpu_ns();
    d.simulator.run_until(start + run.length * static_cast<sim::Duration>(i) /
                                      kSlices);
    run.cpu_s.push_back(static_cast<double>(cpu_ns() - t0) / 1e9);
    run.wall_s += static_cast<double>(wall_ns() - wall_start) / 1e9;
    run.slowdown.push_back(reference.slowdown());
    run.slices_s.push_back(run.cpu_s.back() * 2.0 /
                           (run.slowdown[i - 1] + run.slowdown[i]));
  }
  run.after = read_counters(d);
  return run;
}

/// A set-up workload instance plus the rescaled CPU time of every set-up.
struct Instance {
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
};

/// Sets the workload up `min_reps` times or more, while those set-ups took
/// under a second, but at most `max_reps` times, and keeps the last
/// instance; each earlier instance is torn down before the next is built,
/// so peak RSS is one instance's.
Instance set_up(const std::string& name, std::uint64_t seed, Scale scale,
                Reference& reference, std::size_t min_reps, std::size_t max_reps,
                std::size_t sample_ops) {
  Instance inst;
  double spent = 0.0;
  double before = reference.slowdown();
  while (inst.setup_s.size() < max_reps &&
         (inst.setup_s.size() < min_reps || spent < 1.0)) {
    inst.workload.reset();
    const std::uint64_t t0 = cpu_ns();
    inst.workload = make_workload(name, seed, scale);
    if (sample_ops > 0) inst.workload->d().probe.sample_ops(sample_ops, seed);
    inst.workload->setup();
    const double s = static_cast<double>(cpu_ns() - t0) / 1e9;
    const double after = reference.slowdown();
    inst.setup_s.push_back(s * 2.0 / (before + after));
    before = after;
    spent += s;
  }
  return inst;
}

void settle(Workload& w) {
  Deployment& d = w.d();
  w.end_window();
  d.simulator.run_until(d.simulator.now() + w.settle());
}

/// Wall seconds per unit of work: repeats `pass`, which does `units`
/// units, until at least 50 ms were spent.
template <typename Fn>
double seconds_per_unit(double units, Fn pass) {
  if (units <= 0.0) return 0.0;
  std::uint64_t passes = 0;
  const std::uint64_t start = wall_ns();
  std::uint64_t elapsed = 0;
  do {
    pass();
    ++passes;
    elapsed = wall_ns() - start;
  } while (elapsed < 50'000'000);
  return static_cast<double>(elapsed) / 1e9 /
         (static_cast<double>(passes) * units);
}

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

/// Timed calls into GroupDirectory, MemberTable and the codec on the
/// deployment's final state.
void time_structures(Deployment& d, std::map<std::string, double>& out) {
  std::vector<const core::GroupDirectory*> dirs;
  std::vector<const core::MemberTable*> tables;
  for (const NodeId id : d.system.all_nes()) {
    const core::GroupDirectory& dir = d.system.entity(id)->directory();
    dirs.push_back(&dir);
    for (const auto& [gid, state] : dir.groups()) tables.push_back(&state.table);
  }
  const auto n_dirs = static_cast<double>(dirs.size());
  out["dir.combined_digest_us"] = 1e6 * seconds_per_unit(n_dirs, [&] {
    for (const auto* dir : dirs) g_sink = g_sink + dir->combined_digest().hash;
  });
  out["dir.packed_digests_us"] = 1e6 * seconds_per_unit(n_dirs, [&] {
    for (const auto* dir : dirs) g_sink = g_sink + dir->packed_digests().size();
  });
  out["dir.export_all_ms"] = 1e3 * seconds_per_unit(n_dirs, [&] {
    for (const auto* dir : dirs) g_sink = g_sink + dir->export_all().size();
  });
  std::vector<std::pair<GroupId, Guid>> keys;
  for (const auto& [gid, members] : d.truth.groups()) {
    for (const auto& [guid, ap] : members) {
      if (keys.size() < 10'000) keys.emplace_back(gid, guid);
    }
  }
  out["dir.lookup_ns"] =
      1e9 * seconds_per_unit(static_cast<double>(keys.size()) * n_dirs, [&] {
        for (const auto& [gid, guid] : keys) {
          for (const auto* dir : dirs) {
            const auto entry = dir->lookup(gid, guid);
            g_sink = g_sink + (entry ? entry->last_seq : 0);
          }
        }
      });
  out["table.snapshot_us"] =
      1e6 * seconds_per_unit(static_cast<double>(tables.size()), [&] {
        for (const auto* table : tables) g_sink = g_sink + table->snapshot().size();
      });
  const std::vector<core::MembershipOp>& ops = d.probe.sampled_ops;
  out["table.apply_ns"] =
      1e9 * seconds_per_unit(static_cast<double>(ops.size()), [&] {
        core::MemberTable table;
        for (const auto& op : ops) g_sink = g_sink + table.apply(op);
      });

  // Codec replay of the sampled payloads: ns per encoded byte.
  const rgb::wire::WireRegistry& registry = rgb::wire::WireRegistry::global();
  std::vector<std::pair<const net::Envelope*, std::vector<std::uint8_t>>> frames;
  double frame_bytes = 0.0;
  for (const auto& samples : d.payload_samples) {
    for (const net::Envelope& env : samples.kept) {
      std::vector<std::uint8_t> bytes;
      if (!registry.encode(env.kind, env.payload, bytes)) continue;
      frame_bytes += static_cast<double>(bytes.size());
      frames.emplace_back(&env, std::move(bytes));
    }
  }
  std::vector<std::uint8_t> scratch;
  out["wire.encode_ns_per_b"] = 1e9 * seconds_per_unit(frame_bytes, [&] {
    for (const auto& [env, bytes] : frames) {
      scratch.clear();
      g_sink = g_sink + registry.encode(env->kind, env->payload, scratch);
    }
  });
  out["wire.decode_ns_per_b"] = 1e9 * seconds_per_unit(frame_bytes, [&] {
    for (const auto& [env, bytes] : frames) {
      g_sink = g_sink + registry.decode(bytes).ok();
    }
  });
}

struct Report {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;    ///< from the untraced instance
  std::map<std::string, double> layer;  ///< traced runs only
  std::map<std::string, double> outcomes;  ///< every kind; see outcomes_of
  std::string detail;                   ///< JSON object
  std::vector<std::string> problems;    ///< self-checks that failed
};

/// A percentile with its support: the sample count and whether at least
/// ten samples lie beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  bool supported = false;
};

Percentile percentile(std::vector<std::uint32_t> samples, double q) {
  Percentile p;
  p.n = samples.size();
  p.value = quantile_ms(samples, q);
  p.supported = p.n > 0 && (1.0 - q) * static_cast<double>(p.n) >= 10.0;
  return p;
}

/// Every percentile the suite reports, end-to-end and outcome alike.
std::map<std::string, Percentile> percentiles(const Deployment& d) {
  std::map<std::string, Percentile> p;
  p["join_p50_ms"] = percentile(d.probe.join_us, 0.50);
  p["join_p90_ms"] = percentile(d.probe.join_us, 0.90);
  p["join_p99_ms"] = percentile(d.probe.join_us, 0.99);
  p["dissem_p50_ms"] = percentile(d.probe.dissem_us, 0.50);
  p["dissem_p90_ms"] = percentile(d.probe.dissem_us, 0.90);
  p["dissem_p99_ms"] = percentile(d.probe.dissem_us, 0.99);
  p["detect_p50_ms"] = percentile(d.probe.detect_us, 0.50);
  p["detect_p99_ms"] = percentile(d.probe.detect_us, 0.99);
  p["query_p50_ms"] = percentile(d.query_us, 0.50);
  p["query_p99_ms"] = percentile(d.query_us, 0.99);
  return p;
}

/// The outcome values of every kind; a workload reports those the catalog
/// lists for it.
std::map<std::string, double> outcome_values(
    const Deployment& d, const WindowRun& win,
    const std::map<std::string, Percentile>& pct) {
  const Counters& a = win.after;
  const Counters& b = win.before;
  std::map<std::string, double> o;
  for (const auto& [name, p] : pct) o[name] = p.value;
  o["view_changes"] = static_cast<double>(a.view_changes - b.view_changes);
  o["stale_frac"] = ratio(static_cast<double>(d.queries_stale),
                          static_cast<double>(d.query_us.size()));
  o["bytes_per_op"] = ratio(static_cast<double>(a.bytes - b.bytes),
                            static_cast<double>(a.ops - b.ops));
  o["sync_b_per_link_tick"] =
      ratio(static_cast<double>(a.sync_bytes - b.sync_bytes),
            static_cast<double>(a.sync_msgs - b.sync_msgs));
  return o;
}

/// The outcomes the catalog lists for `workload`, with their bounds.
std::vector<std::pair<const Outcome*, double>> outcomes_of(const std::string& workload) {
  std::vector<std::pair<const Outcome*, double>> out;
  for (const Outcome& o : outcome_catalog()) {
    for (const auto& [name, bound] : o.bounds) {
      if (name == workload) out.emplace_back(&o, bound);
    }
  }
  return out;
}

/// The detail fields read off the window's deployment: percentiles with
/// their support, the workload's outcomes with their bounds, the counts
/// behind `attempted` and `failed`, and up to three wrong records.
std::string outcome_json(const std::string& name, const Deployment& d,
                         const WindowRun& win, std::size_t records,
                         const Verdict& verdict,
                         const std::map<std::string, Percentile>& pct,
                         const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << std::setprecision(10) << "\"members\": " << d.truth.size()
     << ", \"records\": " << records << ", \"percentiles\": {";
  bool first = true;
  for (const auto& [key, p] : pct) {
    if (p.n == 0) continue;
    os << (first ? "" : ", ") << "\"" << key << "\": {\"value\": " << p.value
       << ", \"n\": " << p.n
       << ", \"supported\": " << (p.supported ? "true" : "false") << "}";
    first = false;
  }
  os << "}, \"outcomes\": {";
  first = true;
  for (const auto& [o, bound] : outcomes_of(name)) {
    os << (first ? "" : ", ") << "\"" << o->name << "\": {\"value\": "
       << values.at(o->name) << ", \"unit\": \"" << o->unit
       << "\", \"better\": \"" << o->better << "\", \"bound\": " << bound << "}";
    first = false;
  }
  os << "}, \"counts\": {\"ops_issued\": " << d.ops_issued
     << ", \"window_ops\": " << win.after.ops - win.before.ops
     << ", \"queries_issued\": " << d.queries_issued
     << ", \"queries_failed\": " << d.queries_failed
     << ", \"queries_stale\": " << d.queries_stale
     << ", \"wrong_records\": " << verdict.wrong << "}, \"wrong_examples\": [";
  for (std::size_t i = 0; i < verdict.examples.size(); ++i) {
    const WrongRecord& r = verdict.examples[i];
    os << (i == 0 ? "" : ", ") << "{\"gid\": " << r.gid.value()
       << ", \"guid\": " << r.guid.value() << ", \"ne\": " << r.ne.value()
       << ", \"expected_ap\": "
       << (r.expected_ap.valid() ? std::to_string(r.expected_ap.value())
                                 : std::string("null"))
       << ", \"held\": ";
    if (r.held) {
      os << "{\"ap\": " << r.held->record.access_proxy.value()
         << ", \"status\": " << static_cast<int>(r.held->record.status)
         << ", \"claim_seq\": " << r.held->claim_seq
         << ", \"last_seq\": " << r.held->last_seq << "}";
    } else {
      os << "null";
    }
    os << "}";
  }
  os << "]";
  return os.str();
}

/// The detail object: the outcome fields, the rescaled set-up times, and
/// the window's slices with the Reference slowdowns that rescaled them.
std::string detail_json(const std::string& name, std::uint64_t seed,
                        const std::vector<double>& setup_s, const WindowRun& win,
                        const std::string& outcome) {
  std::ostringstream os;
  os << std::setprecision(10) << "{\"workload\": \"" << name
     << "\", \"seed\": " << seed
     << ", \"window_sim_s\": " << static_cast<double>(win.length) / 1e6
     << ", \"window_wall_s\": " << win.wall_s;
  for (const auto& [key, values] : {std::pair{"setup_s", &setup_s},
                                    std::pair{"slices_s", &win.slices_s},
                                    std::pair{"slices_cpu_s", &win.cpu_s},
                                    std::pair{"slowdown", &win.slowdown}}) {
    os << ", \"" << key << "\": [";
    for (std::size_t i = 0; i < values->size(); ++i) {
      os << (i == 0 ? "" : ", ") << (*values)[i];
    }
    os << "]";
  }
  os << ", " << outcome << "}";
  return os.str();
}

/// Per-layer metrics: a fresh instance of the same trajectory, with the
/// layer clock installed for the window only. A failed self-check goes to
/// `problems`.
std::map<std::string, double> measure_layers(const std::string& name,
                                             std::uint64_t seed, Scale scale,
                                             Reference& reference,
                                             double untraced_window_s,
                                             std::vector<std::string>& problems) {
  Instance inst = set_up(name, seed, scale, reference, 1, 1, 65'536);
  Workload& w = *inst.workload;
  Deployment& d = w.d();
  LayerClock clock;
  d.install_clock(clock);
  const WindowRun win = run_window(w, reference);
  d.remove_clock();
  settle(w);

  const Counters& a = win.after;
  const Counters& b = win.before;
  const double total_ns = win.wall_s * 1e9;
  const double window_ops = static_cast<double>(a.ops - b.ops);
  std::map<std::string, double> l;
  l["sim.events"] = static_cast<double>(a.events - b.events);
  l["sim.ev_per_s"] = ratio(l["sim.events"], untraced_window_s);
  l["sim.window_total_s"] = win.wall_s;
  l["net.msgs"] = static_cast<double>(a.msgs - b.msgs);
  l["net.bytes"] = static_cast<double>(a.bytes - b.bytes);
  l["net.drops"] = static_cast<double>(a.drops - b.drops);
  l["net.msgs_per_op"] = ratio(l["net.msgs"], window_ops);
  // The sizer sees every send of the window, a crashed source's included,
  // and nothing else.
  const std::uint64_t sends = a.msgs - b.msgs + a.src_crash - b.src_crash;
  if (clock.size_calls != sends) {
    problems.push_back(name + ": " + std::to_string(clock.size_calls) +
                       " sizer calls for " + std::to_string(sends) +
                       " sends in the window");
  }
  l["wire.size_calls"] = static_cast<double>(clock.size_calls);
  l["wire.size_s"] = static_cast<double>(clock.size_ns) / 1e9;

  std::array<bool, kKindSlots> named{};
  for (const NeKind& k : ne_kinds()) {
    const std::size_t slot = std::min<std::size_t>(k.kind, kKindSlots - 1);
    named[slot] = true;
    l[std::string("ne.") + k.name + ".n"] = static_cast<double>(clock.handled[slot]);
    l[std::string("ne.") + k.name + ".frac"] =
        ratio(static_cast<double>(clock.self_ns[slot]), total_ns);
  }
  std::uint64_t handler_ns = 0, other_n = 0, other_ns = 0;
  for (std::size_t slot = 0; slot < kKindSlots; ++slot) {
    handler_ns += clock.self_ns[slot];
    if (named[slot]) continue;
    other_n += clock.handled[slot];
    other_ns += clock.self_ns[slot];
  }
  l["ne.other.n"] = static_cast<double>(other_n);
  l["ne.other.frac"] = ratio(static_cast<double>(other_ns), total_ns);
  l["bench.gen_s"] = static_cast<double>(clock.gen_ns) / 1e9;
  // The remainder: event kernel, timer callbacks and facade calls.
  l["sim.timers_self_s"] =
      win.wall_s -
      static_cast<double>(handler_ns + clock.size_ns + clock.gen_ns) / 1e9;

  const auto delta = [&](const rgb::common::Counter core::RgbMetrics::*c) {
    return static_cast<double>((a.rgb.*c).value() - (b.rgb.*c).value());
  };
  using R = core::RgbMetrics;
  l["mq.ops_per_round"] = ratio(delta(&R::ops_disseminated), delta(&R::rounds_completed));
  l["mq.collapsed_frac"] = ratio(delta(&R::ops_aggregated),
                                 static_cast<double>(a.mq_inserted - b.mq_inserted));
  l["rgb.token_retx"] = delta(&R::token_retransmits);
  l["rgb.notify_retx"] = delta(&R::notify_retransmits);
  l["rgb.repairs"] = delta(&R::repairs);
  l["rgb.reconcile_rounds"] = delta(&R::reconcile_rounds);
  l["rgb.group_fulls"] = delta(&R::group_fulls_sent);
  l["rgb.group_diffs"] = delta(&R::group_diffs_sent);
  l["rgb.view_changes"] = static_cast<double>(a.view_changes - b.view_changes);
  l["rgb.detections"] = static_cast<double>(a.detections - b.detections);
  l["stability.alerts"] = delta(&R::stability_alerts);
  l["stability.cuts"] = delta(&R::stability_cuts);
  l["stability.suppressed_flaps"] = delta(&R::stability_suppressed_flaps);
  l["stability.fallbacks"] = delta(&R::stability_timeout_fallbacks);
  const double answered = static_cast<double>(d.query_us.size());
  l["query.completed"] = answered;
  l["query.msgs_per_query"] = ratio(static_cast<double>(d.query_msgs), answered);
  l["query.entries_per_reply"] = ratio(static_cast<double>(d.query_reply_entries),
                                       static_cast<double>(d.query_replies));
  l["query.stale_frac"] = ratio(static_cast<double>(d.queries_stale), answered);
  l["obs.trace_overhead_frac"] = ratio(win.window_s(), untraced_window_s) - 1.0;
  time_structures(d, l);

  std::cerr << "bench_suite: " << name << " traced window " << win.window_s()
            << " s (wall " << win.wall_s << " s): handlers "
            << static_cast<double>(handler_ns) / 1e9 << " s, sizer "
            << l["wire.size_s"] << " s, bench " << l["bench.gen_s"]
            << " s, timers+kernel " << l["sim.timers_self_s"] << " s\n";
  return l;
}

Report run_workload(const std::string& name, std::uint64_t seed, Scale scale,
                    bool traced) {
  Reference reference;
  Instance inst = set_up(name, seed, scale, reference, 2, scale.smoke ? 1 : 8, 0);
  Workload& w = *inst.workload;
  Deployment& d = w.d();
  const WindowRun win = run_window(w, reference);
  // Records held: every (group, member) record the fullest NE keeps,
  // departed members' records included.
  std::size_t records = 0;
  for (const NodeId id : d.system.all_nes()) {
    records = std::max(records, d.system.entity(id)->directory().total_size());
  }
  settle(w);
  const Verdict verdict = verify(d.system, d.network, d.truth);

  Report report;
  const std::map<std::string, Percentile> pct = percentiles(d);
  report.outcomes = outcome_values(d, win, pct);
  std::map<std::string, double>& m = report.e2e;
  m["window_s"] = win.window_s();
  m["rss_b_per_member"] =
      ratio(static_cast<double>(peak_rss_bytes() - reference.resident()),
            static_cast<double>(records));
  for (const char* key : {"join_p50_ms", "join_p90_ms", "dissem_p50_ms", "dissem_p90_ms"}) {
    m[key] = pct.at(key).value;
  }
  m["net_kB_per_s"] =
      ratio(static_cast<double>(win.after.bytes - win.before.bytes) / 1000.0,
            static_cast<double>(win.length) / 1e6);
  report.attempted = d.ops_issued + d.queries_issued;
  report.failed = verdict.wrong + d.queries_failed;
  report.correct = report.failed == 0;
  const std::string outcome =
      outcome_json(name, d, win, records, verdict, pct, report.outcomes);
  std::cerr << "bench_suite: " << name << " seed=" << seed << " window "
            << win.window_s() << " s (wall " << win.wall_s << " s), "
            << d.truth.size() << " members, wrong records " << verdict.wrong
            << ", failed queries " << d.queries_failed << "\n";

  // More set-ups once the window's instance is gone, so that setup_s
  // samples two stretches of the machine's state some seconds apart.
  std::vector<double> setup_s = std::move(inst.setup_s);
  inst.workload.reset();
  if (!scale.smoke) {
    const Instance more = set_up(name, seed, scale, reference, 1, 7, 0);
    setup_s.insert(setup_s.end(), more.setup_s.begin(), more.setup_s.end());
  }
  m["setup_s"] = median(setup_s);
  report.detail = detail_json(name, seed, setup_s, win, outcome);
  std::cerr << "bench_suite: " << name << " set up " << setup_s.size()
            << "x, median " << m["setup_s"] << " s\n";

  if (traced) {
    report.layer = measure_layers(name, seed, scale, reference, win.window_s(),
                                  report.problems);
  }
  return report;
}

/// The detail line, then the result line with `values` in catalog order.
void print_result(std::ostream& os, const Report& report,
                  const std::map<std::string, double>& values,
                  const std::vector<Metric>& catalog) {
  os << "{\"detail\": " << report.detail << ", \"exact\": [";
  bool first = true;
  for (const Metric& metric : catalog) {
    if (!metric.exact) continue;
    os << (first ? "" : ", ") << "\"" << metric.name << "\"";
    first = false;
  }
  os << "]}\n";
  os << std::setprecision(std::numeric_limits<double>::max_digits10)
     << "{\"correct\": " << (report.correct ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << catalog[i].name << "\": {\"value\": "
       << values.at(catalog[i].name) << ", \"unit\": \"" << catalog[i].unit
       << "\"}";
  }
  os << "}}" << std::endl;
}

/// Names of catalog metrics missing from `values` or not finite.
std::vector<std::string> catalog_gaps(const std::map<std::string, double>& values,
                                      const std::vector<Metric>& catalog) {
  std::vector<std::string> gaps;
  for (const Metric& metric : catalog) {
    const auto it = values.find(metric.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      gaps.push_back(metric.name);
    }
  }
  return gaps;
}

int smoke(const std::string& benchmark_path) {
  int status = 0;
  const std::uint64_t start = wall_ns();
  for (const WorkloadInfo& info : workload_catalog()) {
    // A traced run measures the workload untraced first, so one pass per
    // workload exercises every end-to-end and per-layer metric.
    const Report report = run_workload(info.name, 1, Scale{0.1, true}, true);
    for (const auto& [catalog, values] :
         {std::pair{&e2e_catalog(), &report.e2e},
          std::pair{&layer_catalog(), &report.layer}}) {
      for (const std::string& gap : catalog_gaps(*values, *catalog)) {
        std::cerr << "smoke: " << info.name << " missing metric " << gap << "\n";
        status = 1;
      }
    }
    for (const auto& [outcome, bound] : outcomes_of(info.name)) {
      const auto it = report.outcomes.find(outcome->name);
      if (it == report.outcomes.end() || !std::isfinite(it->second)) {
        std::cerr << "smoke: " << info.name << " missing outcome " << outcome->name
                  << "\n";
        status = 1;
      }
    }
    for (const std::string& problem : report.problems) {
      std::cerr << "smoke: " << problem << "\n";
      status = 1;
    }
    print_result(std::cout, report, report.e2e, e2e_catalog());
    print_result(std::cout, report, report.layer, layer_catalog());
    if (!report.correct) {
      std::cerr << "smoke: " << info.name << " failed " << report.failed
                << " of " << report.attempted << " operations\n";
      status = 1;
    }
  }
  std::ifstream in(benchmark_path, std::ios::binary);
  std::stringstream committed;
  committed << in.rdbuf();
  if (!in || committed.str() != benchmark_json()) {
    std::cerr << "smoke: " << benchmark_path
              << " drifted from the catalog (regenerate with bench_suite "
                 "--catalog)\n";
    status = 1;
  }
  std::cerr << "smoke: " << (status == 0 ? "ok" : "FAILED") << " in "
            << static_cast<double>(wall_ns() - start) / 1e9 << " s\n";
  return status;
}

int usage() {
  std::cerr << "usage: bench_suite --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "       bench_suite --smoke [--benchmark PATH]\n"
               "       bench_suite --catalog\n"
               "workloads:";
  for (const WorkloadInfo& info : workload_catalog()) std::cerr << " " << info.name;
  std::cerr << " (and " << kFindingsWorkload << ", outside the catalog)\n";
  return 2;
}

}  // namespace
}  // namespace suite

int main(int argc, char** argv) {
  using namespace suite;
  std::string workload;
  std::string benchmark = "BENCHMARK.json";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool run_smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--catalog") {
      std::cout << benchmark_json();
      return 0;
    } else if (arg == "--smoke") {
      run_smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      traced = std::string(argv[++i]) != "0";
    } else if (arg == "--benchmark" && has_value) {
      benchmark = argv[++i];
    } else {
      return usage();
    }
  }
  if (run_smoke) return smoke(benchmark);
  bool known = workload == kFindingsWorkload;
  for (const WorkloadInfo& info : workload_catalog()) known |= info.name == workload;
  if (!known || !(seconds > 0.0)) return usage();

  const Report report =
      run_workload(workload, seed, Scale{seconds / 10.0, false}, traced);
  const std::map<std::string, double>& values = traced ? report.layer : report.e2e;
  const std::vector<Metric>& catalog = traced ? layer_catalog() : e2e_catalog();
  const std::vector<std::string> gaps = catalog_gaps(values, catalog);
  for (const std::string& gap : gaps) {
    std::cerr << "bench_suite: metric " << gap << " not measured\n";
  }
  for (const std::string& problem : report.problems) {
    std::cerr << "bench_suite: self-check failed: " << problem << "\n";
  }
  if (!gaps.empty()) return 1;
  print_result(std::cout, report, values, catalog);
  return 0;
}
