// rgb_exp — list and run registered experiment scenarios on a worker pool,
// and run the timed scale bench that feeds the BENCH_*.json perf trajectory.
//
//   rgb_exp --list
//   rgb_exp run <scenario-id> [--threads N] [--trials N] [--seed S]
//                             [--csv PATH|-] [--json PATH|-] [--no-table]
//                             [--check]
//   rgb_exp bench [--members N[,N...]] [--join dissem|snapshot|both]
//                 [--tiers H] [--ring R] [--steady-ticks K] [--seed S]
//                 [--warmup-ticks K] [--join-spacing US] [--shards W]
//                 [--json PATH|-] [--smoke] [--series PATH|-] [--detect]
//                 [--deterministic] [--spans-ab]
//   rgb_exp trace [--members N] [--tiers H] [--ring R] [--shards W]
//                 [--seed S] [--steady-ticks K] [--warmup-ticks K]
//                 [--out PATH|-]
//   rgb_exp metrics --catalog
//
// Aggregate output of `run` (table / CSV / JSON on stdout) is a pure
// function of (scenario, seed, trials): byte-identical for any --threads
// value — the --check violation report included. Timing and pool
// diagnostics go to stderr. `bench` is single-threaded and additionally
// reports host-dependent wall-clock/RSS numbers; its protocol metrics
// (events, kViewSync messages/bytes, convergence) are deterministic. See
// EXPERIMENTS.md for the catalogue, the invariant suite and the BENCH
// schema.
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "exp/exp.hpp"
#include "obs/catalog.hpp"

namespace {

/// Shared strict argument helpers for both the `run` and `bench` parsers.
/// `next_arg` consumes the value of a flag or exits; `next_arg_u64`
/// additionally enforces a strict numeric parse — a typo like "2OO" must
/// error, not silently parse to 0 (which the option structs read as "use
/// the default"), and strtoull's silent negative wrap is rejected too.
const char* next_arg(int argc, char** argv, int& i, const std::string& flag) {
  if (i + 1 >= argc) {
    std::cerr << "rgb_exp: " << flag << " needs a value\n";
    std::exit(2);
  }
  return argv[++i];
}

std::uint64_t next_arg_u64(int argc, char** argv, int& i,
                           const std::string& flag) {
  const char* text = next_arg(argc, argv, i, flag);
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0' || text[0] == '-') {
    std::cerr << "rgb_exp: " << flag << " needs a number, got '" << text
              << "'\n";
    std::exit(2);
  }
  return value;
}

/// A ring size or tier count: a zero topology has no NE to build, so it is
/// a usage error, not a trial.
int next_arg_count(int argc, char** argv, int& i, const std::string& flag) {
  const std::uint64_t value = next_arg_u64(argc, argv, i, flag);
  if (value < 1 || value > INT_MAX) {
    std::cerr << "rgb_exp: " << flag << " must be in [1, " << INT_MAX
              << "], got " << value << '\n';
    std::exit(2);
  }
  return static_cast<int>(value);
}

int usage(const char* argv0, int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: " << argv0 << " --list\n"
     << "       " << argv0 << " run <scenario-id> [options]\n"
     << "       " << argv0 << " bench [bench options]\n"
     << "       " << argv0 << " trace [trace options]\n"
     << "       " << argv0 << " metrics --catalog\n"
     << "run options:\n"
     << "  --threads N    worker threads (default: hardware concurrency)\n"
     << "  --trials N     override trials per cell (default: scenario's)\n"
     << "  --seed S       base seed (default: 0xE5EED)\n"
     << "  --csv PATH     write CSV ('-' for stdout)\n"
     << "  --json PATH    write JSON ('-' for stdout)\n"
     << "  --no-table     suppress the default table on stdout\n"
     << "  --check        run the invariant-oracle suite over every trial;\n"
     << "                 exit 1 when any scenario invariant is violated\n"
     << "bench options:\n"
     << "  --members LIST comma-separated member counts\n"
     << "                 (default: 1000,10000,100000)\n"
     << "  --join J       dissem | snapshot | both (default: dissem)\n"
     << "  --tiers H      ring tiers (default 2)\n"
     << "  --ring R       ring size (default 5)\n"
     << "  --steady-ticks K  probe ticks in the steady window (default 10)\n"
     << "  --warmup-ticks K  probe ticks of pre-window warm-up (default 10)\n"
     << "  --join-spacing US virtual us between member arrivals (default 500)\n"
     << "  --shards W     sharded trial: one logical shard per tier-0\n"
     << "                 region, W worker threads on the windows; the\n"
     << "                 deterministic output is identical for any W >= 1\n"
     << "  --seed S       trial seed (default 0xBE7C4)\n"
     << "  --json PATH    write the BENCH json artifact ('-' for stdout)\n"
     << "  --smoke        bounded CI profile (members=200, both join modes)\n"
     << "  --series PATH  write the first cell's tick series as CSV\n"
     << "                 ('-' for stdout)\n"
     << "  --detect       append the failure-detection latency micro-trial\n"
     << "  --oscillation  append the stability A/B flap-suppression cells\n"
     << "                 (churn + loss window, stability off vs on)\n"
     << "  --deterministic  zero the wall-clock fields: the JSON becomes a\n"
     << "                 pure function of (config, seed) — the CI\n"
     << "                 byte-identity gate\n"
     << "  --spans-ab     run every cell twice, causal spans off then on,\n"
     << "                 so the JSON carries the span overhead A/B\n"
     << "  --multigroup   run the multi-group serving cell instead of the\n"
     << "                 scale sweep: G groups x M members on ONE shared\n"
     << "                 hierarchy, measuring steady-state kViewSync bytes\n"
     << "                 per link per tick as G grows (defaults: ring 3,\n"
     << "                 join spacing 200us, groups 1,10,100,1000;\n"
     << "                 --smoke bounds it to groups 1,8)\n"
     << "  --groups LIST  comma-separated group counts (with --multigroup)\n"
     << "  --group-members M  members per group (default 100)\n"
     << "trace options (causal-span Chrome trace export; spans forced on,\n"
     << "untimed, byte-identical for any --shards W >= 1; --shards 0, the\n"
     << "default, runs the serial trial, whose trace differs):\n"
     << "  --members N    members to join (default 2000)\n"
     << "  --tiers H / --ring R / --shards W / --seed S  as for bench\n"
     << "  --steady-ticks K / --warmup-ticks K           as for bench\n"
     << "  --out PATH     trace JSON destination (default '-': stdout);\n"
     << "                 load it in Perfetto or chrome://tracing\n"
     << "metrics options:\n"
     << "  --catalog      print every exported metric: name, type and\n"
     << "                 one-line description\n";
  return code;
}

int run_trace(int argc, char** argv) {
  rgb::exp::ScaleConfig config;
  config.members = 2000;
  std::string out_path = "-";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() { return next_arg(argc, argv, i, arg); };
    const auto next_u64 = [&]() { return next_arg_u64(argc, argv, i, arg); };
    if (arg == "--members") {
      config.members = next_u64();
    } else if (arg == "--tiers") {
      config.tiers = next_arg_count(argc, argv, i, arg);
    } else if (arg == "--ring") {
      config.ring_size = next_arg_count(argc, argv, i, arg);
    } else if (arg == "--shards") {
      config.shard_workers = static_cast<unsigned>(next_u64());
    } else if (arg == "--seed") {
      config.seed = next_u64();
    } else if (arg == "--steady-ticks") {
      config.steady_ticks = static_cast<int>(next_u64());
    } else if (arg == "--warmup-ticks") {
      config.warmup_ticks = static_cast<int>(next_u64());
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::cerr << "rgb_exp: unknown trace option '" << arg << "'\n";
      return usage(argv[0], 2);
    }
  }
  const auto run = [&config](std::ostream& os) {
    const rgb::exp::ScaleStats stats = rgb::exp::run_trace_trial(config, os);
    std::cerr << "trace: " << stats.spans_recorded << " span(s) ("
              << stats.spans_dropped << " dropped), converged="
              << (stats.converged ? "yes" : "NO") << '\n';
    return stats.converged;
  };
  if (out_path == "-") return run(std::cout) ? 0 : 1;
  std::ofstream file{out_path};
  if (!file) {
    std::cerr << "rgb_exp: cannot open '" << out_path << "' for writing\n";
    return 1;
  }
  const bool ok = run(file);
  std::cerr << "wrote " << out_path << '\n';
  return ok ? 0 : 1;
}

int run_metrics(int argc, char** argv) {
  bool catalog = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--catalog") {
      catalog = true;
    } else {
      std::cerr << "rgb_exp: unknown metrics option '" << arg << "'\n";
      return usage(argv[0], 2);
    }
  }
  if (!catalog) {
    std::cerr << "rgb_exp: metrics needs --catalog\n";
    return usage(argv[0], 2);
  }
  rgb::obs::write_catalog(std::cout);
  return 0;
}

int run_bench(int argc, char** argv) {
  rgb::exp::ScaleConfig base;
  std::vector<std::uint64_t> member_counts;
  rgb::exp::SweepModes modes;
  modes.snapshot = false;  // default: the paper's dissemination join only
  bool join_flag_seen = false;
  bool smoke = false;
  bool detect = false;
  bool oscillation = false;
  bool deterministic = false;
  std::string json_path;
  std::string series_path;
  // Multi-group cell (bench.multigroup): G x M sweep measuring steady-state
  // kViewSync bytes per link per tick as the group count grows. Flags shared
  // with the scale sweep (--tiers, --ring, ...) apply to it only when given
  // explicitly, because the two cells have different defaults.
  bool multigroup = false;
  std::vector<std::uint64_t> group_counts;
  std::uint64_t group_members = 0;
  bool saw_tiers = false, saw_ring = false, saw_steady = false;
  bool saw_warmup = false, saw_spacing = false, saw_shards = false;
  bool saw_seed = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() { return next_arg(argc, argv, i, arg); };
    const auto next_u64 = [&]() { return next_arg_u64(argc, argv, i, arg); };
    if (arg == "--members") {
      member_counts.clear();
      std::stringstream list{next()};
      std::string item;
      while (std::getline(list, item, ',')) {
        char* end = nullptr;
        const std::uint64_t value = std::strtoull(item.c_str(), &end, 0);
        if (end == item.c_str() || *end != '\0' || value == 0) {
          std::cerr << "rgb_exp: bad member count '" << item << "'\n";
          return 2;
        }
        member_counts.push_back(value);
      }
      if (member_counts.empty()) {
        std::cerr << "rgb_exp: --members needs at least one count\n";
        return 2;
      }
    } else if (arg == "--join") {
      join_flag_seen = true;
      const std::string join = next();
      modes.dissemination = join == "dissem" || join == "both";
      modes.snapshot = join == "snapshot" || join == "both";
      if (!modes.dissemination && !modes.snapshot) {
        std::cerr << "rgb_exp: --join must be dissem, snapshot or both\n";
        return 2;
      }
    } else if (arg == "--multigroup") {
      multigroup = true;
    } else if (arg == "--groups") {
      group_counts.clear();
      std::stringstream list{next()};
      std::string item;
      while (std::getline(list, item, ',')) {
        char* end = nullptr;
        const std::uint64_t value = std::strtoull(item.c_str(), &end, 0);
        if (end == item.c_str() || *end != '\0' || value == 0) {
          std::cerr << "rgb_exp: bad group count '" << item << "'\n";
          return 2;
        }
        group_counts.push_back(value);
      }
      if (group_counts.empty()) {
        std::cerr << "rgb_exp: --groups needs at least one count\n";
        return 2;
      }
    } else if (arg == "--group-members") {
      group_members = next_u64();
      if (group_members == 0) {
        std::cerr << "rgb_exp: --group-members must be positive\n";
        return 2;
      }
    } else if (arg == "--tiers") {
      base.tiers = next_arg_count(argc, argv, i, arg);
      saw_tiers = true;
    } else if (arg == "--ring") {
      base.ring_size = next_arg_count(argc, argv, i, arg);
      saw_ring = true;
    } else if (arg == "--steady-ticks") {
      base.steady_ticks = static_cast<int>(next_u64());
      saw_steady = true;
    } else if (arg == "--warmup-ticks") {
      base.warmup_ticks = static_cast<int>(next_u64());
      saw_warmup = true;
    } else if (arg == "--join-spacing") {
      base.join_spacing = next_u64();
      saw_spacing = true;
    } else if (arg == "--shards") {
      base.shard_workers = static_cast<unsigned>(next_u64());
      saw_shards = true;
    } else if (arg == "--seed") {
      base.seed = next_u64();
      saw_seed = true;
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--series") {
      series_path = next();
    } else if (arg == "--detect") {
      detect = true;
    } else if (arg == "--oscillation") {
      oscillation = true;
    } else if (arg == "--deterministic") {
      deterministic = true;
    } else if (arg == "--spans-ab") {
      modes.spans_ab = true;
    } else {
      std::cerr << "rgb_exp: unknown bench option '" << arg << "'\n";
      return usage(argv[0], 2);
    }
  }
  if (!multigroup && (!group_counts.empty() || group_members != 0)) {
    std::cerr << "rgb_exp: --groups/--group-members need --multigroup\n";
    return 2;
  }
  if (multigroup) {
    rgb::exp::MultigroupConfig mg;
    if (saw_tiers) mg.tiers = base.tiers;
    if (saw_ring) mg.ring_size = base.ring_size;
    if (saw_steady) mg.steady_ticks = base.steady_ticks;
    if (saw_warmup) mg.warmup_ticks = base.warmup_ticks;
    if (saw_spacing) mg.join_spacing = base.join_spacing;
    if (saw_shards) mg.shard_workers = base.shard_workers;
    if (saw_seed) mg.seed = base.seed;
    if (group_members != 0) mg.members_per_group = group_members;
    if (group_counts.empty()) {
      group_counts = smoke ? std::vector<std::uint64_t>{1, 8}
                           : std::vector<std::uint64_t>{1, 10, 100, 1000};
    }
    const std::vector<rgb::exp::MultigroupStats> cells =
        rgb::exp::run_multigroup_sweep(mg, group_counts, std::cerr,
                                       /*timed=*/!deterministic);
    if (!json_path.empty()) {
      if (json_path == "-") {
        rgb::exp::write_multigroup_json(mg, cells, std::cout);
      } else {
        std::ofstream file{json_path};
        if (!file) {
          std::cerr << "rgb_exp: cannot open '" << json_path
                    << "' for writing\n";
          return 1;
        }
        rgb::exp::write_multigroup_json(mg, cells, file);
        std::cerr << "wrote " << json_path << '\n';
      }
    }
    return rgb::exp::all_multigroup_clean(cells) ? 0 : 1;
  }
  // --smoke bounds the sweep; explicit --members / --join override it (in
  // any argument order), so the flags never silently fight. Absent an
  // explicit --join, the smoke profile covers both join modes so CI keeps
  // a point on the snapshot-join trajectory too.
  if (member_counts.empty()) {
    member_counts = smoke ? std::vector<std::uint64_t>{200}
                          : std::vector<std::uint64_t>{1000, 10000, 100000};
  }
  if (smoke && !join_flag_seen) modes.snapshot = true;

  const std::vector<rgb::exp::ScaleStats> all =
      rgb::exp::run_scale_sweep(base, member_counts, modes, std::cerr,
                                /*timed=*/!deterministic);
  rgb::exp::DetectStats detect_stats;
  if (detect) detect_stats = rgb::exp::run_detect_trial();
  std::vector<rgb::exp::OscillationStats> oscillation_stats;
  if (oscillation) {
    for (const bool with_stability : {false, true}) {
      const auto o = rgb::exp::run_oscillation_cell(with_stability);
      std::cerr << "oscillation: stability="
                << (with_stability ? "on" : "off") << " view_changes="
                << o.view_changes << " repairs=" << o.repairs
                << " suppressed_flaps=" << o.suppressed_flaps
                << " fallbacks=" << o.fallbacks
                << " converged=" << (o.converged ? "yes" : "NO") << '\n';
      oscillation_stats.push_back(o);
    }
  }

  if (!json_path.empty()) {
    const rgb::exp::DetectStats* dp = detect ? &detect_stats : nullptr;
    const std::vector<rgb::exp::OscillationStats>* op =
        oscillation ? &oscillation_stats : nullptr;
    if (json_path == "-") {
      rgb::exp::write_bench_json(base, all, std::cout, dp, op);
    } else {
      std::ofstream file{json_path};
      if (!file) {
        std::cerr << "rgb_exp: cannot open '" << json_path
                  << "' for writing\n";
        return 1;
      }
      rgb::exp::write_bench_json(base, all, file, dp, op);
      std::cerr << "wrote " << json_path << '\n';
    }
  }
  if (!series_path.empty() && !all.empty()) {
    if (series_path == "-") {
      rgb::exp::write_series_csv(all.front(), std::cout);
    } else {
      std::ofstream file{series_path};
      if (!file) {
        std::cerr << "rgb_exp: cannot open '" << series_path
                  << "' for writing\n";
        return 1;
      }
      rgb::exp::write_series_csv(all.front(), file);
      std::cerr << "wrote " << series_path << '\n';
    }
  }
  return rgb::exp::all_converged(all) ? 0 : 1;
}

int list_scenarios() {
  const auto& registry = rgb::exp::builtin_scenarios();
  for (const rgb::exp::Scenario* s : registry.all()) {
    std::cout << s->id << "\n    " << s->title << "\n    [" << s->paper_ref
              << "] " << s->cells.size() << " cells x " << s->trials_per_cell
              << " trials\n";
  }
  return 0;
}

bool write_to(const std::string& path, const rgb::exp::RunResult& result,
              void (*writer)(const rgb::exp::RunResult&, std::ostream&)) {
  if (path == "-") {
    writer(result, std::cout);
    return true;
  }
  std::ofstream file{path};
  if (!file) {
    std::cerr << "rgb_exp: cannot open '" << path << "' for writing\n";
    return false;
  }
  writer(result, file);
  std::cerr << "wrote " << path << '\n';
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0], 2);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") return usage(argv[0], 0);
  if (command == "--list" || command == "list") return list_scenarios();
  if (command == "bench") return run_bench(argc, argv);
  if (command == "trace") return run_trace(argc, argv);
  if (command == "metrics") return run_metrics(argc, argv);
  if (command != "run") {
    std::cerr << "rgb_exp: unknown command '" << command << "'\n";
    return usage(argv[0], 2);
  }
  if (argc < 3) return usage(argv[0], 2);
  const std::string id = argv[2];

  rgb::exp::RunnerOptions options;
  std::string csv_path, json_path;
  bool print_table = true;
  bool check_mode = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() { return next_arg(argc, argv, i, arg); };
    const auto next_u64 = [&]() { return next_arg_u64(argc, argv, i, arg); };
    if (arg == "--threads") {
      options.threads = static_cast<unsigned>(next_u64());
    } else if (arg == "--trials") {
      options.trials_override = next_u64();
    } else if (arg == "--seed") {
      options.base_seed = next_u64();
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--no-table") {
      print_table = false;
    } else if (arg == "--check") {
      check_mode = true;
    } else {
      std::cerr << "rgb_exp: unknown option '" << arg << "'\n";
      return usage(argv[0], 2);
    }
  }

  const rgb::exp::Scenario* scenario = rgb::exp::builtin_scenarios().find(id);
  if (scenario == nullptr) {
    std::cerr << "rgb_exp: no scenario '" << id
              << "' (try: " << argv[0] << " --list)\n";
    return 1;
  }

  // The observer outlives the runner; trials feed it their system models.
  std::unique_ptr<rgb::check::CheckObserver> checker;
  if (check_mode) {
    checker = std::make_unique<rgb::check::CheckObserver>(scenario->check_mask);
    options.observer = checker.get();
  }

  const rgb::exp::TrialRunner runner{options};
  const rgb::exp::RunResult result = runner.run(*scenario);

  if (print_table) {
    std::cout << "=== " << scenario->id << " — " << scenario->title << " ["
              << scenario->paper_ref << "] ===\n";
    rgb::exp::to_table(result).print(std::cout);
  }
  if (!csv_path.empty() && !write_to(csv_path, result, rgb::exp::write_csv)) {
    return 1;
  }
  if (!json_path.empty() &&
      !write_to(json_path, result, rgb::exp::write_json)) {
    return 1;
  }
  std::cerr << result.total_trials << " trials on " << result.threads_used
            << " thread(s) in " << result.wall_ms << " ms\n";

  if (checker != nullptr) {
    const rgb::check::CheckReport report = checker->report();
    std::cout << "check: " << report.size() << " violation(s) over "
              << checker->trials_checked() << " checked trial session(s)\n";
    if (!report.passed()) {
      report.print(std::cout);
      return 1;
    }
  }
  return 0;
}
