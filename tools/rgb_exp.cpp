// rgb_exp — list and run registered experiment scenarios on a worker pool,
// and run the deterministic scale and multi-group bench sweep.
//
//   rgb_exp --list
//   rgb_exp run <scenario-id> [--threads N] [--trials N] [--seed S]
//                             [--csv PATH|-] [--json PATH|-] [--no-table]
//                             [--check]
//   rgb_exp bench [--members N[,N...]] [--join dissem|snapshot|both]
//                 [--tiers H] [--ring R] [--steady-ticks K] [--seed S]
//                 [--warmup-ticks K] [--join-spacing US] [--json PATH|-]
//                 [--smoke] [--series PATH|-] [--detect] [--oscillation]
//                 [--multigroup [--groups G[,G...]] [--group-members M]]
//                 (--multigroup rejects --members, --join, --detect and
//                 --oscillation)
//   rgb_exp trace [--members N] [--tiers H] [--ring R] [--seed S]
//                 [--steady-ticks K] [--warmup-ticks K] [--out PATH|-]
//   rgb_exp metrics --catalog
//
// Every number is decimal digits: no sign, no space, no 0x prefix, and a
// value out of its flag's range is a usage error (exit 2). `--help` after a
// command prints that command's options.
//
// Aggregate output of `run` (table / CSV / JSON on stdout) is a pure
// function of (scenario, seed, trials): byte-identical for any --threads
// value — the --check violation report included. Timing and pool
// diagnostics go to stderr. `bench` and `trace` are single-threaded, and
// everything they write is a pure function of their flags and seed. See
// EXPERIMENTS.md for the catalogue, the invariant suite and the bench
// JSON schema.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "common/parse.hpp"
#include "exp/exp.hpp"
#include "obs/catalog.hpp"

namespace {

/// Shared strict argument helpers for the command parsers. `next_arg`
/// consumes the value of a flag or exits; `next_arg_u64` additionally
/// enforces a strict decimal parse (common::parse_u64) — a typo like "2OO",
/// a sign or an overflow must error, not run some other number.
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
  const std::optional<std::uint64_t> value = rgb::common::parse_u64(text);
  if (!value) {
    std::cerr << "rgb_exp: " << flag << " needs a decimal number, got '"
              << text << "'\n";
    std::exit(2);
  }
  return *value;
}

/// A flag whose value must lie in [lo, hi] (by default the whole of T), as
/// T: a value outside it is a usage error, never a silent narrowing.
template <typename T>
T next_arg_in(int argc, char** argv, int& i, const std::string& flag,
              std::uint64_t lo = 0,
              std::uint64_t hi = std::numeric_limits<T>::max()) {
  const std::uint64_t value = next_arg_u64(argc, argv, i, flag);
  if (value < lo || value > hi) {
    std::cerr << "rgb_exp: " << flag << " must be in [" << lo << ", " << hi
              << "], got " << value << '\n';
    std::exit(2);
  }
  return static_cast<T>(value);
}

/// A comma-separated list of positive counts, e.g. `--members 1000,10000`.
std::vector<std::uint64_t> next_arg_counts(int argc, char** argv, int& i,
                                           const std::string& flag) {
  std::stringstream list{next_arg(argc, argv, i, flag)};
  std::vector<std::uint64_t> counts;
  for (std::string item; std::getline(list, item, ',');) {
    const std::optional<std::uint64_t> value = rgb::common::parse_u64(item);
    if (!value || *value == 0) {
      std::cerr << "rgb_exp: " << flag << " needs positive decimal counts, "
                << "got '" << item << "'\n";
      std::exit(2);
    }
    counts.push_back(*value);
  }
  if (counts.empty()) {
    std::cerr << "rgb_exp: " << flag << " needs at least one count\n";
    std::exit(2);
  }
  return counts;
}

bool is_help(const std::string& arg) { return arg == "--help" || arg == "-h"; }

/// Hands `write` the stream for `path` ('-' is stdout); false when the file
/// cannot be opened.
template <typename Write>
bool write_to(const std::string& path, const Write& write) {
  if (path == "-") {
    write(std::cout);
    return true;
  }
  std::ofstream file{path};
  if (!file) {
    std::cerr << "rgb_exp: cannot open '" << path << "' for writing\n";
    return false;
  }
  write(file);
  std::cerr << "wrote " << path << '\n';
  return true;
}

/// Prints the synopsis and the options of `command`, or of every command
/// when it is empty.
int usage(const char* argv0, int code, const std::string& command = "") {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  const auto shows = [&command](const char* name) {
    return command.empty() || command == name;
  };
  os << "usage: " << argv0 << " --list\n"
     << "       " << argv0 << " run <scenario-id> [options]\n"
     << "       " << argv0 << " bench [bench options]\n"
     << "       " << argv0 << " trace [trace options]\n"
     << "       " << argv0 << " metrics --catalog\n"
     << "Numbers are decimal digits (no sign, no 0x prefix). --help after a\n"
     << "command prints its options.\n";
  if (shows("run")) {
    os << "run options:\n"
       << "  --threads N    worker threads (default: hardware concurrency)\n"
       << "  --trials N     override trials per cell (default: scenario's)\n"
       << "  --seed S       base seed (default: 941805 = 0xE5EED)\n"
       << "  --csv PATH     write CSV ('-' for stdout)\n"
       << "  --json PATH    write JSON ('-' for stdout)\n"
       << "  --no-table     suppress the default table on stdout\n"
       << "  --check        run the invariant-oracle suite over every trial;\n"
       << "                 exit 1 when any scenario invariant is violated\n";
  }
  if (shows("bench")) {
    os << "bench options:\n"
       << "  --members LIST comma-separated member counts\n"
       << "                 (default: 1000,10000,100000)\n"
       << "  --join J       dissem | snapshot | both (default: dissem)\n"
       << "  --tiers H      ring tiers (default 2)\n"
       << "  --ring R       ring size (default 5)\n"
       << "  --steady-ticks K  probe ticks in the steady window (default 10)\n"
       << "  --warmup-ticks K  probe ticks of pre-window warm-up (default 10)\n"
       << "  --join-spacing US  virtual us between member arrivals\n"
       << "                 (default 500)\n"
       << "  --seed S       trial seed (default 780228 = 0xBE7C4)\n"
       << "  --json PATH    write the bench JSON artifact ('-' for stdout);\n"
       << "                 a pure function of the flags and seed\n"
       << "  --smoke        bounded CI profile (members=200, both join modes)\n"
       << "  --series PATH  write the first cell's tick series as CSV\n"
       << "                 ('-' for stdout)\n"
       << "  --detect       append the failure-detection latency micro-trial\n"
       << "  --oscillation  append the stability A/B flap-suppression cells\n"
       << "                 (churn + loss window, stability off vs on)\n"
       << "  --multigroup   run the multi-group serving cell instead of the\n"
       << "                 scale sweep: G groups x M members on ONE shared\n"
       << "                 hierarchy, measuring steady-state kViewSync bytes\n"
       << "                 per link per tick as G grows (defaults: ring 3,\n"
       << "                 join spacing 200us, seed 158010869 = 0x96B0DF5,\n"
       << "                 groups 1,10,100,1000; --smoke bounds it to\n"
       << "                 groups 1,8). --members, --join, --detect and\n"
       << "                 --oscillation do not apply to it (exit 2);\n"
       << "                 every other bench option does, and --series\n"
       << "                 writes its first cell's series\n"
       << "  --groups LIST  comma-separated group counts (with --multigroup)\n"
       << "  --group-members M  members per group (default 100)\n";
  }
  if (shows("trace")) {
    os << "trace options (causal-span Chrome trace export; spans on):\n"
       << "  --members N    members to join (default 2000)\n"
       << "  --tiers H / --ring R / --seed S      as for bench\n"
       << "  --steady-ticks K / --warmup-ticks K  as for bench\n"
       << "  --out PATH     trace JSON destination (default '-': stdout);\n"
       << "                 load it in Perfetto or chrome://tracing\n";
  }
  if (shows("metrics")) {
    os << "metrics options:\n"
       << "  --catalog      print every exported metric: name, type and\n"
       << "                 one-line description\n";
  }
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
    if (is_help(arg)) return usage(argv[0], 0, "trace");
    if (arg == "--members") {
      config.members = next_u64();
    } else if (arg == "--tiers") {
      // A zero topology has no NE to build: a usage error, not a trial.
      config.tiers = next_arg_in<int>(argc, argv, i, arg, 1);
    } else if (arg == "--ring") {
      config.ring_size = next_arg_in<int>(argc, argv, i, arg, 1);
    } else if (arg == "--seed") {
      config.seed = next_u64();
    } else if (arg == "--steady-ticks") {
      config.steady_ticks = next_arg_in<int>(argc, argv, i, arg);
    } else if (arg == "--warmup-ticks") {
      config.warmup_ticks = next_arg_in<int>(argc, argv, i, arg);
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::cerr << "rgb_exp: unknown trace option '" << arg << "'\n";
      return usage(argv[0], 2);
    }
  }
  bool converged = false;
  const bool written = write_to(out_path, [&](std::ostream& os) {
    const rgb::exp::ScaleStats stats = rgb::exp::run_trace_trial(config, os);
    std::cerr << "trace: " << stats.spans_recorded << " span(s) ("
              << stats.spans_dropped << " dropped), converged="
              << (stats.converged ? "yes" : "NO") << '\n';
    converged = stats.converged;
  });
  return written && converged ? 0 : 1;
}

int run_metrics(int argc, char** argv) {
  bool catalog = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (is_help(arg)) return usage(argv[0], 0, "metrics");
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
  std::string json_path;
  std::string series_path;
  // Multi-group cell (bench.multigroup): G x M sweep measuring steady-state
  // kViewSync bytes per link per tick as the group count grows. Its shape
  // differs from the scale sweep's in three defaults, which an explicit
  // flag overrides in any argument order.
  bool multigroup = false;
  std::vector<std::uint64_t> group_counts;
  std::uint64_t group_members = 0;
  bool saw_ring = false, saw_spacing = false, saw_seed = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() { return next_arg(argc, argv, i, arg); };
    const auto next_u64 = [&]() { return next_arg_u64(argc, argv, i, arg); };
    if (is_help(arg)) return usage(argv[0], 0, "bench");
    if (arg == "--members") {
      member_counts = next_arg_counts(argc, argv, i, arg);
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
      group_counts = next_arg_counts(argc, argv, i, arg);
    } else if (arg == "--group-members") {
      group_members = next_arg_in<std::uint64_t>(argc, argv, i, arg, 1);
    } else if (arg == "--tiers") {
      base.tiers = next_arg_in<int>(argc, argv, i, arg, 1);
    } else if (arg == "--ring") {
      base.ring_size = next_arg_in<int>(argc, argv, i, arg, 1);
      saw_ring = true;
    } else if (arg == "--steady-ticks") {
      base.steady_ticks = next_arg_in<int>(argc, argv, i, arg);
    } else if (arg == "--warmup-ticks") {
      base.warmup_ticks = next_arg_in<int>(argc, argv, i, arg);
    } else if (arg == "--join-spacing") {
      base.join_spacing = next_u64();
      saw_spacing = true;
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
    } else {
      std::cerr << "rgb_exp: unknown bench option '" << arg << "'\n";
      return usage(argv[0], 2);
    }
  }
  if (!multigroup && (!group_counts.empty() || group_members != 0)) {
    std::cerr << "rgb_exp: --groups/--group-members need --multigroup\n";
    return 2;
  }
  std::vector<rgb::exp::ScaleConfig> cells;
  if (multigroup) {
    // A multi-group cell takes its members from --groups x --group-members,
    // runs the dissemination join alone and no side trial: these scale-sweep
    // flags would have nothing to set.
    for (const auto& [flag, given] :
         {std::pair{"--members", !member_counts.empty()},
          std::pair{"--join", join_flag_seen}, std::pair{"--detect", detect},
          std::pair{"--oscillation", oscillation}}) {
      if (given) {
        std::cerr << "rgb_exp: " << flag << " does not apply to --multigroup\n";
        return 2;
      }
    }
    if (!saw_ring) base.ring_size = 3;
    if (!saw_spacing) base.join_spacing = rgb::sim::usec(200);
    if (!saw_seed) base.seed = 0x96B0DF5ULL;
    base.members = group_members != 0 ? group_members : 100;  // per group
    if (group_counts.empty()) {
      group_counts = smoke ? std::vector<std::uint64_t>{1, 8}
                           : std::vector<std::uint64_t>{1, 10, 100, 1000};
    }
    cells = rgb::exp::multigroup_cells(base, group_counts);
  } else {
    // --smoke bounds the sweep; explicit --members / --join override it (in
    // any argument order), so the flags never silently fight. Absent an
    // explicit --join, the smoke profile covers both join modes so CI keeps
    // a point on the snapshot-join trajectory too.
    if (member_counts.empty()) {
      member_counts = smoke ? std::vector<std::uint64_t>{200}
                            : std::vector<std::uint64_t>{1000, 10000, 100000};
    }
    if (smoke && !join_flag_seen) modes.snapshot = true;
    cells = rgb::exp::scale_cells(base, member_counts, modes);
  }

  const std::vector<rgb::exp::ScaleStats> all =
      rgb::exp::run_sweep(cells, std::cerr);
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

  const rgb::exp::DetectStats* dp = detect ? &detect_stats : nullptr;
  const std::vector<rgb::exp::OscillationStats>* op =
      oscillation ? &oscillation_stats : nullptr;
  if (!json_path.empty() &&
      !write_to(json_path, [&](std::ostream& os) {
        rgb::exp::write_bench_json(base, all, os, dp, op);
      })) {
    return 1;
  }
  if (!series_path.empty() && !all.empty() &&
      !write_to(series_path, [&all](std::ostream& os) {
        rgb::exp::write_series_csv(all.front(), os);
      })) {
    return 1;
  }
  return rgb::exp::all_clean(all) ? 0 : 1;
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0], 2);
  const std::string command = argv[1];
  if (is_help(command)) return usage(argv[0], 0);
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
  if (is_help(id)) return usage(argv[0], 0, "run");

  rgb::exp::RunnerOptions options;
  std::string csv_path, json_path;
  bool print_table = true;
  bool check_mode = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() { return next_arg(argc, argv, i, arg); };
    const auto next_u64 = [&]() { return next_arg_u64(argc, argv, i, arg); };
    if (is_help(arg)) return usage(argv[0], 0, "run");
    if (arg == "--threads") {
      options.threads = next_arg_in<unsigned>(argc, argv, i, arg);
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
  if (!csv_path.empty() &&
      !write_to(csv_path, [&result](std::ostream& os) {
        rgb::exp::write_csv(result, os);
      })) {
    return 1;
  }
  if (!json_path.empty() &&
      !write_to(json_path, [&result](std::ostream& os) {
        rgb::exp::write_json(result, os);
      })) {
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
