// rgb_fuzz — seed search for invariant violations under adversarial fault
// schedules, with automatic repro minimization.
//
//   rgb_fuzz [--proto rgb|tree|flatring|gossip] [--seeds N] [--start S]
//            [--tiers H] [--ring R] [--members M] [--groups G] [--events E]
//            [--crashes 0|1] [--partitions 0|1] [--bursts 0|1]
//            [--handoffs 0|1] [--churn 0|1] [--stability 0|1]
//            [--snapshot-join 0|1] [--mask BITS] [--sharded 0|1]
//            [--schedule FILE] [--quiet] [--flight-full]
//
// --groups, --stability, --snapshot-join and --sharded shape the RGB
// fixture only: beside another --proto they are a usage error, in any
// argument order.
//
// For each seed in [start, start+N) the tool generates a random fault
// schedule, replays it against the chosen protocol, and runs the invariant
// oracles. On a violation it greedily minimizes the schedule to a smallest
// still-violating repro and prints it in the declarative format together
// with the exact replay command: the search's own flags (all but --seeds,
// --start, --quiet and --flight-full) plus --start and --schedule. Exit
// code: 0 when every seed passes, 1 when any violation was found, 2 on
// usage errors: every number is decimal digits (no sign, no space, no 0x
// prefix) within its flag's range — a ring size, tier count or group count
// of at least 1, a mode flag of 0 or 1, a mask within the oracle bits — and
// the last seed, start + N - 1, must not pass 2^64 - 1.
//
// With --schedule FILE the tool skips generation and replays the given
// schedule file (e.g. a minimized repro from a previous run) under seed
// `start` — deterministic down to the violation report bytes. A replay runs
// that one seed, so --seeds beside --schedule is a usage error.
//
// `--churn 1` adds sustained-churn windows (per-tick membership toggling
// for 1-3s stretches) to the generated schedules — the stability-layer
// conformance profile; pair with `--stability 1` to run RGB with
// multi-observer cut detection enabled.
//
// The default profile matches the paper's fault model (node crashes with
// recovery + message loss bursts + handoff churn); `--partitions 1` adds
// reachability splits (healed before quiescence), exercising the
// partition-merge extension.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "check/check.hpp"
#include "common/parse.hpp"

namespace {

/// `value` of `flag` as T when it lies in [lo, hi] (by default the whole of
/// T): anything else is a usage error, never a silent narrowing.
template <typename T>
T in_range(const std::string& flag, std::uint64_t value, std::uint64_t lo = 0,
           std::uint64_t hi = std::numeric_limits<T>::max()) {
  if (value < lo || value > hi) {
    std::cerr << "rgb_fuzz: " << flag << " must be in [" << lo << ", " << hi
              << "], got " << value << '\n';
    std::exit(2);
  }
  return static_cast<T>(value);
}

int usage(const char* argv0, int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: " << argv0 << " [options]\n"
     << "  --proto P      protocol under test: rgb|tree|flatring|gossip"
        " (default rgb)\n"
     << "  --seeds N      number of seeds to search (default 10)\n"
     << "  --start S      first seed (default 1)\n"
     << "  --tiers H      ring tiers (default 2)\n"
     << "  --ring R       ring size / branching (default 3)\n"
     << "  --members M    initial members (default 8)\n"
     << "  --groups G     RGB: groups served by the one hierarchy, at least\n"
     << "                 1 (default 1); members join min(2, G) groups each\n"
     << "                 and every oracle quantifies over (group, guid)\n"
     << "  --events E     schedule events per seed (default 10)\n"
     << "  --crashes B    enable NE crash/recover faults (default 1)\n"
     << "  --partitions B enable partition/heal faults (default 0)\n"
     << "  --bursts B     enable message-loss bursts (default 1)\n"
     << "  --handoffs B   enable handoff churn (default 1)\n"
     << "  --churn B      enable sustained-churn windows (default 0) —\n"
     << "                 the stability-layer conformance profile\n"
     << "  --stability B  RGB: multi-observer cut detection (default 0)\n"
     << "  --snapshot-join B  RGB: snapshot bulk-join mode (default 0) —\n"
     << "                 the lossy-surge snapshot-join conformance profile\n"
     << "  --sharded B    RGB: run the sharded kernel, one logical shard\n"
     << "                 per tier-0 region (default 0 = serial)\n"
     << "  --mask BITS    invariant mask, 1-63 (default 63, all; see\n"
     << "                 EXPERIMENTS.md)\n"
     << "  --schedule F   replay schedule file F under seed --start (not\n"
     << "                 with --seeds: a replay runs that one seed)\n"
     << "  --quiet        only report violations and the final summary\n"
     << "  --flight-full  dump the complete retained flight ring for every\n"
     << "                 run, pass or fail\n"
     << "The RGB: flags are a usage error with --proto tree|flatring|gossip.\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  rgb::check::AdversarialConfig cfg;
  std::uint64_t seeds = 10;
  bool seeds_given = false;
  std::uint64_t start = 1;
  std::string schedule_path;
  bool quiet = false;
  // The flags that shape a run, as given: the replay line repeats them.
  std::string run_flags;
  // The first flag given that only the RGB fixture reads.
  std::string rgb_only_flag;

  for (int i = 1; i < argc; ++i) {
    const int flag_at = i;
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "rgb_fuzz: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto next_u64 = [&]() -> std::uint64_t {
      const char* text = next();
      const std::optional<std::uint64_t> value = rgb::common::parse_u64(text);
      if (!value) {
        std::cerr << "rgb_fuzz: " << arg << " needs a decimal number, got '"
                  << text << "'\n";
        std::exit(2);
      }
      return *value;
    };
    try {
      if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
      if (arg == "--proto") {
        cfg.protocol = rgb::check::protocol_from_name(next());
      } else if (arg == "--seeds") {
        seeds = next_u64();
        seeds_given = true;
      } else if (arg == "--start") {
        start = next_u64();
      } else if (arg == "--tiers") {
        // A zero topology has no NE to build.
        cfg.tiers = in_range<int>(arg, next_u64(), 1);
      } else if (arg == "--ring") {
        cfg.ring_size = in_range<int>(arg, next_u64(), 1);
      } else if (arg == "--members") {
        cfg.initial_members = in_range<int>(arg, next_u64());
      } else if (arg == "--groups") {
        cfg.groups = in_range<std::uint64_t>(arg, next_u64(), 1);
      } else if (arg == "--events") {
        cfg.gen.events = in_range<int>(arg, next_u64());
      } else if (arg == "--crashes") {
        cfg.gen.crashes = in_range<bool>(arg, next_u64());
      } else if (arg == "--partitions") {
        cfg.gen.partitions = in_range<bool>(arg, next_u64());
      } else if (arg == "--bursts") {
        cfg.gen.drop_bursts = in_range<bool>(arg, next_u64());
      } else if (arg == "--handoffs") {
        cfg.gen.handoffs = in_range<bool>(arg, next_u64());
      } else if (arg == "--churn") {
        cfg.gen.churn = in_range<bool>(arg, next_u64());
      } else if (arg == "--stability") {
        cfg.stability = in_range<bool>(arg, next_u64());
      } else if (arg == "--snapshot-join") {
        cfg.snapshot_join = in_range<bool>(arg, next_u64());
      } else if (arg == "--sharded") {
        cfg.sharded = in_range<bool>(arg, next_u64());
      } else if (arg == "--mask") {
        cfg.check_mask =
            in_range<unsigned>(arg, next_u64(), 1, rgb::exp::kCheckAll);
      } else if (arg == "--schedule") {
        schedule_path = next();
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--flight-full") {
        cfg.flight_full = true;
      } else {
        std::cerr << "rgb_fuzz: unknown option '" << arg << "'\n";
        return usage(argv[0], 2);
      }
    } catch (const std::exception& e) {
      std::cerr << "rgb_fuzz: " << e.what() << '\n';
      return 2;
    }
    if (rgb_only_flag.empty() &&
        (arg == "--groups" || arg == "--stability" ||
         arg == "--snapshot-join" || arg == "--sharded")) {
      rgb_only_flag = arg;
    }
    if (arg != "--seeds" && arg != "--start" && arg != "--quiet" &&
        arg != "--flight-full") {
      for (int k = flag_at; k <= i; ++k) {
        run_flags += ' ';
        run_flags += argv[k];
      }
    }
  }

  if (cfg.protocol != rgb::check::Protocol::kRgb && !rgb_only_flag.empty()) {
    std::cerr << "rgb_fuzz: " << rgb_only_flag << " applies only to --proto "
              << "rgb, not " << rgb::check::to_string(cfg.protocol) << '\n';
    return 2;
  }

  // Replay mode: one schedule file, one seed.
  if (!schedule_path.empty()) {
    if (seeds_given) {
      std::cerr << "rgb_fuzz: --seeds does not apply to --schedule: a replay "
                   "runs the one seed --start\n";
      return 2;
    }
    std::ifstream file{schedule_path};
    if (!file) {
      std::cerr << "rgb_fuzz: cannot read '" << schedule_path << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << file.rdbuf();
    rgb::check::FaultSchedule schedule;
    try {
      schedule = rgb::check::parse_schedule(text.str());
    } catch (const std::exception& e) {
      std::cerr << "rgb_fuzz: " << e.what() << '\n';
      return 2;
    }
    const auto result = rgb::check::run_schedule(cfg, schedule, start);
    std::cout << "replay " << schedule.id << " seed " << start << " ["
              << rgb::check::to_string(cfg.protocol) << "]: "
              << result.report.size() << " violation(s), "
              << result.events_applied << " events, " << result.messages_sent
              << " msgs\n";
    result.report.print(std::cout);
    if (!result.flight_trace.empty()) std::cout << result.flight_trace;
    return result.passed() ? 0 : 1;
  }

  // The last seed, start + seeds - 1, must exist: no wrap back to seed 0.
  if (seeds > 0 && seeds - 1 > UINT64_MAX - start) {
    std::cerr << "rgb_fuzz: --start " << start << " with --seeds " << seeds
              << " runs past seed " << UINT64_MAX << '\n';
    return 2;
  }
  std::uint64_t violations_found = 0;
  for (std::uint64_t k = 0; k < seeds; ++k) {
    const std::uint64_t seed = start + k;
    const rgb::check::FaultSchedule schedule =
        rgb::check::random_schedule_for(cfg, seed);
    const auto result = rgb::check::run_schedule(cfg, schedule, seed);
    if (result.passed()) {
      if (!quiet) {
        std::cout << "seed " << seed << ": ok (" << result.events_applied
                  << " events, " << result.messages_sent << " msgs)\n";
      }
      if (!result.flight_trace.empty()) std::cout << result.flight_trace;
      continue;
    }
    ++violations_found;
    std::cout << "seed " << seed << ": " << result.report.size()
              << " violation(s)\n";
    result.report.print(std::cout);
    if (!result.flight_trace.empty()) std::cout << result.flight_trace;

    std::uint64_t replays = 0;
    const rgb::check::FaultSchedule minimized =
        rgb::check::minimize(cfg, schedule, seed, &replays);
    std::cout << "--- minimized repro (" << minimized.events.size() << "/"
              << schedule.events.size() << " events after " << replays
              << " replays) ---\n"
              << minimized.serialize()
              << "--- replay with: rgb_fuzz" << run_flags << " --start "
              << seed << " --schedule <file> ---\n";
  }

  std::cout << "rgb_fuzz [" << rgb::check::to_string(cfg.protocol) << "]: "
            << violations_found << " violating seed(s) of " << seeds
            << " searched\n";
  return violations_found == 0 ? 0 : 1;
}
