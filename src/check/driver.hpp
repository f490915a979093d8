// Conformance-run driver: builds a protocol under test, replays a fault
// schedule against it, and runs the invariant-oracle suite over the
// execution — the engine behind `rgb_exp run ... --check`'s adversarial
// scenario, the rgb_fuzz seed search, and the conformance test suites.
//
// Determinism contract: `run_schedule(config, schedule, seed)` is a pure
// function — the simulator, network, protocol and schedule all derive
// their randomness from `seed` via labelled RngStream forks, and the
// returned report renders byte-identically on every replay (the
// tests/check replay suite asserts this across runner thread counts).
//
// Ground-truth semantics under faults: members attached to an NE when it
// crashes become *uncertain* — whether they survive depends on whether the
// ring detects the crash before recovery, which is the protocol's timing
// to decide, not the oracle's. Uncertain members are excluded from the
// convergence / agreement / zombie comparisons; everything else is checked
// strictly.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "check/invariants.hpp"
#include "check/model.hpp"
#include "check/schedule.hpp"
#include "exp/observer.hpp"
#include "net/network.hpp"
#include "proto/membership_service.hpp"
#include "sim/simulator.hpp"

namespace rgb::check {

enum class Protocol : std::uint8_t { kRgb, kTree, kFlatRing, kGossip };

[[nodiscard]] const char* to_string(Protocol protocol);
/// Parses "rgb" / "tree" / "flatring" / "gossip"; throws
/// std::invalid_argument otherwise.
[[nodiscard]] Protocol protocol_from_name(std::string_view name);

/// Node lists the schedule's topology-relative indexes resolve against.
struct Topology {
  std::vector<common::NodeId> nes;  ///< crash/partition targets
  std::vector<common::NodeId> aps;  ///< member injection points
  /// Member universe for churn expansion: guids drawn from [1, max_guid].
  std::uint64_t max_guid = 0;
};

/// Replays a FaultSchedule against a live system: resolves indexes,
/// schedules the fault-injection calls on the simulator, keeps ground
/// truth in sync (stranding on AP crashes), and skips member actions that
/// would be physically impossible (handoff to a crashed AP).
class ScheduleDriver {
 public:
  ScheduleDriver(sim::Simulator& simulator, net::Network& network,
                 proto::MembershipService& service, GroundTruth& truth,
                 Topology topology);

  /// Schedules every event of `schedule`. Call once, before running.
  void arm(const FaultSchedule& schedule);

  [[nodiscard]] std::uint64_t events_applied() const {
    return events_applied_;
  }
  /// Virtual time of the last scheduled effect (including drop-burst ends).
  [[nodiscard]] sim::Time horizon() const { return horizon_; }

 private:
  void apply(const FaultEvent& event);

  sim::Simulator& sim_;
  net::Network& network_;
  proto::MembershipService& service_;
  GroundTruth& truth_;
  Topology topology_;
  double base_drop_probability_ = 0.0;
  /// Probabilities of currently-active drop bursts (overlap-safe: the
  /// strongest active burst wins; ending one restores the next-strongest).
  std::multiset<double> active_burst_probs_;
  std::uint64_t events_applied_ = 0;
  sim::Time horizon_ = 0;
};

/// One adversarial conformance run: topology shape, workload seeding, and
/// which invariants the protocol is held to.
struct AdversarialConfig {
  Protocol protocol = Protocol::kRgb;
  int tiers = 2;      ///< RGB ring tiers (tree height = tiers + 1)
  int ring_size = 3;  ///< ring size / branching factor
  int initial_members = 8;
  /// RGB only: run the fixture in snapshot bulk-join mode (kSnapshot state
  /// transfer with flush-edge acks) — the lossy-surge snapshot-join
  /// conformance profile.
  bool snapshot_join = false;
  /// RGB only: enable the multi-observer stability layer (alert-based cut
  /// detection instead of first-observation declaration) — the A/B knob the
  /// churn conformance profile and the oscillation bench flip.
  bool stability = false;
  /// RGB only: number of groups multiplexed over the one hierarchy
  /// (multi-group serving). Members fan out over min(2, groups) groups each
  /// via the deterministic member_groups() assignment, which the ground
  /// truth mirrors; the oracles then quantify over (group, guid). 1 keeps
  /// the classic single-group profile.
  std::uint64_t groups = 1;
  unsigned check_mask = exp::kCheckAll;
  /// Quiet time after the last schedule event before quiescence checks.
  sim::Duration settle = sim::sec(20);
  /// Mid-run oracle sampling period (history invariants).
  sim::Duration sample_period = sim::msec(500);
  /// Fault classes for random generation; counts are filled from the
  /// topology by random_schedule_for.
  ScheduleGenConfig gen;
  /// RGB only: false = classic serial run. true = sharded run — the
  /// simulator splits into ring_size logical shards (fixed by topology,
  /// one per tier-0 region), so the fuzz profiles exercise the sharded
  /// kernel's handoff/merge paths.
  bool sharded = false;
  /// Dump the complete retained flight ring into CheckRunResult even when
  /// the run passes (rgb_fuzz --flight-full). Like everything else in the
  /// result, the dump is byte-identical across replays.
  bool flight_full = false;
};

struct CheckRunResult {
  CheckReport report;
  FaultSchedule schedule;          ///< as executed
  std::uint64_t events_applied = 0;
  std::uint64_t messages_sent = 0;
  /// Flight-recorder tail of the violating run (empty when the run passed
  /// or the protocol keeps no recorder): the causal protocol-event trace
  /// rgb_fuzz prints next to every repro.
  std::string flight_trace;
  [[nodiscard]] bool passed() const { return report.passed(); }
};

/// Generates the adversarial schedule for `seed` with target counts taken
/// from the config's topology shape.
[[nodiscard]] FaultSchedule random_schedule_for(const AdversarialConfig& cfg,
                                                std::uint64_t seed);

/// Builds the system, replays `schedule`, runs the oracles. `extern_check`
/// (a --check session from the experiment harness) additionally receives
/// every sample/finish observation; (cell, trial) attribute violations.
[[nodiscard]] CheckRunResult run_schedule(const AdversarialConfig& cfg,
                                          const FaultSchedule& schedule,
                                          std::uint64_t seed,
                                          exp::TrialCheck* extern_check = nullptr,
                                          std::size_t cell = 0,
                                          std::uint64_t trial = 0);

/// random_schedule_for + run_schedule.
[[nodiscard]] CheckRunResult run_random(const AdversarialConfig& cfg,
                                        std::uint64_t seed);

/// Greedy event-dropping minimization of a violating schedule: repeatedly
/// removes any event whose removal keeps the run violating, until no
/// single removal does. Returns the input unchanged when it doesn't
/// violate. `runs` (when non-null) counts the replays spent.
[[nodiscard]] FaultSchedule minimize(const AdversarialConfig& cfg,
                                     const FaultSchedule& schedule,
                                     std::uint64_t seed,
                                     std::uint64_t* runs = nullptr);

}  // namespace rgb::check
