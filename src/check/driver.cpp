#include "check/driver.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "flatring/flat_ring.hpp"
#include "gossip/gossip_membership.hpp"
#include "rgb/rgb.hpp"
#include "tree/tree_membership.hpp"

namespace rgb::check {

const char* to_string(Protocol protocol) {
  switch (protocol) {
    case Protocol::kRgb: return "rgb";
    case Protocol::kTree: return "tree";
    case Protocol::kFlatRing: return "flatring";
    case Protocol::kGossip: return "gossip";
  }
  return "?";
}

Protocol protocol_from_name(std::string_view name) {
  if (name == "rgb") return Protocol::kRgb;
  if (name == "tree") return Protocol::kTree;
  if (name == "flatring") return Protocol::kFlatRing;
  if (name == "gossip") return Protocol::kGossip;
  throw std::invalid_argument("unknown protocol '" + std::string{name} +
                              "' (rgb|tree|flatring|gossip)");
}

// --- ScheduleDriver ---------------------------------------------------------

namespace {
/// Churn expansion granularity: one toggle draw per member per tick.
constexpr sim::Duration kChurnTick = sim::msec(100);
}  // namespace

ScheduleDriver::ScheduleDriver(sim::Simulator& simulator,
                               net::Network& network,
                               proto::MembershipService& service,
                               GroundTruth& truth, Topology topology)
    : sim_(simulator),
      network_(network),
      service_(service),
      truth_(truth),
      topology_(std::move(topology)),
      base_drop_probability_(network.default_drop_probability()) {}

void ScheduleDriver::arm(const FaultSchedule& schedule) {
  for (const FaultEvent& event : schedule.events) {
    horizon_ = std::max(horizon_, event.at + event.duration);
    sim_.schedule_at(std::max(event.at, sim_.now()),
                     [this, event] { apply(event); });
  }
}

void ScheduleDriver::apply(const FaultEvent& event) {
  const auto ne_at = [&](std::uint64_t index) {
    return topology_.nes[index % topology_.nes.size()];
  };
  const auto ap_at = [&](std::uint64_t index) {
    return topology_.aps[index % topology_.aps.size()];
  };
  const std::unordered_set<common::NodeId> ap_set{topology_.aps.begin(),
                                                  topology_.aps.end()};
  switch (event.action) {
    case FaultAction::kCrash: {
      const common::NodeId id = ne_at(event.subject);
      network_.crash(id);
      // Members attached to a crashed NE are stranded; their fate now
      // depends on detection-vs-recovery timing (see GroundTruth).
      if (ap_set.count(id) != 0) truth_.strand_at(id);
      ++events_applied_;
      break;
    }
    case FaultAction::kRecover:
      network_.recover(ne_at(event.subject));
      ++events_applied_;
      break;
    case FaultAction::kPartition:
      network_.set_partition(ne_at(event.subject),
                             static_cast<int>(event.arg));
      ++events_applied_;
      break;
    case FaultAction::kHeal:
      network_.clear_partitions();
      ++events_applied_;
      break;
    case FaultAction::kDropBurst: {
      // Bursts may overlap; the effective loss is the strongest active
      // burst, and a burst ending must not truncate another still-active
      // window — hence the multiset bookkeeping instead of a plain reset.
      active_burst_probs_.insert(event.probability);
      network_.set_default_drop_probability(*active_burst_probs_.rbegin());
      const double p = event.probability;
      sim_.schedule_after(event.duration, [this, p] {
        const auto it = active_burst_probs_.find(p);
        if (it != active_burst_probs_.end()) active_burst_probs_.erase(it);
        network_.set_default_drop_probability(
            active_burst_probs_.empty() ? base_drop_probability_
                                        : *active_burst_probs_.rbegin());
      });
      ++events_applied_;
      break;
    }
    case FaultAction::kHandoff: {
      const common::Guid mh{event.subject};
      const common::NodeId target = ap_at(event.arg);
      // A handoff needs both ends reachable: skip physically impossible
      // moves (dead/stranded member, crashed target) so ground truth only
      // records what actually entered the system.
      if (!truth_.is_live(mh) || network_.is_crashed(target) ||
          truth_.ap_of(mh) == target) {
        break;
      }
      service_.handoff(mh, target);
      truth_.handoff(mh, target);
      ++events_applied_;
      break;
    }
    case FaultAction::kJoin: {
      const common::Guid mh{event.subject};
      const common::NodeId target = ap_at(event.arg);
      if (truth_.is_live(mh) || network_.is_crashed(target)) break;
      service_.join(mh, target);
      truth_.join(mh, target);
      ++events_applied_;
      break;
    }
    case FaultAction::kLeave:
    case FaultAction::kFail: {
      const common::Guid mh{event.subject};
      if (!truth_.is_live(mh) || network_.is_crashed(truth_.ap_of(mh))) {
        break;
      }
      if (event.action == FaultAction::kLeave) {
        service_.leave(mh);
        truth_.leave(mh);
      } else {
        service_.fail(mh);
        truth_.fail(mh);
      }
      ++events_applied_;
      break;
    }
    case FaultAction::kChurn: {
      // Sustained membership churn: for `duration`, every kChurnTick each
      // guid in [1, max_guid] independently toggles with probability
      // `probability` — live members leave or fail (coin flip), dead ones
      // rejoin at a random AP. The stream is a pure function of the event
      // fields (seeded from them, not from the run seed), so a replayed
      // schedule line expands byte-identically.
      if (topology_.max_guid == 0 || topology_.aps.empty()) break;
      const auto rng = std::make_shared<common::RngStream>(
          common::RngStream{event.at + event.duration}.fork("churn"));
      const sim::Time end = sim_.now() + event.duration;
      const double rate = event.probability;
      const auto step = std::make_shared<std::function<void()>>();
      *step = [this, rng, end, rate, step]() {
        for (std::uint64_t g = 1; g <= topology_.max_guid; ++g) {
          if (rng->uniform(0.0, 1.0) >= rate) continue;
          const common::Guid mh{g};
          if (truth_.is_live(mh)) {
            if (network_.is_crashed(truth_.ap_of(mh))) continue;
            if (rng->next_below(2) == 0) {
              service_.leave(mh);
              truth_.leave(mh);
            } else {
              service_.fail(mh);
              truth_.fail(mh);
            }
          } else {
            const common::NodeId ap =
                topology_.aps[rng->next_below(topology_.aps.size())];
            if (network_.is_crashed(ap)) continue;
            service_.join(mh, ap);
            truth_.join(mh, ap);
          }
          ++events_applied_;
        }
        if (sim_.now() + kChurnTick <= end) {
          sim_.schedule_after(kChurnTick, [step] { (*step)(); });
        }
      };
      (*step)();
      break;
    }
  }
}

// --- adversarial runs -------------------------------------------------------

namespace {

/// Owns whichever protocol the run drives, plus its model and topology.
struct Fixture {
  std::unique_ptr<core::RgbSystem> rgb;
  std::unique_ptr<tree::TreeSystem> tree;
  std::unique_ptr<flatring::FlatRingSystem> flatring;
  std::unique_ptr<gossip::GossipSystem> gossip;

  proto::MembershipService* service = nullptr;
  std::unique_ptr<SystemModel> model;
  Topology topology;
};

std::vector<common::NodeId> tree_servers(const tree::TreeSystem& system) {
  std::vector<common::NodeId> out;
  std::vector<const tree::TreeServer*> stack{system.root()};
  while (!stack.empty()) {
    const tree::TreeServer* server = stack.back();
    stack.pop_back();
    if (server == nullptr) continue;
    out.push_back(server->id());
    for (const tree::TreeServer* child : server->children()) {
      stack.push_back(child);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t pow_u64(std::uint64_t base, int exponent) {
  std::uint64_t out = 1;
  for (int i = 0; i < exponent; ++i) out *= base;
  return out;
}

Fixture build_fixture(const AdversarialConfig& cfg, net::Network& network,
                      const GroundTruth& truth) {
  Fixture fx;
  switch (cfg.protocol) {
    case Protocol::kRgb: {
      // Generous retransmission budgets: the conformance claim is about
      // membership semantics, not about surviving bursts with a starved
      // failure detector (a too-small budget turns loss into false NE
      // failures by design).
      core::RgbConfig config;
      config.retx_timeout = sim::msec(30);
      config.max_retx = 8;
      config.round_timeout = sim::msec(1000);
      config.notify_timeout = sim::msec(300);
      config.max_notify_retx = 12;
      config.probe_period = sim::msec(250);
      config.snapshot_join = cfg.snapshot_join;
      config.stability = cfg.stability;
      config.groups = std::max<std::uint64_t>(1, cfg.groups);
      config.groups_per_member = std::min<std::uint64_t>(2, config.groups);
      fx.rgb = std::make_unique<core::RgbSystem>(
          network, config,
          core::HierarchyLayout{cfg.tiers, cfg.ring_size});
      // Sharded conformance runs: the simulator was already split into
      // ring_size logical shards (before anything was scheduled); mirror
      // that split onto the hierarchy/network/obs before the first probe
      // event exists. RGB-only — the baseline protocols stay serial.
      if (cfg.sharded) {
        fx.rgb->configure_shards(static_cast<std::uint32_t>(cfg.ring_size));
      }
      fx.rgb->start_probing();
      fx.service = fx.rgb.get();
      fx.model = std::make_unique<RgbModel>(*fx.rgb, &truth);
      fx.topology = Topology{fx.rgb->all_nes(), fx.rgb->aps()};
      break;
    }
    case Protocol::kTree: {
      fx.tree = std::make_unique<tree::TreeSystem>(
          network, tree::TreeConfig{cfg.tiers + 1, cfg.ring_size, true});
      fx.service = fx.tree.get();
      fx.model = std::make_unique<TreeModel>(*fx.tree, network, &truth);
      fx.topology = Topology{tree_servers(*fx.tree), fx.tree->leaves()};
      break;
    }
    case Protocol::kFlatRing: {
      const auto nodes = static_cast<int>(
          pow_u64(static_cast<std::uint64_t>(cfg.ring_size), cfg.tiers));
      fx.flatring = std::make_unique<flatring::FlatRingSystem>(
          network, flatring::FlatRingConfig{nodes});
      fx.service = fx.flatring.get();
      fx.model =
          std::make_unique<FlatRingModel>(*fx.flatring, network, &truth);
      fx.topology = Topology{fx.flatring->aps(), fx.flatring->aps()};
      break;
    }
    case Protocol::kGossip: {
      gossip::GossipConfig config;
      config.nodes = static_cast<int>(
          pow_u64(static_cast<std::uint64_t>(cfg.ring_size), cfg.tiers));
      fx.gossip = std::make_unique<gossip::GossipSystem>(
          network, config, common::RngStream{0xB0551C}.fork("gossip"));
      fx.gossip->start();
      fx.service = fx.gossip.get();
      fx.model = std::make_unique<GossipModel>(*fx.gossip, network, &truth);
      fx.topology = Topology{fx.gossip->aps(), fx.gossip->aps()};
      break;
    }
  }
  // Same member universe the schedule generator draws guids from: churn
  // expansion toggles exactly the seeded membership.
  fx.topology.max_guid = static_cast<std::uint64_t>(cfg.initial_members);
  return fx;
}

}  // namespace

FaultSchedule random_schedule_for(const AdversarialConfig& cfg,
                                  std::uint64_t seed) {
  ScheduleGenConfig gen = cfg.gen;
  const auto r = static_cast<std::uint64_t>(cfg.ring_size);
  gen.ap_count = pow_u64(r, cfg.tiers);
  switch (cfg.protocol) {
    case Protocol::kRgb: {
      const core::HierarchyLayout layout{cfg.tiers, cfg.ring_size};
      gen.ne_count = layout.ne_count();
      break;
    }
    case Protocol::kTree: {
      std::uint64_t servers = 0;
      for (int level = 0; level <= cfg.tiers; ++level) {
        servers += pow_u64(r, level);
      }
      gen.ne_count = servers;
      break;
    }
    case Protocol::kFlatRing:
    case Protocol::kGossip:
      gen.ne_count = gen.ap_count;
      break;
  }
  gen.max_guid = static_cast<std::uint64_t>(cfg.initial_members);
  return random_schedule(gen, seed);
}

CheckRunResult run_schedule(const AdversarialConfig& cfg,
                            const FaultSchedule& schedule, std::uint64_t seed,
                            exp::TrialCheck* extern_check, std::size_t cell,
                            std::uint64_t trial) {
  common::RngStream rng{seed};
  sim::Simulator simulator;
  net::LinkConfig link;
  link.latency = net::LatencyModel::uniform(sim::msec(1), sim::msec(3));
  if (cfg.protocol == Protocol::kRgb && cfg.sharded) {
    // Epoch = the minimum cross-shard link latency (the conservative
    // lookahead bound); must precede any scheduling.
    simulator.configure_shards(static_cast<std::uint32_t>(cfg.ring_size),
                               link.latency.min_delay());
  }
  net::Network network{simulator, rng.fork("net"), link};

  GroundTruth truth;
  Fixture fx = build_fixture(cfg, network, truth);
  if (fx.rgb != nullptr) {
    // Mirror the facade's deterministic guid -> groups assignment into the
    // ground truth, so grouped_expected() is comparable to directory views
    // (at groups=1 both degenerate to {GroupId{1}}).
    const core::RgbConfig rgb_config = fx.rgb->config();
    truth.set_group_fn([rgb_config](common::Guid mh) {
      return core::member_groups(mh, rgb_config);
    });
  }

  // Seed the initial membership round-robin across the APs.
  for (int i = 0; i < cfg.initial_members; ++i) {
    const common::Guid mh{static_cast<std::uint64_t>(i + 1)};
    const common::NodeId ap =
        fx.topology.aps[static_cast<std::size_t>(i) % fx.topology.aps.size()];
    fx.service->join(mh, ap);
    truth.join(mh, ap);
  }

  ScheduleDriver driver{simulator, network, *fx.service, truth, fx.topology};
  driver.arm(schedule);

  // The internal suite feeds CheckRunResult (rgb_fuzz, scenario metrics);
  // `extern_check` is the harness's own session with its own mask. Under
  // --check both run — the duplicate oracle work is small next to the
  // simulation itself and keeps the two reports independent.
  OracleSuite suite{cfg.check_mask, cell, trial};
  const sim::Time end = driver.horizon() + cfg.settle;
  for (sim::Time t = 0; t < end;) {
    t = std::min<sim::Time>(end, t + cfg.sample_period);
    simulator.run_until(t);
    suite.sample(*fx.model, simulator.now());
    if (extern_check != nullptr) {
      extern_check->sample(*fx.model, simulator.now());
    }
  }
  suite.at_quiescence(*fx.model, simulator.now());
  if (extern_check != nullptr) {
    extern_check->finish(*fx.model, simulator.now());
  }

  CheckRunResult result;
  result.report = suite.take_report();
  result.schedule = schedule;
  result.events_applied = driver.events_applied();
  result.messages_sent = network.metrics().sent;
  if (cfg.flight_full) {
    // Full retained ring, pass or fail (rgb_fuzz --flight-full).
    result.flight_trace = fx.model->flight(0);
  } else if (!result.report.passed()) {
    // Attach the causal trace to the repro: the last protocol-level
    // events (rounds, repairs, reforms, detections) leading up to the
    // violation.
    result.flight_trace = fx.model->flight(48);
  }
  return result;
}

CheckRunResult run_random(const AdversarialConfig& cfg, std::uint64_t seed) {
  return run_schedule(cfg, random_schedule_for(cfg, seed), seed);
}

FaultSchedule minimize(const AdversarialConfig& cfg,
                       const FaultSchedule& schedule, std::uint64_t seed,
                       std::uint64_t* runs) {
  std::uint64_t spent = 0;
  const auto violates = [&](const FaultSchedule& candidate) {
    ++spent;
    return !run_schedule(cfg, candidate, seed).passed();
  };
  FaultSchedule current = schedule;
  if (violates(current)) {
    // Greedy single-event removal to a local fixpoint: for small schedules
    // this is a few dozen replays, each fully deterministic.
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t i = 0; i < current.events.size(); ++i) {
        // Never drop a heal: removing it leaves the network split through
        // settle, which violates convergence trivially — a degenerate
        // "repro" of a condition the system is documented not to be held
        // to (every generated partition run ends healed).
        if (current.events[i].action == FaultAction::kHeal) continue;
        FaultSchedule candidate = current;
        candidate.events.erase(candidate.events.begin() +
                               static_cast<std::ptrdiff_t>(i));
        if (violates(candidate)) {
          current = std::move(candidate);
          progressed = true;
          break;
        }
      }
    }
    current.id = schedule.id + "-min";
  }
  if (runs != nullptr) *runs = spent;
  return current;
}

}  // namespace rgb::check
