#include "exp/scenarios.hpp"

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/reliability.hpp"
#include "analysis/scalability.hpp"
#include "check/check.hpp"
#include "exp/bench.hpp"
#include "flatring/flat_ring.hpp"
#include "net/network.hpp"
#include "rgb/rgb.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_membership.hpp"
#include "workload/churn.hpp"
#include "workload/flashcrowd.hpp"
#include "workload/mobility.hpp"

namespace rgb::exp {
namespace {

using core::proposal_hops;

// --- E2: Table II, Monte-Carlo structural fault injection -------------------

Scenario make_table2_fw_mc() {
  Scenario s;
  s.id = "table2.fw_mc";
  s.title = "Function-Well probability, Monte-Carlo structural fault injection";
  s.paper_ref = "Table II";
  s.metrics = {"fw"};
  const int h = 3;
  for (const int r : {5, 10}) {
    for (const double f : {0.001, 0.005, 0.02}) {
      for (int k = 1; k <= 3; ++k) {
        s.cells.push_back(ParamSet{{"h", double(h)},
                                   {"r", double(r)},
                                   {"f", f},
                                   {"k", double(k)}});
      }
    }
  }
  s.trials_per_cell = 100'000;
  s.run = [](const TrialContext& ctx) -> std::vector<double> {
    auto rng = ctx.rng();
    const bool fw = analysis::monte_carlo_fw_sample(
        ctx.params.get_int("h"), ctx.params.get_int("r"),
        ctx.params.get("f"), ctx.params.get_int("k"), rng);
    return {fw ? 1.0 : 0.0};
  };
  return s;
}

// --- E2b: protocol-level dissemination under NE crashes ---------------------

/// One protocol-level Function-Well trial: crash NEs uniformly with
/// probability f, inject one Member-Join at the first AP, and test whether
/// it reaches every alive top-ring node.
std::vector<double> protocol_fw_trial(const TrialContext& ctx) {
  auto rng = ctx.rng();
  auto fault_rng = rng.fork("faults");
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  core::RgbConfig config;
  config.retx_timeout = sim::msec(20);
  config.max_retx = 1;
  config.round_timeout = sim::msec(200);
  config.notify_timeout = sim::msec(150);
  config.max_notify_retx = 8;
  core::RgbSystem sys{network, config,
                      core::HierarchyLayout{ctx.params.get_int("h"),
                                            ctx.params.get_int("r")}};
  const double f = ctx.params.get("f");
  for (const auto ne : sys.all_nes()) {
    if (ne == sys.aps().front()) continue;  // spare the origin
    if (fault_rng.chance(f)) sys.crash_ne(ne);
  }
  sys.join(common::Guid{1}, sys.aps().front());
  simulator.run_until(sim::sec(20));
  bool ok = true;
  for (const auto id : sys.rings(0).front()) {
    if (network.is_crashed(id)) continue;
    if (!sys.entity(id)->ring_members().contains(common::Guid{1})) ok = false;
  }
  // Faulty profile: the crashes deliberately break convergence for some
  // trials (that *is* the fw metric), so --check holds this scenario to
  // kCheckFaulty only.
  if (auto chk = begin_check(ctx)) {
    check::RgbModel model{sys};
    chk->finish(model, simulator.now());
  }
  return {ok ? 1.0 : 0.0};
}

Scenario make_table2_proto() {
  Scenario s;
  s.id = "table2.proto";
  s.title = "Protocol-level dissemination under NE crashes";
  s.paper_ref = "Table II (E2b extension)";
  s.metrics = {"fw"};
  for (const double f : {0.0, 0.01, 0.03, 0.05}) {
    s.cells.push_back(ParamSet{{"h", 2.0}, {"r", 5.0}, {"f", f}});
  }
  s.trials_per_cell = 20;
  s.run = protocol_fw_trial;
  s.check_mask = kCheckFaulty;
  return s;
}

// --- E7: analytic FW-vs-f sweep ---------------------------------------------

Scenario make_fw_sweep() {
  Scenario s;
  s.id = "fw.sweep";
  s.title = "Function-Well probability vs f, formula (8), k in {1,2,3}";
  s.paper_ref = "figure extension of Table II";
  s.metrics = {"fw_k1", "fw_k2", "fw_k3"};
  const int h = 3;
  for (const int r : {5, 10}) {
    for (const double f : {0.0001, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02,
                           0.03, 0.05}) {
      s.cells.push_back(ParamSet{{"h", double(h)}, {"r", double(r)}, {"f", f}});
    }
  }
  s.trials_per_cell = 1;  // closed form: deterministic
  s.run = [](const TrialContext& ctx) -> std::vector<double> {
    const int h = ctx.params.get_int("h");
    const int r = ctx.params.get_int("r");
    const double f = ctx.params.get("f");
    return {analysis::prob_fw_hierarchy(h, r, f, 1),
            analysis::prob_fw_hierarchy(h, r, f, 2),
            analysis::prob_fw_hierarchy(h, r, f, 3)};
  };
  return s;
}

// --- E11: convergence latency vs group size ---------------------------------

Scenario make_convergence_scale() {
  Scenario s;
  s.id = "convergence.scale";
  s.title = "Convergence latency of one join vs group size (1ms links)";
  s.paper_ref = "extension figure (E11)";
  s.metrics = {"rgb_ms", "tree_ms", "flat_ms"};
  for (const int h : {1, 2, 3, 4}) {
    s.cells.push_back(ParamSet{{"h", double(h)}, {"r", 5.0}});
  }
  s.trials_per_cell = 1;  // fixed-latency links: deterministic
  s.check_mask = kCheckAll;
  s.run = [](const TrialContext& ctx) -> std::vector<double> {
    const int h = ctx.params.get_int("h");
    const int r = ctx.params.get_int("r");
    auto rng = ctx.rng();
    double rgb_ms = 0.0, tree_ms = 0.0, flat_ms = 0.0;
    // Each protocol gets its own checking session (one finish per system);
    // the fault-free single join must uphold the full oracle suite.
    {
      sim::Simulator simulator;
      net::Network network{simulator, rng.fork("rgb")};
      core::RgbSystem sys{network, core::RgbConfig{},
                          core::HierarchyLayout{h, r}};
      sys.join(common::Guid{1}, sys.aps().front());
      simulator.run();
      rgb_ms = sim::to_ms(simulator.now());
      if (auto chk = begin_check(ctx)) {
        check::RgbModel model{sys};
        chk->finish(model, simulator.now());
      }
    }
    {
      sim::Simulator simulator;
      net::Network network{simulator, rng.fork("tree")};
      tree::TreeSystem sys{network, tree::TreeConfig{h + 1, r, true}};
      sys.join(common::Guid{1}, sys.leaves().front());
      simulator.run();
      tree_ms = sim::to_ms(simulator.now());
      if (auto chk = begin_check(ctx)) {
        check::GroundTruth truth;
        truth.join(common::Guid{1}, sys.leaves().front());
        check::TreeModel model{sys, network, &truth};
        chk->finish(model, simulator.now());
      }
    }
    {
      std::uint64_t n = 1;
      for (int i = 0; i < h; ++i) n *= static_cast<std::uint64_t>(r);
      sim::Simulator simulator;
      net::Network network{simulator, rng.fork("flat")};
      flatring::FlatRingSystem sys{network,
                                   flatring::FlatRingConfig{static_cast<int>(n)}};
      sys.join(common::Guid{1}, sys.aps().front());
      simulator.run();
      flat_ms = sim::to_ms(simulator.now());
      if (auto chk = begin_check(ctx)) {
        check::GroundTruth truth;
        truth.join(common::Guid{1}, sys.aps().front());
        check::FlatRingModel model{sys, network, &truth};
        chk->finish(model, simulator.now());
      }
    }
    return {rgb_ms, tree_ms, flat_ms};
  };
  return s;
}

// --- E5: query cost per maintenance scheme ----------------------------------

Scenario make_query_schemes() {
  Scenario s;
  s.id = "query.schemes";
  s.title = "Membership-Query cost per maintenance scheme (TMS/IMS/BMS)";
  s.paper_ref = "Section 4.4";
  s.metrics = {"maint_hops_per_join", "query_msgs", "query_ms",
               "members_found"};
  // scheme: QueryScheme enum value; retain/down: the matching maintenance
  // configuration (TMS keeps the view at tier 0 and disseminates down,
  // IMS/BMS retain at their own tier only).
  s.cells.push_back(ParamSet{{"scheme", double(int(proto::QueryScheme::kTopmost))},
                             {"retain_tier", 0.0},
                             {"disseminate_down", 1.0}});
  s.cells.push_back(
      ParamSet{{"scheme", double(int(proto::QueryScheme::kIntermediate))},
               {"retain_tier", 1.0},
               {"disseminate_down", 0.0}});
  s.cells.push_back(
      ParamSet{{"scheme", double(int(proto::QueryScheme::kBottommost))},
               {"retain_tier", 2.0},
               {"disseminate_down", 0.0}});
  for (auto& cell : s.cells) {
    cell.set("h", 3.0).set("r", 5.0).set("members", 50.0);
  }
  s.trials_per_cell = 1;  // fixed-latency links: deterministic
  s.run = [](const TrialContext& ctx) -> std::vector<double> {
    auto rng = ctx.rng();
    sim::Simulator simulator;
    net::Network network{simulator, rng.fork("net")};
    core::RgbConfig config;
    config.retain_tier = ctx.params.get_int("retain_tier");
    config.disseminate_down = ctx.params.get_int("disseminate_down") != 0;
    core::RgbSystem sys{network, config,
                        core::HierarchyLayout{ctx.params.get_int("h"),
                                              ctx.params.get_int("r")}};
    const int members = ctx.params.get_int("members");
    for (int i = 0; i < members; ++i) {
      sys.join(common::Guid{static_cast<std::uint64_t>(i + 1)},
               sys.aps()[static_cast<std::size_t>(i) % sys.aps().size()]);
    }
    simulator.run();
    const auto maintenance = proposal_hops(network);

    const auto scheme =
        static_cast<proto::QueryScheme>(ctx.params.get_int("scheme"));
    core::QueryClient client{common::NodeId{999999}, network};
    std::optional<core::QueryClient::Result> result;
    client.issue(sys.query_plan(scheme), sim::sec(10),
                 [&](core::QueryClient::Result r2) { result = std::move(r2); });
    simulator.run();
    if (auto chk = begin_check(ctx)) {
      check::RgbModel model{sys};
      chk->finish(model, simulator.now());
    }
    return {double(maintenance / static_cast<std::uint64_t>(members)),
            double(result->messages), sim::to_ms(result->latency),
            double(result->members.size())};
  };
  s.check_mask = kCheckAll;
  return s;
}

// --- EX1: convergence under Poisson churn -----------------------------------

Scenario make_churn_converge() {
  Scenario s;
  s.id = "churn.converge";
  s.title = "Convergence and message cost under Poisson churn";
  s.paper_ref = "extension (Section 1 workload classes)";
  s.metrics = {"events", "converged", "settle_ms", "msgs", "proposal_hops"};
  for (const double rate : {0.5, 2.0, 8.0}) {
    s.cells.push_back(ParamSet{{"h", 2.0},
                               {"r", 5.0},
                               {"rate", rate},
                               {"members", 20.0},
                               {"duration_s", 5.0}});
  }
  s.trials_per_cell = 5;
  s.run = [](const TrialContext& ctx) -> std::vector<double> {
    auto rng = ctx.rng();
    sim::Simulator simulator;
    net::Network network{simulator, rng.fork("net")};
    core::RgbSystem sys{network, core::RgbConfig{},
                        core::HierarchyLayout{ctx.params.get_int("h"),
                                              ctx.params.get_int("r")}};
    workload::ChurnConfig churn;
    const double rate = ctx.params.get("rate");
    churn.join_rate = 2.0 * rate;
    churn.leave_rate = 1.0 * rate;
    churn.handoff_rate = 4.0 * rate;
    churn.fail_rate = 0.5 * rate;
    churn.initial_members = ctx.params.get_int("members");
    churn.duration = sim::sec(ctx.params.get_int("duration_s"));
    churn.seed = rng.fork("churn").next_u64();
    workload::ChurnWorkload load{simulator, sys, sys.aps(), churn};
    load.start();
    auto chk = begin_check(ctx);
    simulator.run_until(churn.duration);
    if (chk) {
      check::RgbModel model{sys};
      chk->sample(model, simulator.now());  // mid-run history observation
    }
    const sim::Time churn_end = simulator.now();
    simulator.run();  // drain: let the protocol settle
    if (chk) {
      check::RgbModel model{sys};
      chk->finish(model, simulator.now());
    }
    return {double(load.stats().total()),
            sys.membership_converged() ? 1.0 : 0.0,
            sim::to_ms(simulator.now() - churn_end),
            double(network.metrics().sent), double(proposal_hops(network))};
  };
  s.check_mask = kCheckAll;
  return s;
}

// --- EX2: grid mobility handoff storm ---------------------------------------

Scenario make_mobility_handoff() {
  Scenario s;
  s.id = "mobility.handoff";
  s.title = "Grid mobility: handoff churn from roaming hosts";
  s.paper_ref = "extension (Section 1: smaller cells, faster handoff)";
  s.metrics = {"handoffs", "converged", "msgs", "proposal_hops"};
  for (const double dwell_s : {4.0, 1.0}) {
    s.cells.push_back(ParamSet{{"h", 2.0},
                               {"r", 5.0},
                               {"hosts", 30.0},
                               {"dwell_s", dwell_s},
                               {"duration_s", 10.0}});
  }
  s.trials_per_cell = 3;
  s.run = [](const TrialContext& ctx) -> std::vector<double> {
    auto rng = ctx.rng();
    sim::Simulator simulator;
    net::Network network{simulator, rng.fork("net")};
    // h=2, r=5 yields exactly 25 APs — a 5x5 cell grid.
    core::RgbSystem sys{network, core::RgbConfig{},
                        core::HierarchyLayout{ctx.params.get_int("h"),
                                              ctx.params.get_int("r")}};
    workload::MobilityConfig mobility;
    mobility.grid_width = 5;
    mobility.grid_height = 5;
    mobility.hosts = ctx.params.get_int("hosts");
    mobility.mean_dwell =
        sim::msec(static_cast<std::uint64_t>(ctx.params.get("dwell_s") * 1000));
    mobility.duration = sim::sec(ctx.params.get_int("duration_s"));
    mobility.seed = rng.fork("mobility").next_u64();
    workload::GridMobility load{simulator, sys, sys.aps(), mobility};
    load.start();
    simulator.run();
    if (auto chk = begin_check(ctx)) {
      check::RgbModel model{sys};
      chk->finish(model, simulator.now());
    }
    return {double(load.handoffs_issued()),
            sys.membership_converged() ? 1.0 : 0.0,
            double(network.metrics().sent), double(proposal_hops(network))};
  };
  s.check_mask = kCheckAll;
  return s;
}

// --- EX3: flash crowd, aggregation ablation ---------------------------------

Scenario make_flashcrowd_agg() {
  Scenario s;
  s.id = "flashcrowd.agg";
  s.title = "Flash crowd surge with and without MQ aggregation";
  s.paper_ref = "extension (Section 4.2 stress case)";
  s.metrics = {"rounds", "ops_aggregated", "msgs", "converged"};
  for (const double aggregate : {1.0, 0.0}) {
    s.cells.push_back(ParamSet{{"h", 2.0},
                               {"r", 5.0},
                               {"members", 100.0},
                               {"aggregate", aggregate}});
  }
  s.trials_per_cell = 3;
  s.run = [](const TrialContext& ctx) -> std::vector<double> {
    auto rng = ctx.rng();
    sim::Simulator simulator;
    net::Network network{simulator, rng.fork("net")};
    core::RgbConfig config;
    config.aggregate_mq = ctx.params.get_int("aggregate") != 0;
    core::RgbSystem sys{network, config,
                        core::HierarchyLayout{ctx.params.get_int("h"),
                                              ctx.params.get_int("r")}};
    workload::FlashCrowdConfig crowd;
    crowd.members = ctx.params.get_int("members");
    crowd.seed = rng.fork("crowd").next_u64();
    workload::FlashCrowd load{simulator, sys, sys.aps(), crowd};
    load.start();
    simulator.run();
    if (auto chk = begin_check(ctx)) {
      check::RgbModel model{sys};
      chk->finish(model, simulator.now());
    }
    return {double(sys.metrics().rounds_completed.value()),
            double(sys.metrics().ops_aggregated.value()),
            double(network.metrics().sent),
            sys.membership_converged() ? 1.0 : 0.0};
  };
  s.check_mask = kCheckAll;
  return s;
}

// --- EX4: adversarial fault schedules vs the invariant oracles --------------

Scenario make_check_adversarial() {
  Scenario s;
  s.id = "check.adversarial";
  s.title = "Seeded adversarial fault schedules vs the invariant oracles";
  s.paper_ref = "Section 5.2 (conformance extension)";
  s.metrics = {"violations", "events", "msgs"};
  // profile 0: drop bursts + handoff churn (the paper's message-loss model);
  // profile 1: NE crash/recover + handoff churn (the node-fault model).
  for (const double profile : {0.0, 1.0}) {
    s.cells.push_back(ParamSet{{"h", 2.0},
                               {"r", 3.0},
                               {"members", 8.0},
                               {"profile", profile}});
  }
  s.trials_per_cell = 3;
  s.run = [](const TrialContext& ctx) -> std::vector<double> {
    check::AdversarialConfig cfg;
    cfg.protocol = check::Protocol::kRgb;
    cfg.tiers = ctx.params.get_int("h");
    cfg.ring_size = ctx.params.get_int("r");
    cfg.initial_members = ctx.params.get_int("members");
    const bool crash_profile = ctx.params.get_int("profile") == 1;
    cfg.gen.events = 10;
    cfg.gen.window = sim::sec(8);
    cfg.gen.crashes = crash_profile;
    cfg.gen.recover_all = true;
    cfg.gen.partitions = false;
    cfg.gen.drop_bursts = !crash_profile;
    cfg.gen.handoffs = true;
    auto chk = begin_check(ctx);
    const check::FaultSchedule schedule =
        check::random_schedule_for(cfg, ctx.seed);
    const check::CheckRunResult result = check::run_schedule(
        cfg, schedule, ctx.seed, chk.get(), ctx.cell_index, ctx.trial_index);
    return {double(result.report.size()), double(result.events_applied),
            double(result.messages_sent)};
  };
  s.check_mask = kCheckAll;
  return s;
}

// --- EX5: scale bench, steady anti-entropy cost and join mode ----------------

Scenario make_bench_scale() {
  Scenario s;
  s.id = "bench.scale";
  s.title =
      "Scale sweep: steady anti-entropy cost, join mode "
      "(dissemination vs snapshot)";
  s.paper_ref = "extension (perf trajectory, PR3/PR4)";
  // Deterministic protocol metrics only — wall-clock numbers come from the
  // timed entry point (`rgb_exp bench`) and BENCH_*.json.
  // Byte metrics are real encoded bytes (wire codec metering).
  s.metrics = {"viewsync_bytes", "viewsync_msgs", "steady_events",
               "join_events",    "join_bytes",    "join_divergence",
               "converged"};
  // Dissemination-join cells first (the thread-determinism test trims to
  // these two), snapshot-join cells appended.
  for (const double snapshot : {0.0, 1.0}) {
    for (const double members : {250.0, 1000.0}) {
      s.cells.push_back(ParamSet{{"h", 2.0},
                                 {"r", 5.0},
                                 {"members", members},
                                 {"snapshot", snapshot}});
    }
  }
  s.trials_per_cell = 1;
  s.run = [](const TrialContext& ctx) -> std::vector<double> {
    ScaleConfig config;
    config.tiers = ctx.params.get_int("h");
    config.ring_size = ctx.params.get_int("r");
    config.members = static_cast<std::uint64_t>(ctx.params.get_int("members"));
    config.snapshot_join = ctx.params.get_int("snapshot") != 0;
    config.seed = ctx.seed;
    const ScaleStats stats = run_scale_trial(config, /*timed=*/false);
    return {double(stats.viewsync_bytes), double(stats.viewsync_msgs),
            double(stats.steady_events),  double(stats.join_events),
            double(stats.join_bytes),     double(stats.join_divergence),
            stats.converged ? 1.0 : 0.0};
  };
  return s;
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& registry) {
  registry.add(make_table2_fw_mc());
  registry.add(make_table2_proto());
  registry.add(make_fw_sweep());
  registry.add(make_convergence_scale());
  registry.add(make_query_schemes());
  registry.add(make_churn_converge());
  registry.add(make_mobility_handoff());
  registry.add(make_flashcrowd_agg());
  registry.add(make_check_adversarial());
  registry.add(make_bench_scale());
}

const ScenarioRegistry& builtin_scenarios() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry r;
    register_builtin_scenarios(r);
    return r;
  }();
  return registry;
}

}  // namespace rgb::exp
