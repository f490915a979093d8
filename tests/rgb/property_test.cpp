// Property-based tests: protocol invariants under randomly generated
// schedules, swept over seeds and hierarchy shapes with TEST_P.
#include <gtest/gtest.h>

#include <tuple>

#include "test_util.hpp"
#include "workload/churn.hpp"

namespace rgb::core {
namespace {

// ---------------------------------------------------------------------------
// Property 1: for any random op schedule, once the network quiesces every
// NE's view equals the ground truth (TMS + downward dissemination).
// ---------------------------------------------------------------------------

class RandomScheduleConvergence
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(RandomScheduleConvergence, AllViewsEqualGroundTruth) {
  const auto [tiers, ring_size, seed] = GetParam();
  sim::Simulator simulator;
  net::LinkConfig link;
  link.latency = net::LatencyModel::uniform(sim::msec(1), sim::msec(4));
  net::Network network{simulator, common::RngStream{seed}, link};
  RgbSystem sys{network, RgbConfig{}, HierarchyLayout{tiers, ring_size}};

  workload::ChurnConfig churn_config;
  churn_config.initial_members = 10;
  churn_config.join_rate = 3.0;
  churn_config.leave_rate = 2.0;
  churn_config.handoff_rate = 6.0;
  churn_config.fail_rate = 1.0;
  churn_config.duration = sim::sec(5);
  churn_config.seed = seed * 7919 + 13;
  workload::ChurnWorkload churn{simulator, sys, sys.aps(), churn_config};
  churn.start();
  simulator.run();

  EXPECT_EQ(sys.membership(), churn.expected_membership());
  EXPECT_TRUE(sys.membership_converged());
  EXPECT_EQ(sys.ring_faults(), std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSeeds, RandomScheduleConvergence,
    ::testing::Combine(::testing::Values(1, 2, 3),       // tiers
                       ::testing::Values(2, 3, 5),       // ring size
                       ::testing::Values(1u, 2u, 3u)));  // seed

// ---------------------------------------------------------------------------
// Property 2: MQ aggregation preserves semantics — applying the drained
// batches to a member table produces the same final view as applying the
// raw op stream (ordered by seq) directly.
// ---------------------------------------------------------------------------

class MqSemanticPreservation : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MqSemanticPreservation, DrainedBatchesEqualRawStream) {
  common::RngStream rng{GetParam()};
  constexpr int kGuids = 6;
  constexpr int kOps = 120;

  MessageQueue mq{true};
  MemberTable raw_table;
  std::uint64_t seq = 0;
  // Track each member's current AP so generated handoffs are well-formed
  // chains (old_ap matches), as they are in the real protocol.
  std::unordered_map<std::uint64_t, std::uint64_t> current_ap;

  MemberTable mq_table;
  const auto drain_into = [&](MemberTable& table) {
    for (const auto& op : mq.drain().ops) table.apply(op);
  };

  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t g = 1 + rng.next_below(kGuids);
    MembershipOp op;
    op.seq = ++seq;
    op.uid = seq;
    const auto it = current_ap.find(g);
    if (it == current_ap.end()) {
      op.kind = OpKind::kMemberJoin;
      const std::uint64_t ap = 100 + rng.next_below(8);
      op.member = {Guid{g}, NodeId{ap}, proto::MemberStatus::kOperational};
      current_ap[g] = ap;
    } else {
      switch (rng.next_below(3)) {
        case 0: {  // handoff
          op.kind = OpKind::kMemberHandoff;
          const std::uint64_t ap = 100 + rng.next_below(8);
          op.old_ap = NodeId{it->second};
          op.member = {Guid{g}, NodeId{ap}, proto::MemberStatus::kOperational};
          it->second = ap;
          break;
        }
        case 1:
          op.kind = OpKind::kMemberLeave;
          op.member = {Guid{g}, NodeId{it->second},
                       proto::MemberStatus::kDisconnected};
          current_ap.erase(it);
          break;
        default:
          op.kind = OpKind::kMemberFail;
          op.member = {Guid{g}, NodeId{it->second},
                       proto::MemberStatus::kFailed};
          current_ap.erase(it);
          break;
      }
    }
    raw_table.apply(op);
    mq.insert(op);
    // Drain at random points to exercise partial batches.
    if (rng.chance(0.2)) drain_into(mq_table);
  }
  drain_into(mq_table);

  EXPECT_EQ(mq_table.snapshot(), raw_table.snapshot());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MqSemanticPreservation,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Property 3: crashing any single non-leader position of any ring size is
// repaired, and the ring keeps disseminating.
// ---------------------------------------------------------------------------

class SingleFaultRepair
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SingleFaultRepair, RingRepairsAroundAnyPosition) {
  const auto [ring_size, crash_pos] = GetParam();
  if (crash_pos >= ring_size) GTEST_SKIP();

  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{5}};
  RgbConfig config;
  config.retx_timeout = sim::msec(20);
  config.max_retx = 1;
  config.round_timeout = sim::msec(300);
  config.probe_period = sim::msec(100);
  RgbSystem sys{network, config, HierarchyLayout{1, ring_size}};
  sys.start_probing();

  const auto& ring = sys.rings(0).front();
  const auto victim = ring[static_cast<std::size_t>(crash_pos)];
  sys.crash_ne(victim);
  // Traffic makes detection inevitable regardless of which role crashed:
  // leader faults surface through unanswered token requests, member faults
  // through the token pass itself (and probe rounds in quiet periods).
  const auto origin = ring[crash_pos == 0 ? 1u : 0u];
  sys.join(common::Guid{1}, origin);
  simulator.run_until(sim::sec(8));

  for (const auto id : ring) {
    if (id == victim) continue;
    EXPECT_EQ(sys.entity(id)->roster().size(),
              static_cast<std::size_t>(ring_size - 1))
        << "node " << id.value();
    EXPECT_NE(sys.entity(id)->leader(), victim);
    // The repaired ring reached one-round agreement on the join.
    EXPECT_TRUE(sys.entity(id)->ring_members().contains(common::Guid{1}))
        << "node " << id.value();
  }
}

INSTANTIATE_TEST_SUITE_P(PositionsAndSizes, SingleFaultRepair,
                         ::testing::Combine(::testing::Values(3, 4, 6, 8),
                                            ::testing::Values(0, 1, 2, 5)));

// ---------------------------------------------------------------------------
// Property 4: hop metering is conserved — delivered + every drop category
// equals sent, whatever the scenario.
// ---------------------------------------------------------------------------

class MeteringConservation : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MeteringConservation, SentEqualsDeliveredPlusDropped) {
  sim::Simulator simulator;
  net::LinkConfig link;
  link.latency = net::LatencyModel::uniform(sim::msec(1), sim::msec(3));
  link.drop_probability = 0.1;
  net::Network network{simulator, common::RngStream{GetParam()}, link};
  RgbConfig config;
  config.max_retx = 30;
  config.max_notify_retx = 30;
  config.notify_timeout = sim::msec(200);
  RgbSystem sys{network, config, HierarchyLayout{2, 3}};

  workload::ChurnConfig churn_config;
  churn_config.initial_members = 8;
  churn_config.duration = sim::sec(3);
  churn_config.seed = GetParam();
  workload::ChurnWorkload churn{simulator, sys, sys.aps(), churn_config};
  churn.start();
  simulator.run();

  // No crashes in this scenario, so conservation is exact: every sent
  // message was either delivered or dropped by loss.
  const auto& m = network.metrics();
  EXPECT_EQ(m.sent, m.delivered + m.dropped_loss + m.dropped_partition +
                        m.dropped_unattached);
  EXPECT_EQ(sys.membership(), churn.expected_membership());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeteringConservation,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace rgb::core
