// Fault tolerance: token retransmission, local repair by exclusion
// (Section 5.2), leader failover, holder crash, member-failure generation,
// and the partition/merge extension (the paper's future work).
#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.hpp"

namespace rgb::core {
namespace {

using testing::RgbSystemTest;

/// Config tuned for fast failure detection in tests.
RgbConfig fast_failure_config() {
  RgbConfig config;
  config.retx_timeout = sim::msec(20);
  config.max_retx = 1;
  config.round_timeout = sim::msec(300);
  config.notify_timeout = sim::msec(200);
  config.probe_period = sim::msec(100);
  return config;
}

class FailureTest : public RgbSystemTest {};

TEST_F(FailureTest, CrashedNonLeaderIsSplicedOut) {
  auto& sys = build(1, 5, fast_failure_config());
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  sys.crash_ne(ring[2]);
  run_for_ms(2000);
  // Probe rounds hit the dead node, retransmit, then repair around it.
  EXPECT_GE(sys.metrics().repairs.value(), 1u);
  for (const auto id : ring) {
    if (id == ring[2]) continue;
    const auto* ne = sys.entity(id);
    EXPECT_EQ(ne->roster().size(), 4u) << "node " << id.value();
    EXPECT_NE(ne->next_node(), ring[2]);
  }
  // The repaired ring still disseminates.
  sys.join(common::Guid{1}, ring[1]);
  run_for_ms(1000);
  EXPECT_TRUE(sys.entity(ring[4])->ring_members().contains(common::Guid{1}));
}

TEST_F(FailureTest, TokenRetransmitsBeforeDeclaringFault) {
  auto& sys = build(1, 5, fast_failure_config());
  const auto& ring = sys.rings(0).front();
  sys.crash_ne(ring[2]);
  sys.join(common::Guid{1}, ring[1]);  // round will hit the dead successor
  run_for_ms(2000);
  EXPECT_GE(sys.metrics().token_retransmits.value(), 1u);
  EXPECT_GE(sys.metrics().repairs.value(), 1u);
  // The join still reached the survivors.
  for (const auto id : {ring[0], ring[1], ring[3], ring[4]}) {
    EXPECT_TRUE(sys.entity(id)->ring_members().contains(common::Guid{1}));
  }
}

TEST_F(FailureTest, LeaderCrashTriggersFailover) {
  auto& sys = build(1, 5, fast_failure_config());
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  sys.crash_ne(ring[0]);  // the leader
  // A member with pending ops detects the dead leader via request timeouts.
  sys.join(common::Guid{1}, ring[3]);
  run_for_ms(4000);
  EXPECT_GE(sys.metrics().leader_failovers.value(), 1u);
  // Deterministic rule: lowest alive id leads.
  for (const auto id : {ring[1], ring[2], ring[3], ring[4]}) {
    EXPECT_EQ(sys.entity(id)->leader(), ring[1]) << "node " << id.value();
  }
  // The join disseminated despite the failover.
  for (const auto id : {ring[1], ring[2], ring[3], ring[4]}) {
    EXPECT_TRUE(sys.entity(id)->ring_members().contains(common::Guid{1}));
  }
}

TEST_F(FailureTest, FollowerThatMissedTheRepairCountsTheFailover) {
  RgbConfig config = fast_failure_config();
  config.probe_period = 0;  // no kSummary shape adoption: the op decides
  auto& sys = build(1, 5, config);
  const auto& ring = sys.rings(0).front();
  const NodeId detector = ring[3];
  const NodeId follower = ring[4];
  sys.crash_ne(ring[0]);  // the leader
  // ring[3]'s token requests time out against the dead leader; its
  // RepairMsg to ring[4] is lost, so ring[4] learns of the failure only
  // from the NE-Failure op that the next round carries.
  net::LinkConfig lossy;
  lossy.drop_probability = 1.0;
  network_.set_link(detector, follower, lossy);
  sys.join(common::Guid{1}, detector);
  int waited_ms = 0;
  while (sys.metrics().repairs.value() == 0 && waited_ms < 4000) {
    run_for_ms(1);
    ++waited_ms;
  }
  ASSERT_EQ(sys.metrics().repairs.value(), 1u);
  network_.set_link(detector, follower, net::LinkConfig{});
  ASSERT_EQ(sys.entity(follower)->leader(), ring[0]) << "repair was lost";
  run_for_ms(2000);

  EXPECT_EQ(sys.entity(follower)->leader(), ring[1]);
  EXPECT_TRUE(
      sys.entity(follower)->ring_members().contains(common::Guid{1}));
  const auto events = sys.obs().tracer.flight_events();
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [&](const obs::FlightEvent& e) {
                            return e.kind ==
                                       obs::FlightKind::kLeaderFailover &&
                                   e.ne == follower;
                          }),
            1);
  // The detector, both repair receivers and the follower: one failover
  // each of the four survivors.
  EXPECT_EQ(sys.metrics().leader_failovers.value(), 4u);
}

TEST_F(FailureTest, ApCrashFailsItsAttachedMembers) {
  auto& sys = build(1, 5, fast_failure_config());
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  sys.join(common::Guid{1}, ring[2]);
  sys.join(common::Guid{2}, ring[3]);
  run_for_ms(500);
  sys.crash_ne(ring[2]);
  run_for_ms(3000);
  // The repairer generated Member-Failure for the stranded member.
  for (const auto id : {ring[0], ring[1], ring[3], ring[4]}) {
    const auto* ne = sys.entity(id);
    EXPECT_FALSE(ne->ring_members().contains(common::Guid{1}))
        << "node " << id.value();
    EXPECT_TRUE(ne->ring_members().contains(common::Guid{2}));
  }
}

TEST_F(FailureTest, HierarchyPropagationSurvivesApRingFault) {
  auto& sys = build(3, 3, fast_failure_config());
  sys.start_probing();
  const auto& ap_ring = sys.rings(2).front();
  sys.crash_ne(ap_ring[1]);  // non-leader AP
  run_for_ms(2000);          // probes repair the AP ring
  sys.join(common::Guid{1}, ap_ring[2]);
  run_for_ms(3000);
  // The change still reaches the top despite the faulty AP.
  EXPECT_TRUE(sys.entity(sys.rings(0).front().front())
                  ->ring_members()
                  .contains(common::Guid{1}));
}

TEST_F(FailureTest, NotificationRetransmitsUntilAcked) {
  // Lossy links between rings: notifications must survive via retx.
  net::LinkConfig lossy;
  lossy.latency = net::LatencyModel::fixed(sim::msec(1));
  lossy.drop_probability = 0.4;

  sim::Simulator sim;
  net::Network lossy_net{sim, common::RngStream{7}, lossy};
  RgbConfig config = fast_failure_config();
  config.notify_timeout = sim::msec(100);
  config.max_notify_retx = 30;
  config.max_retx = 30;  // token hops also need retx under loss
  RgbSystem sys{lossy_net, config,
                HierarchyLayout{.ring_tiers = 2, .ring_size = 3}};
  sys.join(common::Guid{1}, sys.aps().front());
  sim.run_until(sim::sec(30));
  EXPECT_TRUE(sys.entity(sys.rings(0).front().front())
                  ->ring_members()
                  .contains(common::Guid{1}));
}

TEST_F(FailureTest, HolderCrashMidRoundIsReclaimedByWatchdog) {
  auto& sys = build(1, 5, fast_failure_config());
  const auto& ring = sys.rings(0).front();
  // Give node 3 the token by starting its round, then crash it immediately:
  // the leader's watchdog must free the token for others.
  sys.join(common::Guid{1}, ring[3]);
  run_for_ms(1);  // request is in flight
  sys.crash_ne(ring[3]);
  run_for_ms(3000);
  // Ring recovered and other traffic flows.
  sys.join(common::Guid{2}, ring[1]);
  run_for_ms(2000);
  EXPECT_TRUE(sys.entity(ring[0])->ring_members().contains(common::Guid{2}));
}

TEST_F(FailureTest, RecoveredNodeRejoinsViaMerge) {
  auto& sys = build(1, 4, fast_failure_config());
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  sys.crash_ne(ring[2]);
  run_for_ms(2000);
  EXPECT_EQ(sys.entity(ring[0])->roster().size(), 3u);

  sys.recover_ne(ring[2]);
  run_for_ms(5000);
  // The leader's merge probing re-adopts the recovered node.
  EXPECT_GE(sys.metrics().merges.value(), 1u);
  for (const auto id : ring) {
    EXPECT_EQ(sys.entity(id)->roster().size(), 4u) << "node " << id.value();
  }
  // And the merged ring disseminates again.
  sys.join(common::Guid{1}, ring[2]);
  run_for_ms(2000);
  EXPECT_TRUE(sys.entity(ring[0])->ring_members().contains(common::Guid{1}));
}

TEST_F(FailureTest, NetworkPartitionSplitsAndMergesRing) {
  auto& sys = build(1, 4, fast_failure_config());
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  // Partition nodes {0,1} from {2,3}.
  network_.set_partition(ring[0], 1);
  network_.set_partition(ring[1], 1);
  network_.set_partition(ring[2], 2);
  network_.set_partition(ring[3], 2);
  // Side A (with the probing leader) detects the cut on its own; side B has
  // no leader, so detection needs traffic — the join provides it.
  sys.join(common::Guid{1}, ring[0]);
  sys.join(common::Guid{2}, ring[2]);
  run_for_ms(6000);
  // Each side repaired itself into a fragment.
  EXPECT_LE(sys.entity(ring[0])->roster().size(), 2u);
  EXPECT_LE(sys.entity(ring[2])->roster().size(), 2u);
  run_for_ms(2000);
  EXPECT_TRUE(sys.entity(ring[1])->ring_members().contains(common::Guid{1}));
  EXPECT_TRUE(sys.entity(ring[3])->ring_members().contains(common::Guid{2}));

  // Heal the partition: merge probing reunites the fragments and the
  // member views union.
  network_.clear_partitions();
  run_for_ms(8000);
  EXPECT_GE(sys.metrics().merges.value(), 1u);
  for (const auto id : ring) {
    const auto* ne = sys.entity(id);
    EXPECT_EQ(ne->roster().size(), 4u) << "node " << id.value();
    EXPECT_TRUE(ne->ring_members().contains(common::Guid{1}));
    EXPECT_TRUE(ne->ring_members().contains(common::Guid{2}));
  }
}

TEST_F(FailureTest, RingOkReflectsProbeActivity) {
  auto& sys = build(1, 3, fast_failure_config());
  sys.start_probing();
  run_for_ms(500);
  for (const auto id : sys.rings(0).front()) {
    EXPECT_TRUE(sys.entity(id)->ring_ok());
  }
  EXPECT_GE(sys.metrics().empty_probe_rounds.value(), 1u);
}

TEST_F(FailureTest, CrashedNodeSendsAndReceivesNothing) {
  auto& sys = build(1, 3, fast_failure_config());
  const auto& ring = sys.rings(0).front();
  sys.crash_ne(ring[1]);
  const auto sent_before = network_.metrics().sent;
  sys.join(common::Guid{1}, ring[1]);  // injected at a crashed AP
  run_for_ms(500);
  // The crashed AP cannot even send its token request.
  EXPECT_EQ(network_.metrics().sent, sent_before);
}

TEST_F(FailureTest, TwoSimultaneousFaultsEventuallyRepaired) {
  // The analytic model conservatively calls >=2 faults a partition; the
  // implementation repairs sequential detections and recovers.
  auto& sys = build(1, 6, fast_failure_config());
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  sys.crash_ne(ring[2]);
  sys.crash_ne(ring[3]);
  run_for_ms(6000);
  sys.join(common::Guid{1}, ring[4]);
  run_for_ms(3000);
  for (const auto id : {ring[0], ring[1], ring[4], ring[5]}) {
    EXPECT_TRUE(sys.entity(id)->ring_members().contains(common::Guid{1}))
        << "node " << id.value();
    EXPECT_EQ(sys.entity(id)->roster().size(), 4u);
  }
}

}  // namespace
}  // namespace rgb::core
