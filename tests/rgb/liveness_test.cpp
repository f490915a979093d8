// AP-side faulty-disconnection detection: MH heartbeats, silence sweeps,
// and the interaction with handoffs and voluntary disconnection
// (paper Section 1's disconnection taxonomy).
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rgb::core {
namespace {

using testing::RgbSystemTest;

RgbConfig monitored_config() {
  RgbConfig config;
  config.mh_failure_timeout = sim::msec(500);
  return config;
}

class LivenessTest : public RgbSystemTest {};

TEST_F(LivenessTest, HeartbeatingMemberStaysAlive) {
  auto& sys = build(1, 3, monitored_config());
  MobileHost mh{NodeId{900001}, common::Guid{7}, common::GroupId{1},
                network_, sim::msec(100)};
  mh.join_via(sys.aps()[0]);
  run_for_ms(3000);
  EXPECT_TRUE(sys.entity(sys.aps()[0])->ring_members().contains(common::Guid{7}));
}

TEST_F(LivenessTest, SilentCrashIsDetectedAndDisseminated) {
  auto& sys = build(2, 3, monitored_config());
  MobileHost mh{NodeId{900001}, common::Guid{7}, common::GroupId{1},
                network_, sim::msec(100)};
  mh.join_via(sys.aps()[0]);
  run_for_ms(500);
  ASSERT_TRUE(sys.entity(sys.aps()[0])->ring_members().contains(common::Guid{7}));

  network_.crash(NodeId{900001});  // MH goes silent: faulty disconnection
  run_for_ms(3000);
  // The AP detected the silence and the failure propagated to the top.
  EXPECT_FALSE(sys.entity(sys.aps()[0])->ring_members().contains(common::Guid{7}));
  EXPECT_FALSE(sys.entity(sys.rings(0).front().front())
                   ->ring_members()
                   .contains(common::Guid{7}));
}

TEST_F(LivenessTest, VoluntaryLeaveIsNotAFailure) {
  auto& sys = build(1, 3, monitored_config());
  MobileHost mh{NodeId{900001}, common::Guid{7}, common::GroupId{1},
                network_, sim::msec(100)};
  mh.join_via(sys.aps()[0]);
  run_for_ms(400);
  mh.leave();  // stops heartbeating too — must not double-report
  run_for_ms(3000);
  const auto rec = sys.entity(sys.aps()[0])->ring_members().find(common::Guid{7});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->status, proto::MemberStatus::kDisconnected);  // not kFailed
}

TEST_F(LivenessTest, HandoffMovesMonitoringToNewAp) {
  auto& sys = build(1, 4, monitored_config());
  MobileHost mh{NodeId{900001}, common::Guid{7}, common::GroupId{1},
                network_, sim::msec(100)};
  mh.join_via(sys.aps()[0]);
  run_for_ms(400);
  mh.handoff_to(sys.aps()[2]);
  run_for_ms(2000);
  // Still operational at the new AP: the old AP must not fail it just
  // because heartbeats stopped arriving *there*.
  const auto rec = sys.entity(sys.aps()[0])->ring_members().find(common::Guid{7});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->status, proto::MemberStatus::kOperational);
  EXPECT_EQ(rec->access_proxy, sys.aps()[2]);

  // Crash after the handoff: the NEW AP detects.
  network_.crash(NodeId{900001});
  run_for_ms(3000);
  EXPECT_FALSE(sys.entity(sys.aps()[1])->ring_members().contains(common::Guid{7}));
}

TEST_F(LivenessTest, FacadeMembersAreNeverSweptWithoutHeartbeats) {
  auto& sys = build(1, 3, monitored_config());
  sys.join(common::Guid{9}, sys.aps()[0]);  // no MH agent, no heartbeats
  run_for_ms(5000);
  EXPECT_TRUE(sys.entity(sys.aps()[0])->ring_members().contains(common::Guid{9}));
}

TEST_F(LivenessTest, MonitoringDisabledByDefault) {
  auto& sys = build(1, 3);  // mh_failure_timeout = 0
  MobileHost mh{NodeId{900001}, common::Guid{7}, common::GroupId{1},
                network_, sim::msec(100)};
  mh.join_via(sys.aps()[0]);
  run_for_ms(300);
  network_.crash(NodeId{900001});
  run_for_ms(5000);
  // Without monitoring the silent member is never failed automatically.
  EXPECT_TRUE(sys.entity(sys.aps()[0])->ring_members().contains(common::Guid{7}));
}

/// Cuts every message between `ap` and its ring leader (both directions).
void drop_leader_link(net::Network& network, RgbSystem& sys, NodeId ap) {
  net::LinkConfig dead;
  dead.drop_probability = 1.0;
  network.set_link(ap, sys.entity(ap)->leader(), dead);
}

/// An AP whose ring leader is not a ring neighbour, so a dead AP->leader
/// link stalls only the AP's token requests, never the token's ring path.
NodeId ap_off_leader_path(RgbSystem& sys) {
  for (const NodeId ap : sys.aps()) {
    const NetworkEntity* ne = sys.entity(ap);
    if (!ne->is_leader() && ne->next_node() != ne->leader() &&
        ne->previous_node() != ne->leader()) {
      return ap;
    }
  }
  return NodeId{};
}

// A host that goes silent while its join still waits in the AP's queue (the
// AP's token request was lost) is the AP's to fail: the sweep asks the AP's
// own claims, not its table, which has not applied the join yet. The fail
// op meets the queued birth join and the MQ collapses the pair into the
// fail, so every NE holds the host Failed and none ever Operational.
// Before the fix the sweep dropped it from monitoring and the join later
// applied as Operational everywhere.
TEST_F(LivenessTest, SilentBeforeQueuedJoinAppliesIsNeverOperational) {
  auto& sys = build(1, 5, monitored_config());
  const NodeId ap = ap_off_leader_path(sys);
  ASSERT_TRUE(ap.valid());
  drop_leader_link(network_, sys, ap);
  MobileHost mh{NodeId{900001}, common::Guid{7}, common::GroupId{1},
                network_, sim::msec(100)};
  mh.join_via(ap);
  run_for_ms(300);
  network_.crash(NodeId{900001});  // silent before the join ever applied
  run_for_ms(1500);
  network_.set_link(ap, sys.entity(ap)->leader(), net::LinkConfig{});
  run_for_ms(5000);

  EXPECT_EQ(sys.obs().tracer.member_detection().count(), 1u);
  for (const NodeId ne : sys.all_nes()) {
    const auto rec = sys.entity(ne)->ring_members().find(common::Guid{7});
    ASSERT_TRUE(rec.has_value()) << "NE " << ne.value();
    EXPECT_EQ(rec->status, proto::MemberStatus::kFailed) << "NE " << ne.value();
  }
}

// The same race on a handoff-in: the host hands off to an AP whose token
// request is lost, then goes silent. The new AP fails it in the epoch its
// handoff started, so after the heal every NE holds it Failed. Before the
// fix the new AP skipped it (its table still placed the host at the old AP)
// and the late handoff left it Operational everywhere.
TEST_F(LivenessTest, SilentBeforeQueuedHandoffAppliesIsFailedEverywhere) {
  auto& sys = build(1, 5, monitored_config());
  const NodeId new_ap = ap_off_leader_path(sys);
  ASSERT_TRUE(new_ap.valid());
  const NodeId old_ap = sys.entity(new_ap)->previous_node();
  MobileHost mh{NodeId{900001}, common::Guid{7}, common::GroupId{1},
                network_, sim::msec(100)};
  mh.join_via(old_ap);
  run_for_ms(500);
  ASSERT_TRUE(sys.entity(new_ap)->ring_members().contains(common::Guid{7}));

  drop_leader_link(network_, sys, new_ap);
  mh.handoff_to(new_ap);
  run_for_ms(300);
  network_.crash(NodeId{900001});  // silent before the handoff applied
  run_for_ms(1500);
  network_.set_link(new_ap, sys.entity(new_ap)->leader(), net::LinkConfig{});
  run_for_ms(5000);

  for (const NodeId ne : sys.all_nes()) {
    const auto rec = sys.entity(ne)->ring_members().find(common::Guid{7});
    ASSERT_TRUE(rec.has_value()) << "NE " << ne.value();
    EXPECT_EQ(rec->status, proto::MemberStatus::kFailed)
        << "NE " << ne.value();
  }
}

// A host at AP a (AP ring 0) moves to AP b (AP ring 2) and 2 ms later moves
// on to c or leaves. The two ops meet in one queue and the later one rides
// on alone; it names b, so a never applies an op naming it. The later op's
// newer epoch must end a's claim all the same, or a fails the host whose
// heartbeats it stops hearing. Probing is off, so no reaffirmation pass
// drops the claim.
class FoldedDepartureTest : public RgbSystemTest {
 protected:
  /// Runs the scenario, the second move being a leave at b when `leave`,
  /// and checks the collapse, the detections and every NE's record.
  void run_scenario(bool leave) {
    auto& sys = build(2, 4, monitored_config());
    // b's ring hangs off the third top-ring NE, whose link to the leader
    // (not a ring neighbour, so no token hop crosses it) is slowed: an op
    // rising from b's ring waits there for a grant, and the later op finds
    // it still queued, if it did not already meet it in b's own queue.
    const NodeId top_leader = sys.rings(0).front().front();
    const NodeId parent = sys.rings(0).front()[2];
    net::LinkConfig slow;
    slow.latency = net::LatencyModel::fixed(sim::msec(20));
    network_.set_link(parent, top_leader, slow);
    const NodeId a = sys.rings(1)[0][1];
    const NodeId b = sys.rings(1)[2][1];
    const NodeId c = sys.rings(1)[2][2];
    MobileHost mh{NodeId{900001}, common::Guid{7}, common::GroupId{1},
                  network_, sim::msec(100)};
    mh.join_via(a);
    run_for_ms(500);
    ASSERT_TRUE(sys.entity(b)->ring_members().contains(common::Guid{7}));

    const std::uint64_t collapsed = sys.metrics().ops_aggregated.value();
    mh.handoff_to(b);
    run_for_ms(2);
    if (leave) {
      mh.leave();
    } else {
      mh.handoff_to(c);
    }
    run_for_ms(3000);

    EXPECT_EQ(sys.metrics().ops_aggregated.value(), collapsed + 1)
        << "the two ops did not meet in one queue";
    // a's sweep found the host silent for 3 s: had a still claimed it, a
    // would have failed it.
    EXPECT_EQ(sys.obs().tracer.member_detection().count(), 0u);
    const auto status = leave ? proto::MemberStatus::kDisconnected
                              : proto::MemberStatus::kOperational;
    for (const NodeId ne : sys.all_nes()) {
      const auto rec = sys.entity(ne)->ring_members().find(common::Guid{7});
      ASSERT_TRUE(rec.has_value()) << "NE " << ne.value();
      EXPECT_EQ(rec->status, status) << "NE " << ne.value();
      EXPECT_EQ(rec->access_proxy, leave ? b : c) << "NE " << ne.value();
    }
  }
};

TEST_F(FoldedDepartureTest, CrossRingHandoffChainEndsTheFirstApsClaim) {
  run_scenario(/*leave=*/false);
}

TEST_F(FoldedDepartureTest, CrossRingHandoffThenLeaveEndsTheFirstApsClaim) {
  run_scenario(/*leave=*/true);
}

// Claims outlive an AP crash, but silence heard through the AP's own
// downtime is not evidence: a host that kept heartbeating to a crashed AP
// must not be failed by that AP's first sweep after recovery.
TEST_F(LivenessTest, RecoveredApDoesNotFailHostsThatKeptHeartbeating) {
  RgbConfig config = monitored_config();
  config.probe_period = sim::msec(100);
  auto& sys = build(1, 5, config);
  sys.start_probing();
  const NodeId ap = sys.aps()[2];
  MobileHost mh{NodeId{900001}, common::Guid{7}, common::GroupId{1},
                network_, sim::msec(100)};
  mh.join_via(ap);
  run_for_ms(500);
  ASSERT_TRUE(sys.entity(ap)->ring_members().contains(common::Guid{7}));

  sys.crash_ne(ap);
  run_for_ms(3000);
  sys.recover_ne(ap);
  run_for_ms(5000);

  // The ring failed the host while its AP was down (crash-anchored
  // detection); the recovered AP re-anchors it and must not fail it again.
  EXPECT_EQ(sys.obs().tracer.member_detection().count(), 1u);
  for (const NodeId ne : sys.all_nes()) {
    const auto rec = sys.entity(ne)->ring_members().find(common::Guid{7});
    ASSERT_TRUE(rec.has_value()) << "NE " << ne.value();
    EXPECT_EQ(rec->status, proto::MemberStatus::kOperational)
        << "NE " << ne.value();
  }
}

TEST_F(LivenessTest, TemporaryDisconnectionSurvivesIfShorterThanTimeout) {
  auto& sys = build(1, 3, monitored_config());
  MobileHost mh{NodeId{900001}, common::Guid{7}, common::GroupId{1},
                network_, sim::msec(100)};
  mh.join_via(sys.aps()[0]);
  run_for_ms(400);
  network_.crash(NodeId{900001});   // brief radio shadow...
  run_for_ms(200);                  // ...shorter than the 500ms timeout
  network_.recover(NodeId{900001});
  run_for_ms(2000);
  EXPECT_TRUE(sys.entity(sys.aps()[0])->ring_members().contains(common::Guid{7}));
}

}  // namespace
}  // namespace rgb::core
