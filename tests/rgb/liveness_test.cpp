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
