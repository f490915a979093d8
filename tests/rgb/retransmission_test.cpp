// Give-up paths of the acked sends whose peer never answers: a notification,
// a reconcile request and a snapshot push each retransmit a bounded number
// of times to a crashed peer and then stop, and a notification's give-up
// marks its inter-ring edge down (ParentOK / ChildOK, Section 4.2).
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rgb::core {
namespace {

using testing::RgbSystemTest;

/// No probing, no loss: the only traffic is what each test provokes, so the
/// retransmission counters count exactly the sends aimed at the crashed NE.
RgbConfig quiet_config() {
  RgbConfig config;
  config.notify_timeout = sim::msec(200);
  return config;
}

/// Long enough for the first send plus every retransmission to time out.
std::uint64_t give_up_ms(const RgbConfig& config) {
  return 2 * (config.notify_timeout / sim::msec(1)) *
         static_cast<std::uint64_t>(config.max_notify_retx + 2);
}

class RetransmissionTest : public RgbSystemTest {};

TEST_F(RetransmissionTest, UpwardNotifyGivesUpAndMarksParentDown) {
  const RgbConfig config = quiet_config();
  auto& sys = build(2, 3, config);
  const auto& ring = sys.rings(1)[1];
  const NodeId leader = ring.front();
  const NodeId parent = sys.entity(leader)->parent();
  ASSERT_TRUE(sys.entity(leader)->parent_ok());

  sys.crash_ne(parent);
  sys.join(common::Guid{1}, ring[1]);
  run_for_ms(give_up_ms(config));

  EXPECT_EQ(sys.metrics().notify_retransmits.value(),
            static_cast<std::uint64_t>(config.max_notify_retx));
  EXPECT_FALSE(sys.entity(leader)->parent_ok());
  // The ring itself is unaffected: the join applied at every AP.
  for (const NodeId ap : ring) {
    EXPECT_TRUE(sys.entity(ap)->ring_members().contains(common::Guid{1}));
  }
}

TEST_F(RetransmissionTest, DownwardNotifyGivesUpAndMarksChildDown) {
  const RgbConfig config = quiet_config();
  auto& sys = build(2, 3, config);
  const NodeId lost_child = sys.rings(1)[2].front();
  NodeId owner;  // the top-ring NE whose child ring lost its leader
  for (const NodeId br : sys.rings(0).front()) {
    if (sys.entity(br)->child() == lost_child) owner = br;
  }
  ASSERT_TRUE(owner.valid());
  ASSERT_TRUE(sys.entity(owner)->child_ok());

  sys.crash_ne(lost_child);
  sys.join(common::Guid{1}, sys.rings(1)[0][1]);
  run_for_ms(give_up_ms(config));

  EXPECT_EQ(sys.metrics().notify_retransmits.value(),
            static_cast<std::uint64_t>(config.max_notify_retx));
  EXPECT_FALSE(sys.entity(owner)->child_ok());
  EXPECT_TRUE(sys.entity(owner)->parent_ok() ||
              !sys.entity(owner)->parent().valid());
}

TEST_F(RetransmissionTest, ReconcileRequestGivesUpOnce) {
  const RgbConfig config = quiet_config();
  auto& sys = build(2, 3, config);
  const auto& ring = sys.rings(1)[0];
  const NodeId successor = ring[1];  // ids ascend: the next leader
  sys.join(common::Guid{1}, successor);
  run_for_ms(500);
  ASSERT_EQ(sys.metrics().reconcile_rounds.value(), 0u);

  // The leader hands the ring over; the reform makes the new leader assert
  // its claim to its parent, which is down.
  sys.crash_ne(sys.entity(successor)->parent());
  sys.entity(ring.front())->request_ring_leave();
  run_for_ms(give_up_ms(config));

  ASSERT_TRUE(sys.entity(successor)->is_leader());
  EXPECT_EQ(sys.metrics().reconcile_rounds.value(), 1u);
  EXPECT_EQ(sys.metrics().reconcile_retransmits.value(),
            static_cast<std::uint64_t>(config.max_notify_retx));
  EXPECT_EQ(sys.metrics().reconcile_give_ups.value(), 1u);
  EXPECT_EQ(sys.metrics().reconcile_replies.value(), 0u);
}

TEST_F(RetransmissionTest, SnapshotPushGivesUpOnceAndStops) {
  RgbConfig config = quiet_config();
  config.snapshot_join = true;
  auto& sys = build(2, 3, config);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  run_for_ms(1000);
  ASSERT_EQ(sys.metrics().snapshot_push_give_ups.value(), 0u);
  const std::uint64_t retx_before = sys.metrics().snapshot_retransmits.value();

  // The child ring's leader is owed the change that arrives from ring 2.
  sys.crash_ne(sys.rings(1)[0].front());
  sys.join(common::Guid{77}, sys.rings(1)[2][1]);
  run_for_ms(give_up_ms(config));

  EXPECT_EQ(sys.metrics().snapshot_push_give_ups.value(), 1u);
  EXPECT_EQ(sys.metrics().snapshot_retransmits.value() - retx_before,
            static_cast<std::uint64_t>(config.max_notify_retx));
  const std::uint64_t sent = sys.metrics().snapshots_sent.value();
  run_for_ms(give_up_ms(config));
  EXPECT_EQ(sys.metrics().snapshots_sent.value(), sent);
  EXPECT_EQ(sys.metrics().snapshot_push_give_ups.value(), 1u);
}

}  // namespace
}  // namespace rgb::core
