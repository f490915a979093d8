// Give-up paths of the acked sends whose peer never answers: a notification,
// a reconcile request and a snapshot push each retransmit a bounded number
// of times to a crashed peer and then stop, and a notification's give-up
// marks its inter-ring edge down (ParentOK / ChildOK, Section 4.2). And the
// replays those retransmissions cause: a token hop or a notification that
// arrives again is acked again and does nothing else.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

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

/// A message as the network delivered it, with its delivery time.
struct Delivery {
  sim::Time at = 0;
  net::Envelope env;
};

/// A quiet 2x3 hierarchy (no probing, no loss) that logs every delivery,
/// with one member joined at AP ring[1] and the run drained.
class ReplayTest : public RetransmissionTest {
 protected:
  void SetUp() override {
    build(2, 3, quiet_config());
    network_.set_tap([this](const net::Envelope& env, bool delivered) {
      if (delivered) log_.push_back(Delivery{simulator_.now(), env});
    });
    system_->join(common::Guid{1}, ring()[1]);
    run_for_ms(2000);
  }

  [[nodiscard]] const std::vector<NodeId>& ring() const {
    return system_->rings(1)[0];
  }

  /// The first logged delivery of `kind` from `src` to `dst`.
  [[nodiscard]] std::optional<net::Envelope> first(net::MessageKind kind,
                                                   NodeId src,
                                                   NodeId dst) const {
    for (const Delivery& d : log_) {
      if (d.env.kind == kind && d.env.src == src && d.env.dst == dst) {
        return d.env;
      }
    }
    return std::nullopt;
  }

  /// Sends `env` again as its sender did and drains the run; returns what
  /// the network delivered meanwhile, the replay included.
  std::vector<Delivery> replay(net::Envelope env) {
    log_.clear();
    network_.send(std::move(env));
    run_for_ms(2000);
    return log_;
  }

  std::vector<Delivery> log_;
};

TEST_F(ReplayTest, ReplayedTokenHopIsAckedAndNotReapplied) {
  // The round of the join at ring[1] runs ring[1] -> ring[2] -> leader ->
  // ring[1]; the leader applies it and notifies its parent.
  const NodeId leader = ring()[0];
  const std::optional<net::Envelope> hop =
      first(kind::kToken, ring()[2], leader);
  ASSERT_TRUE(hop.has_value());
  const Token& token = hop->payload.get<TokenMsg>().token;
  ASSERT_FALSE(token.ops.empty());
  ASSERT_NE(token.holder, leader);
  const std::uint64_t applied = system_->metrics().ops_disseminated.value();
  const std::uint64_t notified = system_->metrics().notifications_sent.value();

  // As if the leader's TokenPassAck had been lost and the hop resent.
  const std::vector<Delivery> after = replay(*hop);

  // The leader acks the hop again and does nothing else: no apply, no
  // notification to its parent, no forward to ring[1].
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].env.kind, kind::kToken);
  EXPECT_EQ(after[1].env.kind, kind::kTokenPassAck);
  EXPECT_EQ(after[1].env.src, leader);
  EXPECT_EQ(after[1].env.dst, ring()[2]);
  EXPECT_EQ(after[1].env.payload.get<TokenPassAckMsg>().round_id,
            token.round_id);
  EXPECT_EQ(system_->metrics().ops_disseminated.value(), applied);
  EXPECT_EQ(system_->metrics().notifications_sent.value(), notified);
}

TEST_F(ReplayTest, ReplayedNotifyIsAckedAtOnceAndStartsNoRound) {
  const NodeId leader = ring()[0];
  const NodeId parent = system_->entity(leader)->parent();
  const std::optional<net::Envelope> notify =
      first(kind::kNotifyParent, leader, parent);
  ASSERT_TRUE(notify.has_value());
  const std::uint64_t nid = notify->payload.get<NotifyMsg>().notify_id;
  // The notification's round completed: the parent ring's holder acked it.
  ASSERT_TRUE(first(kind::kHolderAck, parent, leader).has_value());
  const std::uint64_t rounds = system_->metrics().rounds_started.value();

  // As if the HolderAck had been lost and the notification resent.
  const std::vector<Delivery> after = replay(*notify);

  // The parent acks in the instant the replay lands (one 1 ms link later
  // at the leader) and starts no round: no token request, no token.
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].env.kind, kind::kNotifyParent);
  EXPECT_EQ(after[1].env.kind, kind::kHolderAck);
  EXPECT_EQ(after[1].env.src, parent);
  EXPECT_EQ(after[1].env.dst, leader);
  EXPECT_EQ(after[1].at, after[0].at + sim::msec(1));
  EXPECT_EQ(after[1].env.payload.get<HolderAckMsg>().notify_ids,
            std::vector<std::uint64_t>{nid});
  EXPECT_EQ(system_->metrics().rounds_started.value(), rounds);
}

}  // namespace
}  // namespace rgb::core
