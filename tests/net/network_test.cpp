#include "net/network.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace rgb::net {
namespace {

/// Endpoint that records everything delivered to it.
class Recorder : public Endpoint {
 public:
  void deliver(const Envelope& env) override { received.push_back(env); }
  std::vector<Envelope> received;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(sim_, common::RngStream{1}) {
    network_.attach(a_, &ra_);
    network_.attach(b_, &rb_);
  }

  void send_ab(MessageKind kind = 0) {
    network_.send(Envelope{a_, b_, kind, 64, std::string{"hi"}});
  }

  sim::Simulator sim_;
  Network network_;
  NodeId a_{1}, b_{2};
  Recorder ra_, rb_;
};

TEST_F(NetworkTest, DeliversWithDefaultLatency) {
  send_ab();
  EXPECT_TRUE(rb_.received.empty());  // not before the latency elapses
  sim_.run();
  ASSERT_EQ(rb_.received.size(), 1u);
  EXPECT_EQ(sim_.now(), sim::msec(1));  // default link = fixed 1ms
  EXPECT_EQ(rb_.received[0].src, a_);
  EXPECT_EQ(rb_.received[0].payload.get<std::string>(), "hi");
}

TEST_F(NetworkTest, MetersSentAndDelivered) {
  send_ab();
  send_ab();
  sim_.run();
  EXPECT_EQ(network_.metrics().sent, 2u);
  EXPECT_EQ(network_.metrics().delivered, 2u);
  EXPECT_EQ(network_.metrics().bytes_sent, 128u);
}

TEST_F(NetworkTest, MetersPerKind) {
  send_ab(7);
  send_ab(7);
  send_ab(9);
  sim_.run();
  EXPECT_EQ(network_.metrics().sent_of(7), 2u);
  EXPECT_EQ(network_.metrics().sent_of(9), 1u);
  EXPECT_EQ(network_.metrics().sent_of(8), 0u);
  EXPECT_EQ(network_.metrics().sent_of(1000), 0u);
  EXPECT_EQ(network_.metrics().bytes_of(7), 128u);
  EXPECT_EQ(network_.metrics().bytes_of(9), 64u);
}

TEST_F(NetworkTest, CrashedDestinationDropsInFlight) {
  send_ab();
  network_.crash(b_);
  sim_.run();
  EXPECT_TRUE(rb_.received.empty());
  EXPECT_EQ(network_.metrics().dropped_crash, 1u);
}

TEST_F(NetworkTest, CrashedSourceSendsNothing) {
  network_.crash(a_);
  send_ab();
  sim_.run();
  EXPECT_TRUE(rb_.received.empty());
  // The attempt never entered the network: not in `sent`, metered under
  // the source-crash bucket, not the in-network crash-drop one.
  EXPECT_EQ(network_.metrics().sent, 0u);
  EXPECT_EQ(network_.metrics().dropped_src_crash, 1u);
  EXPECT_EQ(network_.metrics().dropped_crash, 0u);
}

TEST_F(NetworkTest, RecoverRestoresDelivery) {
  network_.crash(b_);
  network_.recover(b_);
  send_ab();
  sim_.run();
  EXPECT_EQ(rb_.received.size(), 1u);
  EXPECT_FALSE(network_.is_crashed(b_));
}

TEST_F(NetworkTest, PartitionBlocksCrossTraffic) {
  network_.set_partition(a_, 1);
  network_.set_partition(b_, 2);
  send_ab();
  sim_.run();
  EXPECT_TRUE(rb_.received.empty());
  EXPECT_EQ(network_.metrics().dropped_partition, 1u);
}

TEST_F(NetworkTest, SamePartitionDelivers) {
  network_.set_partition(a_, 3);
  network_.set_partition(b_, 3);
  send_ab();
  sim_.run();
  EXPECT_EQ(rb_.received.size(), 1u);
}

TEST_F(NetworkTest, ClearPartitionsHeals) {
  network_.set_partition(a_, 1);
  network_.set_partition(b_, 2);
  network_.clear_partitions();
  send_ab();
  sim_.run();
  EXPECT_EQ(rb_.received.size(), 1u);
}

TEST_F(NetworkTest, PartitionFormedMidFlightDropsInFlight) {
  send_ab();
  // From a sender nothing was ever set for, until its partition below.
  const NodeId stranger{42};
  network_.send(Envelope{stranger, a_, 0, 64, 0});
  // The partition forms while the messages are in the air: links are cut,
  // so the delivery-time re-check must drop both.
  network_.set_partition(b_, 2);
  network_.set_partition(stranger, 3);
  sim_.run();
  EXPECT_TRUE(rb_.received.empty());
  EXPECT_TRUE(ra_.received.empty());
  EXPECT_EQ(network_.metrics().dropped_partition, 2u);
  EXPECT_EQ(network_.metrics().delivered, 0u);
}

// Regression (drop-accounting audit): a message whose destination is both
// crashed AND partitioned away must land in exactly one drop bucket.
TEST_F(NetworkTest, CrashPlusPartitionCountsExactlyOnce) {
  send_ab();
  network_.crash(b_);
  network_.set_partition(b_, 2);
  sim_.run();
  const auto& m = network_.metrics();
  EXPECT_EQ(m.dropped_crash + m.dropped_partition, 1u);
  EXPECT_EQ(m.dropped_crash, 1u);  // crash takes precedence, deterministic
  EXPECT_EQ(m.sent, m.delivered + m.dropped_loss + m.dropped_partition +
                        m.dropped_crash + m.dropped_unattached);
}

// Regression: the conservation identity holds across every drop cause at
// once (loss link + crashes + partitions + an unattached destination).
TEST_F(NetworkTest, ConservationHoldsAcrossMixedDropCauses) {
  network_.set_link(a_, b_, LinkConfig{LatencyModel::fixed(sim::msec(1)), 0.5});
  for (int i = 0; i < 200; ++i) send_ab();
  network_.send(Envelope{a_, NodeId{99}, 0, 64, 0});  // unattached
  sim_.run();
  // Lossless from here so the crash/partition messages reach their checks.
  network_.set_link(a_, b_, LinkConfig{LatencyModel::fixed(sim::msec(1)), 0.0});
  network_.crash(b_);
  send_ab();              // in-flight crash drop
  network_.crash(a_);
  send_ab();              // source-crash attempt: excluded from `sent`
  network_.recover(a_);
  network_.set_partition(a_, 1);
  send_ab();              // partition drop (send-time)
  sim_.run();

  const auto& m = network_.metrics();
  EXPECT_EQ(m.dropped_src_crash, 1u);
  EXPECT_GE(m.dropped_crash, 1u);
  EXPECT_GE(m.dropped_partition, 1u);
  EXPECT_EQ(m.dropped_unattached, 1u);
  EXPECT_EQ(m.sent, m.delivered + m.dropped_loss + m.dropped_partition +
                        m.dropped_crash + m.dropped_unattached);
}

TEST_F(NetworkTest, DefaultDropProbabilityAdjustsAndRestores) {
  network_.set_default_drop_probability(1.0);
  send_ab();
  sim_.run();
  EXPECT_EQ(network_.metrics().dropped_loss, 1u);
  network_.set_default_drop_probability(0.0);
  send_ab();
  sim_.run();
  EXPECT_EQ(network_.metrics().delivered, 1u);
  // Per-link overrides are unaffected by the default-link adjustment.
  network_.set_link(a_, b_, LinkConfig{LatencyModel::fixed(sim::msec(1)), 0.0});
  network_.set_default_drop_probability(1.0);
  send_ab();
  sim_.run();
  EXPECT_EQ(network_.metrics().delivered, 2u);
}

TEST_F(NetworkTest, UnattachedDestinationCounted) {
  network_.send(Envelope{a_, NodeId{99}, 0, 64, 0});
  sim_.run();
  EXPECT_EQ(network_.metrics().dropped_unattached, 1u);
}

TEST_F(NetworkTest, DetachStopsDelivery) {
  network_.detach(b_);
  send_ab();
  sim_.run();
  EXPECT_TRUE(rb_.received.empty());
  EXPECT_FALSE(network_.is_attached(b_));
}

TEST_F(NetworkTest, PerLinkOverrideAppliesSymmetrically) {
  network_.set_link(a_, b_, LinkConfig{LatencyModel::fixed(sim::msec(50)), 0.0});
  send_ab();
  sim_.run();
  EXPECT_EQ(sim_.now(), sim::msec(50));
  // Reverse direction uses the same override.
  network_.send(Envelope{b_, a_, 0, 64, 0});
  sim_.run();
  EXPECT_EQ(sim_.now(), sim::msec(100));
}

TEST_F(NetworkTest, LossDropsApproximatelyAtConfiguredRate) {
  network_.set_link(a_, b_, LinkConfig{LatencyModel::fixed(1), 0.3});
  constexpr int kSends = 5000;
  for (int i = 0; i < kSends; ++i) send_ab();
  sim_.run();
  const double loss_rate =
      static_cast<double>(network_.metrics().dropped_loss) / kSends;
  EXPECT_NEAR(loss_rate, 0.3, 0.03);
  EXPECT_EQ(network_.metrics().delivered + network_.metrics().dropped_loss,
            static_cast<std::uint64_t>(kSends));
}

TEST_F(NetworkTest, TapSeesVerdicts) {
  int delivered = 0, dropped = 0;
  network_.set_tap([&](const Envelope&, bool ok) {
    ok ? ++delivered : ++dropped;
  });
  send_ab();
  sim_.run();  // deliver before the crash: in-flight messages would drop
  network_.crash(b_);
  send_ab();
  sim_.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(dropped, 1);
}

TEST_F(NetworkTest, DeliveryLatencyAccumulated) {
  send_ab();
  sim_.run();
  EXPECT_EQ(network_.metrics().delivery_latency_us.count(), 1u);
  EXPECT_DOUBLE_EQ(network_.metrics().delivery_latency_us.mean(),
                   static_cast<double>(sim::msec(1)));
}

TEST_F(NetworkTest, ResetMetricsClears) {
  send_ab();
  sim_.run();
  network_.reset_metrics();
  EXPECT_EQ(network_.metrics().sent, 0u);
  EXPECT_TRUE(network_.metrics().sent_per_kind.empty());
}

TEST_F(NetworkTest, LinkKeySeparatesHighBitNodeIds) {
  // Regression: the packed 64-bit key ORed the ids together unmasked
  // ((min << 32) | max), so {1, 2} and {1, 2^32 + 2} collided onto the
  // same link record — an override for one silently governed the other.
  const NodeId high{(1ULL << 32) + 2};
  Recorder rhigh;
  network_.attach(high, &rhigh);
  network_.set_link(a_, b_,
                    LinkConfig{LatencyModel::fixed(sim::msec(50)), 0.0});
  network_.send(Envelope{a_, high, 0, 64, 0});
  sim_.run();
  ASSERT_EQ(rhigh.received.size(), 1u);
  EXPECT_EQ(sim_.now(), sim::msec(1));  // default link, not the {1,2} one
  // Both links hold distinct configs side by side.
  network_.set_link(a_, high,
                    LinkConfig{LatencyModel::fixed(sim::msec(7)), 0.0});
  send_ab();
  sim_.run();
  EXPECT_EQ(sim_.now(), sim::msec(51));
  network_.send(Envelope{a_, high, 0, 64, 0});
  sim_.run();
  EXPECT_EQ(sim_.now(), sim::msec(58));
  EXPECT_EQ(rhigh.received.size(), 2u);
}

TEST_F(NetworkTest, NoNegativeDeliveryLatencyAcrossCappedRuns) {
  // Companion to the run_until cap bugfix: driving the simulation in
  // event-capped chunks (the bench/oracle pattern) must never observe a
  // delivery earlier than its send — every latency sample stays the exact
  // link delay.
  network_.set_link(a_, b_,
                    LinkConfig{LatencyModel::fixed(sim::msec(2)), 0.0});
  for (int burst = 0; burst < 5; ++burst) {
    const sim::Time deadline = sim::sec(static_cast<sim::Time>(burst + 1));
    send_ab();
    send_ab();
    // A deadline far past the pending deliveries with a tiny event budget:
    // the buggy clock jumped here, making later sends look "in the past".
    sim_.run_until(deadline, 1);
    send_ab();
    sim_.run_until(deadline);
  }
  const auto& lat = network_.metrics().delivery_latency_us;
  EXPECT_EQ(lat.count(), 15u);
  EXPECT_DOUBLE_EQ(lat.min(), static_cast<double>(sim::msec(2)));
  EXPECT_DOUBLE_EQ(lat.max(), static_cast<double>(sim::msec(2)));
}

TEST_F(NetworkTest, AttachReplacesEndpoint) {
  Recorder rb2;
  network_.attach(b_, &rb2);
  send_ab();
  sim_.run();
  EXPECT_TRUE(rb_.received.empty());
  EXPECT_EQ(rb2.received.size(), 1u);
}

TEST_F(NetworkTest, InFlightMessageReachesEndpointAttachedBeforeDelivery) {
  // Addressed to an id with no endpoint at send, attached while in flight.
  const NodeId late{99};
  Recorder rlate;
  network_.send(Envelope{a_, late, 0, 64, 0});
  network_.attach(late, &rlate);
  // Re-attached to a new endpoint while in flight.
  Recorder rb2;
  send_ab();
  network_.attach(b_, &rb2);
  sim_.run();
  EXPECT_EQ(rlate.received.size(), 1u);
  EXPECT_TRUE(rb_.received.empty());
  EXPECT_EQ(rb2.received.size(), 1u);
  EXPECT_EQ(network_.metrics().delivered, 2u);
  EXPECT_EQ(network_.metrics().dropped_unattached, 0u);
}

TEST_F(NetworkTest, DetachWhileInFlightCountsUnattached) {
  send_ab();
  network_.detach(b_);
  sim_.run();
  EXPECT_TRUE(rb_.received.empty());
  EXPECT_EQ(network_.metrics().sent, 1u);
  EXPECT_EQ(network_.metrics().dropped_unattached, 1u);
  EXPECT_EQ(network_.metrics().delivered, 0u);
}

TEST_F(NetworkTest, CrashedBeforeAttachRefusesFirstSend) {
  const NodeId c{7};
  Recorder rc;
  network_.crash(c);
  network_.attach(c, &rc);
  network_.send(Envelope{c, b_, 0, 64, 0});
  sim_.run();
  EXPECT_TRUE(rb_.received.empty());
  EXPECT_EQ(network_.metrics().dropped_src_crash, 1u);
  EXPECT_EQ(network_.metrics().sent, 0u);
}

TEST_F(NetworkTest, CrashedSinceKeepsFirstCrashTime) {
  EXPECT_EQ(network_.crashed_since(b_), std::nullopt);
  sim_.run_until(sim::msec(5));
  network_.crash(b_);
  sim_.run_until(sim::msec(9));
  network_.crash(b_);
  EXPECT_EQ(network_.crashed_since(b_), std::optional{sim::msec(5)});
  network_.recover(b_);
  EXPECT_FALSE(network_.is_crashed(b_));
  EXPECT_EQ(network_.crashed_since(b_), std::nullopt);
}

TEST_F(NetworkTest, ClearPartitionsHealsPartitionSetBeforeAttach) {
  const NodeId c{7};
  Recorder rc;
  network_.set_partition(c, 3);
  network_.attach(c, &rc);
  EXPECT_EQ(network_.partition_of(c), 3);
  network_.send(Envelope{a_, c, 0, 64, 0});
  sim_.run();
  EXPECT_EQ(network_.metrics().dropped_partition, 1u);
  network_.clear_partitions();
  EXPECT_EQ(network_.partition_of(c), 0);
  network_.send(Envelope{a_, c, 0, 64, 0});
  sim_.run();
  EXPECT_EQ(rc.received.size(), 1u);
}

TEST_F(NetworkTest, LinkOverrideSetBeforeAttachAppliesBothWays) {
  const NodeId c{7}, d{8};
  Recorder rc, rd;
  network_.set_link(c, d, LinkConfig{LatencyModel::fixed(sim::msec(50)), 0.0});
  network_.attach(c, &rc);
  network_.attach(d, &rd);
  network_.send(Envelope{c, d, 0, 64, 0});
  sim_.run();
  EXPECT_EQ(sim_.now(), sim::msec(50));
  network_.send(Envelope{d, c, 0, 64, 0});
  sim_.run();
  EXPECT_EQ(sim_.now(), sim::msec(100));
  EXPECT_EQ(rc.received.size(), 1u);
  EXPECT_EQ(rd.received.size(), 1u);
}

}  // namespace
}  // namespace rgb::net
