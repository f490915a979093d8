#include "workload/churn.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rgb::workload {
namespace {

/// Records every verb for inspection; no protocol behind it.
class RecordingService : public proto::MembershipService {
 public:
  void join(Guid mh, NodeId ap) override {
    members[mh] = ap;
    ++joins;
  }
  void leave(Guid mh) override {
    members.erase(mh);
    ++leaves;
  }
  void handoff(Guid mh, NodeId new_ap) override {
    members[mh] = new_ap;
    ++handoffs;
  }
  void fail(Guid mh) override {
    members.erase(mh);
    ++fails;
  }
  std::vector<proto::MemberRecord> membership(
      proto::QueryScheme) const override {
    std::vector<proto::MemberRecord> out;
    for (const auto& [g, ap] : members) {
      out.push_back({g, ap, proto::MemberStatus::kOperational});
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.guid < b.guid; });
    return out;
  }

  std::unordered_map<Guid, NodeId> members;
  int joins = 0, leaves = 0, handoffs = 0, fails = 0;
};

class ChurnTest : public rgb::testing::SimNetTest {
 protected:
  std::vector<NodeId> aps(int n) {
    std::vector<NodeId> out;
    for (int i = 0; i < n; ++i) out.push_back(NodeId{100 + static_cast<std::uint64_t>(i)});
    return out;
  }
};

TEST_F(ChurnTest, InitialMembersJoinImmediately) {
  RecordingService svc;
  ChurnConfig config;
  config.initial_members = 15;
  config.join_rate = config.leave_rate = config.handoff_rate =
      config.fail_rate = 0.0;
  ChurnWorkload w{simulator_, svc, aps(5), config};
  w.start();
  EXPECT_EQ(svc.joins, 15);
  EXPECT_EQ(w.stats().joins, 15u);
}

TEST_F(ChurnTest, EventsSpreadAcrossDuration) {
  RecordingService svc;
  ChurnConfig config;
  config.initial_members = 5;
  config.join_rate = 10.0;
  config.leave_rate = 0.0;
  config.handoff_rate = 0.0;
  config.fail_rate = 0.0;
  config.duration = sim::sec(10);
  ChurnWorkload w{simulator_, svc, aps(3), config};
  w.start();
  simulator_.run_until(sim::sec(5));
  const int mid = svc.joins;
  simulator_.run();
  // Roughly half the events by half time (Poisson, generous bounds).
  EXPECT_GT(mid, 5 + 20);
  EXPECT_LT(mid, 5 + 80);
  EXPECT_NEAR(static_cast<double>(svc.joins - 5), 100.0, 40.0);
}

TEST_F(ChurnTest, MixRespectsRates) {
  RecordingService svc;
  ChurnConfig config;
  config.initial_members = 50;
  config.join_rate = 5.0;
  config.leave_rate = 5.0;
  config.handoff_rate = 10.0;
  config.fail_rate = 0.0;
  config.duration = sim::sec(60);
  ChurnWorkload w{simulator_, svc, aps(10), config};
  w.start();
  simulator_.run();
  EXPECT_EQ(svc.fails, 0);
  EXPECT_GT(svc.handoffs, svc.leaves);  // 2x the rate
  EXPECT_GT(svc.joins, 0);
}

TEST_F(ChurnTest, ExpectedMembershipMatchesServiceGroundTruth) {
  RecordingService svc;
  ChurnConfig config;
  config.initial_members = 20;
  config.duration = sim::sec(20);
  ChurnWorkload w{simulator_, svc, aps(7), config};
  w.start();
  simulator_.run();
  EXPECT_EQ(w.expected_membership(), svc.membership(proto::QueryScheme::kTopmost));
}

TEST_F(ChurnTest, DeterministicGivenSeed) {
  RecordingService a_svc, b_svc;
  ChurnConfig config;
  config.initial_members = 10;
  config.duration = sim::sec(10);
  config.seed = 99;
  {
    sim::Simulator s;
    ChurnWorkload w{s, a_svc, aps(5), config};
    w.start();
    s.run();
  }
  {
    sim::Simulator s;
    ChurnWorkload w{s, b_svc, aps(5), config};
    w.start();
    s.run();
  }
  EXPECT_EQ(a_svc.membership(proto::QueryScheme::kTopmost),
            b_svc.membership(proto::QueryScheme::kTopmost));
  EXPECT_EQ(a_svc.joins, b_svc.joins);
  EXPECT_EQ(a_svc.handoffs, b_svc.handoffs);
}

TEST_F(ChurnTest, DifferentSeedsDiverge) {
  RecordingService a_svc, b_svc;
  ChurnConfig config;
  config.initial_members = 10;
  config.duration = sim::sec(30);
  {
    sim::Simulator s;
    config.seed = 1;
    ChurnWorkload w{s, a_svc, aps(5), config};
    w.start();
    s.run();
  }
  {
    sim::Simulator s;
    config.seed = 2;
    ChurnWorkload w{s, b_svc, aps(5), config};
    w.start();
    s.run();
  }
  EXPECT_NE(a_svc.joins + a_svc.handoffs * 1000,
            b_svc.joins + b_svc.handoffs * 1000);
}

TEST_F(ChurnTest, ZeroRatesProduceOnlyInitialJoins) {
  RecordingService svc;
  ChurnConfig config;
  config.initial_members = 3;
  config.join_rate = config.leave_rate = config.handoff_rate =
      config.fail_rate = 0.0;
  ChurnWorkload w{simulator_, svc, aps(2), config};
  w.start();
  simulator_.run();
  EXPECT_EQ(w.stats().total(), 3u);
}

TEST_F(ChurnTest, DrivesRealRgbSystem) {
  core::RgbConfig rgb_config;
  core::RgbSystem sys{network_, rgb_config,
                      core::HierarchyLayout{.ring_tiers = 2, .ring_size = 3}};
  ChurnConfig config;
  config.initial_members = 10;
  config.join_rate = 2.0;
  config.leave_rate = 1.0;
  config.handoff_rate = 3.0;
  config.fail_rate = 0.5;
  config.duration = sim::sec(5);
  ChurnWorkload w{simulator_, sys, sys.aps(), config};
  w.start();
  simulator_.run();
  // After quiescence the protocol's view equals the workload ground truth.
  EXPECT_EQ(sys.membership(), w.expected_membership());
  EXPECT_EQ(sys.ring_faults(), std::vector<std::string>{});
}

}  // namespace
}  // namespace rgb::workload
