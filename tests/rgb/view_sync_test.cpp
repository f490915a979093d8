// Digest-first anti-entropy (PR3): convergence through a faulty run, the
// digest-collision path, steady-state traffic that stays flat in the member
// count, and replay determinism of the bench.scale scenario across
// worker-thread counts.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "exp/exp.hpp"
#include "net/network.hpp"
#include "rgb/rgb.hpp"
#include "sim/simulator.hpp"

namespace rgb::core {
namespace {

/// One deterministic faulty run: joins, a loss burst, a partition of the
/// third AP ring (with a handoff originating inside the partition), heal,
/// settle. Every fault beat is scripted in virtual time.
struct FaultyRunResult {
  std::vector<std::vector<proto::MemberRecord>> views;  ///< per NE, id order
  bool converged = false;
  bool rings_consistent = false;
};

FaultyRunResult run_faulty() {
  common::RngStream rng{0x5EED5};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  RgbConfig config;
  // Generous retransmission budgets (as in the conformance driver): the
  // claim is about reconciliation semantics, not about surviving bursts
  // with a starved failure detector.
  config.retx_timeout = sim::msec(30);
  config.max_retx = 8;
  config.round_timeout = sim::msec(1000);
  config.notify_timeout = sim::msec(300);
  config.max_notify_retx = 12;
  config.probe_period = sim::msec(100);
  RgbSystem sys{network, config, HierarchyLayout{2, 3}};
  sys.start_probing();

  const auto& aps = sys.aps();  // 9 APs: nodes 4..12
  for (std::uint64_t i = 0; i < 6; ++i) {
    sys.join(Guid{i + 1}, aps[i % aps.size()]);
  }
  simulator.run_until(sim::sec(1));

  // Loss burst: 40% drop on every link for 1.5s, with a handoff inside.
  network.set_default_drop_probability(0.4);
  sys.handoff(Guid{1}, aps[4]);
  simulator.run_until(sim::msec(2500));
  network.set_default_drop_probability(0.0);

  // Partition the third AP ring (nodes 10..12) away; a handoff lands on a
  // partitioned AP, so its op is stuck until heal.
  for (const std::uint64_t node : {10, 11, 12}) {
    network.set_partition(NodeId{node}, 1);
  }
  sys.handoff(Guid{2}, aps[6]);  // node 10, inside the partition
  simulator.run_until(sim::sec(4));
  network.clear_partitions();

  // Settle: periodic probing keeps the event queue alive forever, so run
  // to a fixed horizon instead of draining.
  simulator.run_until(sim::sec(30));

  FaultyRunResult result;
  for (const NodeId ne : sys.all_nes()) {
    result.views.push_back(sys.entity(ne)->ring_members().snapshot());
  }
  result.converged = sys.membership_converged();
  result.rings_consistent = sys.rings_consistent();
  return result;
}

TEST(ViewSyncConvergence, FaultyRunConvergesEverywhere) {
  const FaultyRunResult run = run_faulty();

  ASSERT_TRUE(run.converged) << "anti-entropy failed to converge";
  EXPECT_TRUE(run.rings_consistent);
  // All NEs agree with each other (TMS + downward dissemination).
  ASSERT_FALSE(run.views.empty());
  for (std::size_t i = 1; i < run.views.size(); ++i) {
    EXPECT_EQ(run.views[i], run.views[0]) << "NE index " << i;
  }
}

// --- digest-collision path ---------------------------------------------------

/// Crafts a kDigest message that spoofs the receiver's own digest (the
/// observable effect of a 2^-64 hash collision between differing tables):
/// the receiver must treat it as in-sync — no reply, no state change — and
/// the next genuine (non-colliding) sync must reconcile as usual.
TEST(ViewSyncCollision, CollidingDigestIsBenignAndNextTickHeals) {
  common::RngStream rng{0xC0111DE};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  RgbConfig config;  // probing off: every sync below is hand-delivered
  RgbSystem sys{network, config, HierarchyLayout{1, 3}};

  sys.join(Guid{1}, sys.aps()[0]);
  simulator.run();
  const NodeId receiver = sys.aps()[1];
  const NetworkEntity* entity = sys.entity(receiver);
  // The receiver compares the *combined* (gid-mixed) directory digest, so
  // that is what a collision has to spoof.
  const ViewDigest before = entity->directory().combined_digest();
  ASSERT_GT(before.count, 0u);

  const auto viewsync_sends = [&] {
    return network.metrics().sent_of(kind::kViewSync);
  };

  // A "collision": the sender's (fictional, different) table happens to
  // hash to the receiver's own digest. Cross-ring style: no roster, so no
  // ring-shape adoption interferes.
  ViewSyncMsg colliding;
  colliding.phase = ViewSyncMsg::Phase::kDigest;
  colliding.digest = before.hash;
  colliding.entry_count = static_cast<std::uint32_t>(before.count);
  const std::uint64_t sends_before = viewsync_sends();
  network.send(net::Envelope{sys.aps()[2], receiver, kind::kViewSync,
                             wire_size(colliding), colliding});
  simulator.run();
  EXPECT_EQ(viewsync_sends(), sends_before + 1)  // ours; no reply sent
      << "a matching digest must not trigger reconciliation";
  EXPECT_EQ(entity->directory().combined_digest(), before)
      << "no state change";

  // The genuine mismatch path: a digest that does not match provokes the
  // kFull reply that reconciliation rides on.
  ViewSyncMsg mismatching = colliding;
  mismatching.digest ^= 1;
  network.send(net::Envelope{sys.aps()[2], receiver, kind::kViewSync,
                             wire_size(mismatching), mismatching});
  simulator.run();
  EXPECT_GE(viewsync_sends(), sends_before + 3)  // ours + the kFull reply
      << "a digest mismatch must provoke a reconciliation reply";
}

// --- steady-state traffic ----------------------------------------------------

TEST(ViewSyncTraffic, SteadyStateBytesFlatInMemberCount) {
  // The PR3 claim, pinned as a regression test: a steady-state sync tick
  // ships an O(1) digest per link, so over the same 10-tick window on one
  // layout the kViewSync bytes do not grow with the member count (both
  // runs must actually converge for the window to be steady state).
  exp::ScaleConfig config;
  config.members = 250;
  const exp::ScaleStats small = exp::run_scale_trial(config, false);
  config.members = 1000;
  const exp::ScaleStats large = exp::run_scale_trial(config, false);

  ASSERT_TRUE(small.converged);
  ASSERT_TRUE(large.converged);
  ASSERT_GT(small.viewsync_msgs, 0u);
  EXPECT_EQ(small.viewsync_msgs, large.viewsync_msgs);
  EXPECT_EQ(small.viewsync_bytes, large.viewsync_bytes)
      << "N=250: " << small.viewsync_bytes
      << " N=1000: " << large.viewsync_bytes;
}

// --- bench.scale determinism -------------------------------------------------

TEST(BenchScaleScenario, ReplayDeterministicAcross1And8Threads) {
  const exp::Scenario* registered = exp::builtin_scenarios().find("bench.scale");
  ASSERT_NE(registered, nullptr);
  // Trim to the dissemination-join cells: this asserts the determinism
  // contract, not the sweep depth (the full sweep runs in bench mode / CI
  // smoke).
  exp::Scenario scenario = *registered;
  scenario.cells.resize(2);  // members in {250, 1000}, dissemination join

  const auto csv_with = [&](unsigned threads) {
    exp::RunnerOptions options;
    options.threads = threads;
    options.base_seed = 7;
    const exp::RunResult result = exp::TrialRunner{options}.run(scenario);
    std::ostringstream csv;
    exp::write_csv(result, csv);
    return csv.str();
  };
  const std::string csv1 = csv_with(1);
  EXPECT_EQ(csv1, csv_with(8));
}

}  // namespace
}  // namespace rgb::core
