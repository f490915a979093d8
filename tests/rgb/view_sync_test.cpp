// Digest-first anti-entropy (PR3): convergence through a faulty run, the
// digest-collision path, a leader's kFull reused across one kSummary
// fan-out, steady-state traffic that stays flat in the member count, and
// replay determinism of the bench.scale scenario across worker-thread
// counts.
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

// --- kFull reuse across one kSummary fan-out ---------------------------------

/// A three-AP ring with probing off: every sync below is hand-delivered,
/// and no probe tick drops the leader's cached kFull between two kDigests.
/// Records every kFull the leader sends.
struct FullReuseRig {
  common::RngStream rng{0xF0117};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  RgbSystem sys{network, RgbConfig{}, HierarchyLayout{1, 3}};
  NodeId leader = sys.aps()[0];
  NodeId a = sys.aps()[1];
  NodeId b = sys.aps()[2];
  struct Full {
    net::Payload payload;    ///< keeps the message alive for the checks
    const ViewSyncMsg* msg;  ///< the shared payload's address
  };
  std::vector<Full> fulls;

  FullReuseRig() {
    sys.join(Guid{1}, sys.aps()[0]);
    simulator.run();
    network.set_tap([this](const net::Envelope& env, bool) {
      if (env.kind != kind::kViewSync || env.src != leader) return;
      const auto& msg = env.payload.get<ViewSyncMsg>();
      if (msg.phase == ViewSyncMsg::Phase::kFull) {
        fulls.push_back(Full{env.payload, &msg});
      }
    });
  }

  const GroupDirectory& dir(NodeId ne) { return sys.entity(ne)->directory(); }

  /// Lands `entries` in `ne`'s directory as a kDiff (imported, no reply).
  void inject(NodeId ne, std::vector<TableEntry> entries) {
    ViewSyncMsg msg;
    msg.phase = ViewSyncMsg::Phase::kDiff;
    msg.entries = std::move(entries);
    network.send(net::Envelope{a == ne ? b : a, ne, kind::kViewSync,
                               wire_size(msg), msg});
    simulator.run();
  }

  /// `peer`'s packed kDigest to the leader, as a kSummary mismatch draws it.
  void digest_from(NodeId peer) {
    ViewSyncMsg msg;
    msg.phase = ViewSyncMsg::Phase::kDigest;
    msg.digest = dir(peer).combined_digest().hash;
    msg.entry_count =
        static_cast<std::uint32_t>(dir(peer).combined_digest().count);
    msg.group_digests = dir(peer).packed_digests();
    network.send(
        net::Envelope{peer, leader, kind::kViewSync, wire_size(msg), msg});
  }
};

TableEntry sync_entry(std::uint64_t gid, std::uint64_t guid,
                      std::uint64_t seq) {
  return TableEntry{proto::MemberRecord{Guid{guid}, NodeId{4},
                                        proto::MemberStatus::kOperational},
                    seq, seq, GroupId{gid}};
}

TEST(ViewSyncFullReuse, PeersWithOneScopeShareOnePayloadAndConverge) {
  FullReuseRig rig;
  rig.inject(rig.leader, {sync_entry(1, 50, 900), sync_entry(2, 60, 901)});
  rig.digest_from(rig.a);
  rig.digest_from(rig.b);
  rig.simulator.run();

  ASSERT_EQ(rig.fulls.size(), 2u);
  EXPECT_EQ(rig.fulls[0].msg, rig.fulls[1].msg)
      << "same directory, same scope: the second kFull reuses the first";
  EXPECT_EQ(rig.dir(rig.a).combined_digest(),
            rig.dir(rig.leader).combined_digest());
  EXPECT_EQ(rig.dir(rig.b).combined_digest(),
            rig.dir(rig.leader).combined_digest());
}

TEST(ViewSyncFullReuse, AnotherScopeGetsItsOwnFull) {
  FullReuseRig rig;
  // b lacks one leader entry (scope {1}); a lacks it too and alone holds
  // an entry of group 2 (scope {1, 2}), which only a {1, 2}-scoped kFull
  // draws back to the leader in a's kDiff.
  rig.inject(rig.leader, {sync_entry(1, 50, 900)});
  rig.inject(rig.a, {sync_entry(2, 60, 901)});
  rig.digest_from(rig.b);
  rig.simulator.run();
  rig.digest_from(rig.a);
  rig.simulator.run();

  ASSERT_EQ(rig.fulls.size(), 2u);
  EXPECT_NE(rig.fulls[0].msg, rig.fulls[1].msg);
  EXPECT_EQ(rig.fulls[1].msg->sync_gids,
            (std::vector<GroupId>{GroupId{1}, GroupId{2}}));
  EXPECT_TRUE(rig.dir(rig.b).lookup(GroupId{1}, Guid{50}).has_value());
  EXPECT_EQ(rig.dir(rig.a).combined_digest(),
            rig.dir(rig.leader).combined_digest());
}

TEST(ViewSyncFullReuse, DirectoryChangeBetweenDigestsGetsAFreshFull) {
  FullReuseRig rig;
  rig.inject(rig.leader, {sync_entry(1, 50, 900)});
  rig.digest_from(rig.b);
  rig.simulator.run();
  // An op lands at the leader before a's kDigest (same scope as b's).
  rig.inject(rig.leader, {sync_entry(1, 70, 902)});
  rig.digest_from(rig.a);
  rig.simulator.run();

  ASSERT_EQ(rig.fulls.size(), 2u);
  EXPECT_NE(rig.fulls[0].msg, rig.fulls[1].msg);
  EXPECT_TRUE(rig.dir(rig.a).lookup(GroupId{1}, Guid{70}).has_value())
      << "the second peer must receive the entry that landed in between";
  EXPECT_EQ(rig.dir(rig.a).combined_digest(),
            rig.dir(rig.leader).combined_digest());
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
