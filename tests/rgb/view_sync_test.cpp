// Digest-first anti-entropy (PR3): convergence through a faulty run, the
// digest-collision path, when a kSummary mismatch escalates to a kDigest,
// a leader's kFull reused across one kSummary fan-out, steady-state
// traffic that stays flat in the member count, and replay determinism of
// the bench.scale scenario across worker-thread counts.
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
  std::vector<std::string> ring_faults;
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
  result.ring_faults = sys.ring_faults();
  return result;
}

TEST(ViewSyncConvergence, FaultyRunConvergesEverywhere) {
  const FaultyRunResult run = run_faulty();

  ASSERT_TRUE(run.converged) << "anti-entropy failed to converge";
  EXPECT_EQ(run.ring_faults, std::vector<std::string>{});
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

// --- kSummary escalation -----------------------------------------------------

/// The collision test's setup as a rig: a three-AP ring with probing off
/// and one member. kSummary frames are hand-delivered to `receiver` from
/// `sender` (cross-ring style: no roster, so no ring-shape adoption), and
/// every kDigest the receiver answers with is counted.
struct EscalationRig {
  common::RngStream rng{0xE5CA1A7E};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  RgbConfig config;  // notify_timeout 1.5s, max_notify_retx 3: a 6s horizon
  RgbSystem sys{network, config, HierarchyLayout{1, 3}};
  NodeId receiver = sys.aps()[1];
  NodeId sender = sys.aps()[2];
  std::size_t digests = 0;
  std::uint64_t next_guid = 100;

  EscalationRig() {
    sys.join(Guid{1}, sys.aps()[0]);
    simulator.run();
    network.set_tap([this](const net::Envelope& env, bool) {
      if (env.kind == kind::kViewSync && env.src == receiver &&
          env.payload.get<ViewSyncMsg>().phase == ViewSyncMsg::Phase::kDigest) {
        ++digests;
      }
    });
  }

  /// Sends a kSummary at `at` (it lands 1ms later) whose digest matches
  /// the receiver's view or not.
  void summary_at(sim::Time at, bool matching) {
    simulator.run_until(at);
    const ViewDigest mine =
        sys.entity(receiver)->directory().combined_digest();
    ViewSyncMsg msg;
    msg.phase = ViewSyncMsg::Phase::kSummary;
    msg.digest = matching ? mine.hash : mine.hash ^ 1;
    msg.entry_count = static_cast<std::uint32_t>(mine.count);
    network.send(net::Envelope{sender, receiver, kind::kViewSync,
                               wire_size(msg), msg});
    simulator.run();
  }

  /// A local table change at the receiver, as an op landing would make.
  void change() {
    ViewSyncMsg msg;
    msg.phase = ViewSyncMsg::Phase::kDiff;
    msg.entries = {TableEntry{
        proto::MemberRecord{Guid{next_guid++}, NodeId{4},
                            proto::MemberStatus::kOperational},
        900, 900, GroupId{1}}};
    network.send(net::Envelope{sender, receiver, kind::kViewSync,
                               wire_size(msg), msg});
    simulator.run();
  }
};

TEST(ViewSyncEscalation, MismatchThatClearsByTheNextSummaryDrawsNoDigest) {
  EscalationRig rig;
  const sim::Time t0 = rig.simulator.now();
  rig.summary_at(t0, false);
  rig.summary_at(t0 + sim::msec(100), true);
  EXPECT_EQ(rig.digests, 0u);
  // The matching summary closed the record: the next mismatch is a first
  // one again.
  rig.summary_at(t0 + sim::msec(200), false);
  EXPECT_EQ(rig.digests, 0u);
}

TEST(ViewSyncEscalation, QuietMismatchEscalatesOnItsSecondSummary) {
  EscalationRig rig;
  const sim::Time t0 = rig.simulator.now();
  rig.summary_at(t0, false);
  EXPECT_EQ(rig.digests, 0u);
  rig.summary_at(t0 + sim::msec(100), false);
  EXPECT_EQ(rig.digests, 1u);
  // Escalating closed the record: the exchange gets a tick to land.
  rig.summary_at(t0 + sim::msec(200), false);
  EXPECT_EQ(rig.digests, 1u);
}

TEST(ViewSyncEscalation, LocalTableChangeBetweenSummariesDefersEscalation) {
  EscalationRig rig;
  const sim::Time t0 = rig.simulator.now();
  rig.summary_at(t0, false);
  rig.change();
  rig.summary_at(t0 + sim::msec(100), false);
  EXPECT_EQ(rig.digests, 0u) << "the view moved: the op may be in flight";
  rig.summary_at(t0 + sim::msec(200), false);
  EXPECT_EQ(rig.digests, 1u) << "a quiet tick escalates";
}

TEST(ViewSyncEscalation, DeferralEndsAtTheGiveUpHorizon) {
  EscalationRig rig;
  const sim::Duration horizon =
      rig.config.notify_timeout *
      static_cast<sim::Duration>(rig.config.max_notify_retx + 1);
  ASSERT_EQ(horizon, sim::sec(6));
  const sim::Time t0 = rig.simulator.now();
  rig.summary_at(t0, false);
  // The view changes before every summary: never a quiet tick.
  for (sim::Time at = t0 + sim::sec(1); at < t0 + horizon; at += sim::sec(1)) {
    rig.change();
    rig.summary_at(at, false);
  }
  rig.change();
  rig.summary_at(t0 + horizon - 1, false);
  EXPECT_EQ(rig.digests, 0u);
  rig.change();
  rig.summary_at(t0 + horizon, false);
  EXPECT_EQ(rig.digests, 1u) << "the mismatch has lasted the horizon";
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

// --- the bucket level (wire v5) ---------------------------------------------

/// A three-AP ring with probing off whose leader and peer `a` both hold
/// group 1 with 2,000 records, identical; every sync is hand-delivered and
/// every kViewSync frame is recorded with its sender.
struct BucketRig {
  common::RngStream rng{0xB0C7E75};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  RgbSystem sys{network, RgbConfig{}, HierarchyLayout{1, 3}};
  NodeId leader = sys.aps()[0];
  NodeId a = sys.aps()[1];
  NodeId b = sys.aps()[2];
  struct Frame {
    NodeId src;
    net::Payload payload;
    const ViewSyncMsg* msg;
  };
  std::vector<Frame> frames;

  static constexpr std::uint64_t kRecords = 2000;

  BucketRig() {
    std::vector<TableEntry> group;
    for (std::uint64_t guid = 1; guid <= kRecords; ++guid) {
      group.push_back(sync_entry(1, guid, 10));
    }
    inject(leader, group);
    inject(a, group);
    network.set_tap([this](const net::Envelope& env, bool) {
      if (env.kind != kind::kViewSync) return;
      frames.push_back(Frame{env.src, env.payload,
                             &env.payload.get<ViewSyncMsg>()});
    });
  }

  const GroupDirectory& dir(NodeId ne) {
    return sys.entity(ne)->directory();
  }

  /// Lands `entries` in `ne`'s directory as a kDiff (imported, no reply).
  void inject(NodeId ne, std::vector<TableEntry> entries) {
    ViewSyncMsg msg;
    msg.phase = ViewSyncMsg::Phase::kDiff;
    msg.entries = std::move(entries);
    send(ne == b ? a : b, ne, msg);
  }

  void send(NodeId from, NodeId to, const ViewSyncMsg& msg) {
    network.send(
        net::Envelope{from, to, kind::kViewSync, wire_size(msg), msg});
    simulator.run();
  }

  /// `a`'s packed kDigest to the leader, as a kSummary mismatch draws it.
  void digest_from_a() {
    ViewSyncMsg msg;
    msg.phase = ViewSyncMsg::Phase::kDigest;
    msg.digest = dir(a).combined_digest().hash;
    msg.entry_count =
        static_cast<std::uint32_t>(dir(a).combined_digest().count);
    msg.group_digests = dir(a).packed_digests();
    send(a, leader, msg);
  }

  std::vector<const ViewSyncMsg*> sent(NodeId src, ViewSyncMsg::Phase phase) {
    std::vector<const ViewSyncMsg*> out;
    for (const Frame& f : frames) {
      if (f.src == src && f.msg->phase == phase) out.push_back(f.msg);
    }
    return out;
  }
};

TEST(ViewSyncBuckets, OneDifferingRecordShipsAtMostOneBucket) {
  BucketRig rig;
  const Guid changed{1234};
  rig.inject(rig.leader, {sync_entry(1, changed.value(), 11)});
  rig.frames.clear();
  rig.digest_from_a();

  using Phase = ViewSyncMsg::Phase;
  const std::size_t bucket = MemberTable::bucket_of(changed);
  ASSERT_EQ(rig.sent(rig.leader, Phase::kBuckets).size(), 1u);
  EXPECT_TRUE(rig.sent(rig.leader, Phase::kFull).empty())
      << "a 2,000-record group must not ship whole";
  const auto fulls = rig.sent(rig.a, Phase::kFull);
  ASSERT_EQ(fulls.size(), 1u);
  const BucketScope one{GroupId{1}, {static_cast<std::uint32_t>(bucket)}};
  EXPECT_EQ(fulls[0]->bucket_scope, (std::vector<BucketScope>{one}));
  std::size_t in_bucket = 0;
  for (std::uint64_t guid = 1; guid <= BucketRig::kRecords; ++guid) {
    in_bucket += MemberTable::bucket_of(Guid{guid}) == bucket;
  }
  EXPECT_EQ(fulls[0]->entries.size(), in_bucket);
  EXPECT_LT(in_bucket, 2 * BucketRig::kRecords / kBucketCount);
  const auto diffs = rig.sent(rig.leader, Phase::kDiff);
  ASSERT_EQ(diffs.size(), 1u);
  ASSERT_EQ(diffs[0]->entries.size(), 1u);
  EXPECT_EQ(diffs[0]->entries[0].record.guid, changed);
  EXPECT_EQ(rig.dir(rig.a).combined_digest(),
            rig.dir(rig.leader).combined_digest());
}

/// The bucket-level twin of CollidingDigestIsBenignAndNextTickHeals: the
/// group digests differ, yet every bucket digest the kBuckets frame
/// carries matches the receiver's (the observable effect of a collision).
/// Nothing is shipped and nothing changes; the next change heals it.
TEST(ViewSyncCollision, CollidingBucketDigestsAreBenignAndNextChangeHeals) {
  BucketRig rig;
  rig.inject(rig.leader, {sync_entry(1, 77, 11)});
  ASSERT_NE(rig.dir(rig.a).combined_digest(),
            rig.dir(rig.leader).combined_digest());
  const ViewDigest before = rig.dir(rig.a).combined_digest();
  const std::uint64_t changes = rig.dir(rig.a).change_count();

  ViewSyncMsg colliding;
  colliding.phase = ViewSyncMsg::Phase::kBuckets;
  colliding.group_buckets.push_back(
      GroupBuckets{GroupId{1},
                   rig.dir(rig.a).table_if(GroupId{1})->bucket_digests()});
  rig.frames.clear();
  rig.send(rig.leader, rig.a, colliding);
  EXPECT_EQ(rig.frames.size(), 1u) << "ours only: a ships nothing";
  EXPECT_EQ(rig.dir(rig.a).combined_digest(), before) << "no state change";
  EXPECT_EQ(rig.dir(rig.a).change_count(), changes);

  // The next change moves a bucket digest, and one exchange heals both
  // differences.
  rig.inject(rig.leader, {sync_entry(1, 78, 11)});
  rig.digest_from_a();
  EXPECT_EQ(rig.dir(rig.a).combined_digest(),
            rig.dir(rig.leader).combined_digest());
  EXPECT_EQ(rig.dir(rig.a).lookup(GroupId{1}, Guid{77})->last_seq, 11u);
}

/// Hostile bucket fields that reach the handler without a decoder (an
/// in-process payload): bucket indices of kBucketCount or more are ignored,
/// and a scope naming a group the receiver lacks diffs nothing and
/// instantiates nothing.
TEST(ViewSyncBuckets, HostileScopesAreIgnoredByTheHandler) {
  BucketRig rig;
  const std::size_t groups = rig.dir(rig.leader).group_count();
  const ViewDigest before = rig.dir(rig.leader).combined_digest();

  ViewSyncMsg out_of_range;
  out_of_range.phase = ViewSyncMsg::Phase::kFull;
  out_of_range.reply_requested = true;
  out_of_range.bucket_scope = {
      BucketScope{GroupId{1}, {kBucketCount, 500, 0xFFFFFFFFu}}};
  ViewSyncMsg absent_group = out_of_range;
  absent_group.bucket_scope = {BucketScope{GroupId{99}, {0, 1, 2}}};
  ViewSyncMsg absent_buckets;
  absent_buckets.phase = ViewSyncMsg::Phase::kBuckets;
  absent_buckets.group_buckets = {GroupBuckets{GroupId{99}, {}}};
  absent_buckets.group_buckets[0].hashes[3] = 1;
  rig.frames.clear();
  rig.send(rig.a, rig.leader, out_of_range);
  rig.send(rig.a, rig.leader, absent_group);
  EXPECT_EQ(rig.frames.size(), 2u) << "nothing in scope: no kDiff";
  rig.send(rig.a, rig.leader, absent_buckets);
  // The leader lacks group 99: its bucket 3 differs, and its (empty) share
  // of it ships, asking for the sender's.
  const auto fulls = rig.sent(rig.leader, ViewSyncMsg::Phase::kFull);
  ASSERT_EQ(fulls.size(), 1u);
  EXPECT_TRUE(fulls[0]->entries.empty());
  EXPECT_EQ(fulls[0]->bucket_scope,
            (std::vector<BucketScope>{BucketScope{GroupId{99}, {3}}}));
  EXPECT_EQ(rig.dir(rig.leader).group_count(), groups);
  EXPECT_EQ(rig.dir(rig.leader).combined_digest(), before);
}

// --- steady-state traffic ----------------------------------------------------

TEST(ViewSyncTraffic, SteadyStateBytesFlatInMemberCount) {
  // The PR3 claim, pinned as a regression test: a steady-state sync tick
  // ships an O(1) digest per link, so over the same 10-tick window on one
  // layout the kViewSync bytes do not grow with the member count (both
  // runs must actually converge for the window to be steady state).
  exp::ScaleConfig config;
  config.members = 250;
  const exp::ScaleStats small = exp::run_scale_trial(config);
  config.members = 1000;
  const exp::ScaleStats large = exp::run_scale_trial(config);

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
