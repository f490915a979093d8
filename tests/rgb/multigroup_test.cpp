// Multi-group serving end to end: one hierarchy multiplexing G groups.
// Membership state is per-group (directory tables/queues); the probe, token,
// stability and reconcile machinery stays shared per-link. Covers per-group
// convergence (group_view_divergence, which a merged view cannot fake),
// group-scoped queries, per-group failure handling, the facade's
// deterministic member_groups() fan-out, the idle reaffirmation pass that
// skips its per-claim walk while nothing changed, and the reconcile round's
// flight record, which counts one claim per (member, group).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace rgb::core {
namespace {

using testing::RgbSystemTest;

class MultigroupTest : public RgbSystemTest {
 protected:
  static RgbConfig grouped(std::uint64_t groups, std::uint64_t per_member) {
    RgbConfig config;
    config.groups = groups;
    config.groups_per_member = per_member;
    return config;
  }

  void populate(RgbSystem& sys, std::uint64_t members) {
    for (std::uint64_t i = 0; i < members; ++i) {
      sys.join(common::Guid{i + 1}, sys.aps()[i % sys.aps().size()]);
    }
    run_all();
  }

  /// A multi-group system that has sat idle with probing on long enough
  /// for every AP's reaffirmation pass to start skipping.
  RgbSystem& idle_probing_system() {
    RgbConfig config = grouped(4, 2);
    config.probe_period = kProbe;
    auto& sys = build(2, 3, config);
    populate(sys, 12);
    sys.start_probing();
    run_for_ms(10 * kProbeMs);
    return sys;
  }

  /// Hands AP `x` a false Member-Failure for its own member `mh` in `gid`
  /// through anti-entropy: a kFull entry that ends x's claim epoch with a
  /// newer seq, as a failure-detector false positive elsewhere would.
  void import_false_failure(RgbSystem& sys, NodeId x, GroupId gid, Guid mh) {
    const auto entry = sys.entity(x)->directory().lookup(gid, mh);
    ASSERT_TRUE(entry.has_value());
    ASSERT_EQ(entry->record.status, MemberStatus::kOperational);
    ViewSyncMsg sync;
    sync.phase = ViewSyncMsg::Phase::kFull;
    sync.entries = {TableEntry{MemberRecord{mh, x, MemberStatus::kFailed},
                               entry->last_seq + 1, entry->claim_seq, gid}};
    const NodeId peer = sys.aps().back();
    network_.send(
        net::Envelope{peer, x, kind::kViewSync, wire_size(sync), sync});
    run_for_ms(5);
    ASSERT_EQ(sys.entity(x)->directory().lookup(gid, mh)->record.status,
              MemberStatus::kFailed);
  }

  static constexpr std::uint64_t kProbeMs = 100;
  static constexpr sim::Duration kProbe = sim::msec(kProbeMs);

  QueryClient::Result group_query(RgbSystem& sys, GroupId gid,
                                  proto::QueryScheme scheme) {
    QueryClient client{NodeId{990001}, network_};
    std::optional<QueryClient::Result> result;
    client.issue_group(sys.query_plan(scheme), gid, sim::sec(5),
                       [&](QueryClient::Result r) { result = std::move(r); });
    run_all();
    EXPECT_TRUE(result.has_value());
    return std::move(*result);
  }
};

TEST_F(MultigroupTest, ConvergesPerGroupAcrossTheSharedHierarchy) {
  auto& sys = build(2, 3, grouped(4, 2));
  populate(sys, 24);
  EXPECT_TRUE(sys.membership_converged());
  EXPECT_EQ(sys.view_divergence(), 0u);
  EXPECT_EQ(sys.group_view_divergence(), 0u);

  // 24 members x 2 groups each = 48 (group, member) pairs, spread over the
  // member_groups() stride.
  EXPECT_EQ(sys.grouped_expected_membership().size(), 48u);
}

TEST_F(MultigroupTest, GroupedExpectedFollowsMemberGroupsStride) {
  auto& sys = build(2, 3, grouped(5, 2));
  populate(sys, 10);
  const auto grouped_members = sys.grouped_expected_membership();
  for (const auto& [gid, rec] : grouped_members) {
    const std::vector<GroupId> assigned = member_groups(rec.guid, sys.config());
    EXPECT_TRUE(std::find(assigned.begin(), assigned.end(), gid) !=
                assigned.end())
        << rec.guid << " reported in " << gid << " but assigned elsewhere";
  }
  // And it is (gid, guid)-sorted, the canonical oracle order.
  EXPECT_TRUE(std::is_sorted(
      grouped_members.begin(), grouped_members.end(),
      [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first < b.first
                                  : a.second.guid < b.second.guid;
      }));
}

TEST_F(MultigroupTest, GroupScopedQueryReturnsOnlyThatGroup) {
  auto& sys = build(2, 3, grouped(3, 1));
  populate(sys, 12);

  // Each guid g lives in exactly group 1 + g % 3; with guids 1..12 every
  // group holds 4 members.
  std::vector<std::uint64_t> per_group(3, 0);
  for (std::uint64_t g = 1; g <= 12; ++g) per_group[g % 3] += 1;

  std::uint64_t total = 0;
  for (std::uint64_t gid = 1; gid <= 3; ++gid) {
    const auto result =
        group_query(sys, GroupId{gid}, proto::QueryScheme::kTopmost);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.members.size(), per_group[gid - 1]);
    for (const MemberRecord& rec : result.members) {
      EXPECT_EQ(1 + rec.guid.value() % 3, gid)
          << rec.guid << " leaked into group " << gid;
    }
    total += result.members.size();
  }
  EXPECT_EQ(total, 12u);

  // The group-less query still answers the merged, deduplicated view.
  QueryClient client{NodeId{990002}, network_};
  std::optional<QueryClient::Result> merged;
  client.issue(sys.query_plan(proto::QueryScheme::kTopmost), sim::sec(5),
               [&](QueryClient::Result r) { merged = std::move(r); });
  run_all();
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->members.size(), 12u);
}

TEST_F(MultigroupTest, LeaveAndFailRemoveTheMemberFromEveryGroup) {
  auto& sys = build(2, 3, grouped(4, 2));
  populate(sys, 8);
  ASSERT_EQ(sys.group_view_divergence(), 0u);

  sys.leave(common::Guid{3});
  sys.fail(common::Guid{5});
  run_all();

  EXPECT_EQ(sys.group_view_divergence(), 0u);
  // 8 members x 2 groups - 2 departed x 2 groups.
  EXPECT_EQ(sys.grouped_expected_membership().size(), 12u);
  for (const auto& [gid, rec] : sys.grouped_expected_membership()) {
    EXPECT_NE(rec.guid, common::Guid{3});
    EXPECT_NE(rec.guid, common::Guid{5});
  }
}

TEST_F(MultigroupTest, HandoffMovesTheMemberInAllItsGroups) {
  auto& sys = build(2, 3, grouped(3, 2));
  populate(sys, 6);
  const NodeId target = sys.aps().back();
  sys.handoff(common::Guid{1}, target);
  run_all();

  EXPECT_EQ(sys.group_view_divergence(), 0u);
  for (const auto& [gid, rec] : sys.grouped_expected_membership()) {
    if (rec.guid == common::Guid{1}) {
      EXPECT_EQ(rec.access_proxy, target);
    }
  }
}

TEST_F(MultigroupTest, SingleGroupConfigMatchesFlatSemantics) {
  // G=1 is the paper's protocol: grouped and flat oracles must agree
  // exactly (every member in GroupId{1}).
  auto& sys = build(2, 3, grouped(1, 1));
  populate(sys, 9);
  EXPECT_TRUE(sys.membership_converged());
  EXPECT_EQ(sys.view_divergence(), 0u);
  EXPECT_EQ(sys.group_view_divergence(), 0u);
  const auto grouped_members = sys.grouped_expected_membership();
  const auto flat = sys.expected_membership();
  ASSERT_EQ(grouped_members.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(grouped_members[i].first, GroupId{1});
    EXPECT_EQ(grouped_members[i].second.guid, flat[i].guid);
  }
}

TEST_F(MultigroupTest, IdleApReanchorsAFalseFailureImportedByAntiEntropy) {
  auto& sys = idle_probing_system();
  const Guid mh{2};
  const NodeId x = sys.ap_of(mh);
  ASSERT_FALSE(sys.entity(x)->is_leader());
  const GroupId gid = member_groups(mh, sys.config()).front();
  const std::uint64_t reanchors = sys.metrics().reconcile_reanchors.value();

  // No token round touches x's table: the import alone must re-arm the
  // pass, which then re-anchors on x's next tick.
  import_false_failure(sys, x, gid, mh);
  run_for_ms(kProbeMs + kProbeMs / 2);
  EXPECT_EQ(sys.metrics().reconcile_reanchors.value(), reanchors + 1);

  run_for_ms(20 * kProbeMs);
  for (const NodeId ne : sys.all_nes()) {
    const auto entry = sys.entity(ne)->directory().lookup(gid, mh);
    ASSERT_TRUE(entry.has_value()) << ne;
    EXPECT_EQ(entry->record.status, MemberStatus::kOperational) << ne;
    EXPECT_EQ(entry->record.access_proxy, x) << ne;
  }
  EXPECT_EQ(sys.group_view_divergence(), 0u);
  // Settled again: no further re-anchors while idle.
  EXPECT_EQ(sys.metrics().reconcile_reanchors.value(), reanchors + 1);
}

TEST_F(MultigroupTest, HeldBackReanchorIsReannouncedEveryTick) {
  auto& sys = idle_probing_system();
  const Guid mh{2};
  const NodeId x = sys.ap_of(mh);
  ASSERT_FALSE(sys.entity(x)->is_leader());
  const GroupId gid = member_groups(mh, sys.config()).front();

  import_false_failure(sys, x, gid, mh);
  // Cut x off: its re-anchor op cannot get the token, so x's table keeps
  // the false record and every tick's pass must re-announce the claim.
  network_.set_partition(x, 1);
  const std::uint64_t reanchors = sys.metrics().reconcile_reanchors.value();
  constexpr std::uint64_t kTicks = 8;
  run_for_ms(kTicks * kProbeMs);
  const std::uint64_t announced =
      sys.metrics().reconcile_reanchors.value() - reanchors;
  EXPECT_GE(announced, kTicks - 1);
  EXPECT_LE(announced, kTicks);
  EXPECT_EQ(sys.entity(x)->directory().lookup(gid, mh)->record.status,
            MemberStatus::kFailed);
}

// A reconcile round's flight record counts the claims its message carries,
// one per (member, group): with two groups per member, twice the members.
TEST_F(MultigroupTest, ReconcileRoundRecordsTheClaimsItSends) {
  auto& sys = build(2, 3, grouped(4, 2));
  const auto& ring = sys.rings(1)[0];
  const NodeId successor = ring[1];  // ids ascend: the next leader
  constexpr std::uint64_t kMembers = 3;
  for (std::uint64_t i = 1; i <= kMembers; ++i) sys.join(Guid{i}, successor);
  run_all();
  std::vector<std::uint64_t> sent;  // claims per kReconcile the successor sends
  network_.set_tap([&](const net::Envelope& env, bool) {
    if (env.kind == kind::kReconcile && env.src == successor) {
      sent.push_back(env.payload.get<ReconcileMsg>().claims.size());
    }
  });
  // The leader hands the ring over; the reform makes the successor, now
  // leader, assert its claims to its parent.
  sys.entity(ring.front())->request_ring_leave();
  run_all();

  std::vector<std::uint64_t> recorded;
  for (const obs::FlightEvent& e : sys.obs().tracer.flight_events()) {
    if (e.kind == obs::FlightKind::kReconcileRound && e.ne == successor) {
      recorded.push_back(e.a);
    }
  }
  ASSERT_TRUE(sys.entity(successor)->is_leader());
  EXPECT_EQ(sent, std::vector<std::uint64_t>{2 * kMembers});
  EXPECT_EQ(recorded, sent);
}

}  // namespace
}  // namespace rgb::core
