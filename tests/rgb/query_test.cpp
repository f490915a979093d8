// The Membership-Query algorithm (Section 4.4) over the three maintenance
// schemes, including cost characteristics and timeout behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace rgb::core {
namespace {

using testing::RgbSystemTest;

class QueryTest : public RgbSystemTest {
 protected:
  /// Issues a query and runs the simulation until it resolves.
  QueryClient::Result query(RgbSystem& sys, proto::QueryScheme scheme,
                            sim::Duration timeout = sim::sec(5)) {
    QueryClient client{NodeId{990001}, network_};
    std::optional<QueryClient::Result> result;
    client.issue(sys.query_plan(scheme), timeout,
                 [&](QueryClient::Result r) { result = std::move(r); });
    run_all();
    EXPECT_TRUE(result.has_value());
    return std::move(*result);
  }

  void populate(RgbSystem& sys, int members) {
    for (int i = 0; i < members; ++i) {
      sys.join(common::Guid{static_cast<std::uint64_t>(i + 1)},
               sys.aps()[static_cast<std::size_t>(i) % sys.aps().size()]);
    }
    run_all();
  }
};

TEST_F(QueryTest, TmsReturnsFullMembershipWithTwoMessages) {
  auto& sys = build(3, 3);
  populate(sys, 12);
  const auto result = query(sys, proto::QueryScheme::kTopmost);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.members.size(), 12u);
  EXPECT_EQ(result.messages, 2u);  // one request, one reply
  EXPECT_EQ(result.targets, 1u);
}

TEST_F(QueryTest, BmsReturnsFullMembershipViaFanOut) {
  RgbConfig config;
  config.retain_tier = 2;  // BMS: only AP rings hold membership
  config.disseminate_down = false;
  auto& sys = build(3, 3, config);
  populate(sys, 12);
  const auto result = query(sys, proto::QueryScheme::kBottommost);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.members.size(), 12u);
  EXPECT_EQ(result.targets, 9u);       // r^2 AP-ring leaders
  EXPECT_EQ(result.messages, 18u);     // request+reply per target
}

TEST_F(QueryTest, ImsFansOutToIntermediateTier) {
  RgbConfig config;
  config.retain_tier = 1;
  config.disseminate_down = false;
  auto& sys = build(3, 3, config);
  populate(sys, 9);
  const auto result = query(sys, proto::QueryScheme::kIntermediate);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.members.size(), 9u);
  EXPECT_EQ(result.targets, 3u);  // r AG rings
  EXPECT_EQ(result.messages, 6u);
}

TEST_F(QueryTest, TmsQueryIsCheaperThanBms) {
  auto& sys = build(3, 3);
  populate(sys, 6);
  const auto tms = query(sys, proto::QueryScheme::kTopmost);
  const auto bms = query(sys, proto::QueryScheme::kBottommost);
  // The paper's §4.4 claim: TMS queries are more efficient for the
  // requesting application.
  EXPECT_LT(tms.messages, bms.messages);
  EXPECT_LE(tms.latency, bms.latency);
  // Under full TMS maintenance both return the same membership.
  EXPECT_EQ(tms.members.size(), bms.members.size());
}

TEST_F(QueryTest, EmptyGroupQueryCompletes) {
  auto& sys = build(2, 3);
  const auto result = query(sys, proto::QueryScheme::kTopmost);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.members.empty());
}

TEST_F(QueryTest, QueryTimesOutWhenTargetCrashed) {
  auto& sys = build(2, 3);
  populate(sys, 3);
  const auto plan = sys.query_plan(proto::QueryScheme::kTopmost);
  sys.crash_ne(plan.targets.front());

  QueryClient client{NodeId{990001}, network_};
  std::optional<QueryClient::Result> result;
  client.issue(plan, sim::msec(500),
               [&](QueryClient::Result r) { result = std::move(r); });
  run_all();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->complete);
  EXPECT_EQ(result->replies, 0u);
  EXPECT_EQ(result->latency, sim::msec(500));
}

TEST_F(QueryTest, PartialRepliesStillUnionMembers) {
  RgbConfig config;
  config.retain_tier = 2;
  config.disseminate_down = false;
  auto& sys = build(2, 3);  // 2-tier: BMS targets are the 3 AP-ring leaders
  populate(sys, 6);
  auto plan = sys.query_plan(proto::QueryScheme::kBottommost);
  ASSERT_EQ(plan.targets.size(), 3u);
  sys.crash_ne(plan.targets[1]);

  QueryClient client{NodeId{990001}, network_};
  std::optional<QueryClient::Result> result;
  client.issue(plan, sim::msec(300),
               [&](QueryClient::Result r) { result = std::move(r); });
  run_all();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->complete);
  EXPECT_EQ(result->replies, 2u);
  // Under TMS-dissemination every AP ring holds the global view, so even a
  // partial fan-in covers all members.
  EXPECT_EQ(result->members.size(), 6u);
}

TEST_F(QueryTest, SequentialQueriesOnOneClient) {
  auto& sys = build(2, 3);
  populate(sys, 4);
  const auto first = query(sys, proto::QueryScheme::kTopmost);
  const auto second = query(sys, proto::QueryScheme::kTopmost);
  EXPECT_TRUE(first.complete);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(first.members.size(), second.members.size());
}

TEST_F(QueryTest, QueryReflectsHandoffs) {
  auto& sys = build(2, 3);
  sys.join(common::Guid{1}, sys.aps().front());
  run_all();
  sys.handoff(common::Guid{1}, sys.aps().back());
  run_all();
  const auto result = query(sys, proto::QueryScheme::kTopmost);
  ASSERT_EQ(result.members.size(), 1u);
  EXPECT_EQ(result.members[0].access_proxy, sys.aps().back());
}

// ---------------------------------------------------------------------------
// The union rule, pinned with hand-built replies: canned responders answer a
// query with fixed records after fixed delays, so the order in which the
// replies reach the client is known.
// ---------------------------------------------------------------------------

/// A query target that answers every kQueryRequest with `members`, `delay`
/// after the request arrives.
class CannedResponder : public proto::Process {
 public:
  CannedResponder(NodeId id, net::Network& network, sim::Duration delay,
                  std::vector<MemberRecord> members)
      : proto::Process(id, network),
        delay_(delay),
        members_(std::move(members)) {}

  void deliver(const net::Envelope& env) override {
    if (env.kind != kind::kQueryRequest) return;
    const QueryRequestMsg req = env.payload.get<QueryRequestMsg>();
    set_timer(delay_, [this, req] {
      send(req.reply_to, kind::kQueryReply,
           QueryReplyMsg{req.query_id, members_});
    });
  }

 private:
  sim::Duration delay_;
  std::vector<MemberRecord> members_;
};

MemberRecord rec(std::uint64_t guid, std::uint64_t ap,
                 proto::MemberStatus status =
                     proto::MemberStatus::kOperational) {
  return MemberRecord{common::Guid{guid}, NodeId{ap}, status};
}

class QueryUnionTest : public testing::SimNetTest {
 protected:
  /// Queries group 1 of `replies` (one canned responder each, the i-th
  /// answering i + 1 ms after its request arrives) and runs until the
  /// query resolves.
  QueryClient::Result query(
      const std::vector<std::vector<MemberRecord>>& replies) {
    std::vector<std::unique_ptr<CannedResponder>> responders;
    QueryPlan plan;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const NodeId id{500 + i};
      responders.push_back(std::make_unique<CannedResponder>(
          id, network_, sim::msec(1 + i), replies[i]));
      plan.targets.push_back(id);
    }
    return issue(plan, sim::sec(5));
  }

  QueryClient::Result issue(const QueryPlan& plan, sim::Duration timeout) {
    QueryClient client{NodeId{990001}, network_};
    std::optional<QueryClient::Result> result;
    client.issue_group(plan, GroupId{1}, timeout,
                       [&](QueryClient::Result r) { result = std::move(r); });
    run_all();
    EXPECT_TRUE(result.has_value());
    return result.value_or(QueryClient::Result{});
  }
};

TEST_F(QueryUnionTest, EarlierReplyWinsOnADisagreeingAccessProxy) {
  // A handoff of guid 5 lands between the two responders' answers.
  const auto result = query({{rec(1, 100), rec(5, 100)},
                             {rec(5, 200), rec(9, 200)}});
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.members,
            (std::vector<MemberRecord>{rec(1, 100), rec(5, 100), rec(9, 200)}));
}

TEST_F(QueryUnionTest, EarlierNonOperationalRecordHidesTheGuid) {
  const auto result =
      query({{rec(3, 100), rec(7, 100, proto::MemberStatus::kDisconnected)},
             {rec(7, 200), rec(8, 200, proto::MemberStatus::kFailed)}});
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.members, (std::vector<MemberRecord>{rec(3, 100)}));
}

TEST_F(QueryUnionTest, FirstOccurrenceWinsInAnUnsortedReply) {
  const auto result = query({{rec(9, 101), rec(3, 100), rec(9, 102),
                              rec(4, 100, proto::MemberStatus::kFailed),
                              rec(4, 103)}});
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.members,
            (std::vector<MemberRecord>{rec(3, 100), rec(9, 101)}));
}

TEST_F(QueryUnionTest, TimeoutReportsTheUnionOfTheRepliesThatArrived) {
  // The third target is attached to nothing, so it never answers.
  CannedResponder first{NodeId{500}, network_, sim::msec(1),
                        {rec(2, 100), rec(6, 100)}};
  CannedResponder second{NodeId{501}, network_, sim::msec(2),
                         {rec(6, 200), rec(11, 200)}};
  const auto result = issue(
      QueryPlan{0, {NodeId{500}, NodeId{501}, NodeId{502}}}, sim::msec(50));
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.replies, 2u);
  EXPECT_EQ(result.latency, sim::msec(50));
  EXPECT_EQ(result.members, (std::vector<MemberRecord>{
                                rec(2, 100), rec(6, 100), rec(11, 200)}));
}

TEST(MemberUnion, ALoneSortedViewIsTheResult) {
  const std::vector<MemberRecord> view{rec(1, 100), rec(4, 101), rec(9, 100)};
  MemberUnion all;
  all.add(view);
  EXPECT_EQ(all.take(), view);
  EXPECT_TRUE(all.take().empty());  // take() leaves the union empty
}

TEST(MemberUnion, EarlierViewWinsAndOnlyOperationalRecordsRemain) {
  MemberUnion all;
  all.add(std::vector<MemberRecord>{
      rec(2, 100), rec(5, 100, proto::MemberStatus::kFailed), rec(8, 100)});
  all.add(std::vector<MemberRecord>{rec(1, 200), rec(5, 200), rec(8, 200)});
  all.add(std::vector<MemberRecord>{});
  all.add(std::vector<MemberRecord>{rec(8, 300), rec(1, 300), rec(12, 300)});
  EXPECT_EQ(all.take(), (std::vector<MemberRecord>{rec(1, 200), rec(2, 100),
                                                   rec(8, 100), rec(12, 300)}));
}

TEST(MemberUnion, UnsortedViewKeepsEachGuidsFirstRecord) {
  MemberUnion all;
  all.add(std::vector<MemberRecord>{
      rec(7, 100), rec(3, 100), rec(7, 101),
      rec(5, 100, proto::MemberStatus::kDisconnected), rec(5, 102),
      rec(3, 103)});
  EXPECT_EQ(all.take(), (std::vector<MemberRecord>{rec(3, 100), rec(7, 100)}));
}

}  // namespace
}  // namespace rgb::core
