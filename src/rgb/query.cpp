#include "rgb/query.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace rgb::core {

namespace {
bool by_guid(const MemberRecord& a, const MemberRecord& b) {
  return a.guid < b.guid;
}
}  // namespace

void MemberUnion::add(std::span<const MemberRecord> view) {
  std::vector<MemberRecord> sorted;
  const auto not_ascending = [](const MemberRecord& a, const MemberRecord& b) {
    return !by_guid(a, b);
  };
  if (std::adjacent_find(view.begin(), view.end(), not_ascending) !=
      view.end()) {
    sorted.assign(view.begin(), view.end());
    std::stable_sort(sorted.begin(), sorted.end(), by_guid);
    sorted.erase(std::unique(sorted.begin(), sorted.end(),
                             [](const MemberRecord& a, const MemberRecord& b) {
                               return a.guid == b.guid;
                             }),
                 sorted.end());
    view = sorted;
  }
  if (records_.empty()) {
    records_.assign(view.begin(), view.end());
    return;
  }
  // On a shared guid std::set_union copies the first range's element: the
  // earlier replies' record stays.
  merged_.clear();
  std::set_union(records_.begin(), records_.end(), view.begin(), view.end(),
                 std::back_inserter(merged_), by_guid);
  records_.swap(merged_);
}

std::vector<MemberRecord> MemberUnion::take() {
  std::erase_if(records_, [](const MemberRecord& rec) {
    return rec.status != MemberStatus::kOperational;
  });
  return std::exchange(records_, {});
}

QueryClient::QueryClient(NodeId id, net::Network& network)
    : proto::Process(id, network) {}

void QueryClient::issue(const QueryPlan& plan, sim::Duration timeout,
                        std::function<void(Result)> on_done) {
  issue_group(plan, GroupId{}, timeout, std::move(on_done));
}

void QueryClient::issue_group(const QueryPlan& plan, GroupId gid,
                              sim::Duration timeout,
                              std::function<void(Result)> on_done) {
  assert(active_query_ == 0 && "one outstanding query per client");
  active_query_ = next_query_id_++;
  issued_at_ = now();
  expected_replies_ = plan.targets.size();
  pending_result_ = Result{};
  pending_result_.targets = plan.targets.size();
  on_done_ = std::move(on_done);

  if (plan.targets.empty()) {
    finish(true);
    return;
  }
  for (const NodeId target : plan.targets) {
    send(target, kind::kQueryRequest,
         QueryRequestMsg{active_query_, id(), gid});
    ++pending_result_.messages;
  }
  timeout_timer_ = set_timer(timeout, [this]() {
    if (active_query_ != 0) finish(false);
  });
}

void QueryClient::deliver(const net::Envelope& env) {
  if (env.kind != kind::kQueryReply || active_query_ == 0) return;
  const auto& reply = env.payload.get<QueryReplyMsg>();
  if (reply.query_id != active_query_) return;

  ++pending_result_.messages;
  ++pending_result_.replies;
  collected_.add(reply.members);
  if (pending_result_.replies >= expected_replies_) finish(true);
}

void QueryClient::finish(bool complete) {
  cancel_timer(timeout_timer_);
  active_query_ = 0;
  pending_result_.complete = complete;
  pending_result_.latency = now() - issued_at_;
  pending_result_.members = collected_.take();
  if (on_done_) {
    auto cb = std::move(on_done_);
    on_done_ = nullptr;
    cb(std::move(pending_result_));
  }
}

}  // namespace rgb::core
