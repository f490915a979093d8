#include "tree/tree_membership.hpp"

#include <algorithm>
#include <cassert>

#include "rgb/messages.hpp"
#include "rgb/query.hpp"
#include "wire/metering.hpp"

namespace rgb::tree {

TreeServer::TreeServer(NodeId id, int level, net::Network& network)
    : proto::Process(id, network), level_(level), physical_(id) {}

void TreeServer::originate(const MembershipOp& op) {
  propagate(op, NodeId{});
}

void TreeServer::propagate(const MembershipOp& op, NodeId from) {
  if (seen_.count(op.seq) != 0) return;
  seen_.emplace(op.seq, true);
  members_.apply(op);

  if (parent_ != nullptr && parent_->id() != from) forward(parent_, op);
  for (TreeServer* child : children_) {
    if (child->id() != from) forward(child, op);
  }
}

void TreeServer::forward(TreeServer* to, const MembershipOp& op) {
  if (to->physical() == physical_) {
    // Representative co-location: a logical transfer inside one physical
    // server — formula (2) removes these from the hop count, and the
    // simulator accordingly delivers them as a local call.
    to->propagate(op, id());
    return;
  }
  send(to->id(), kTreeProposal, op, core::wire_size(op));
}

void TreeServer::deliver(const net::Envelope& env) {
  switch (env.kind) {
    case kTreeProposal:
      propagate(env.payload.get<MembershipOp>(), env.src);
      break;
    case kTreeQuery: {
      const auto& req = env.payload.get<core::QueryRequestMsg>();
      core::QueryReplyMsg reply{req.query_id, members_.snapshot()};
      const auto bytes = core::wire_size(reply);
      send(req.reply_to.valid() ? req.reply_to : env.src, kTreeQueryReply,
           std::move(reply), bytes);
      break;
    }
    default:
      break;
  }
}

// --------------------------------------------------------------------------
// TreeSystem
// --------------------------------------------------------------------------

TreeSystem::TreeSystem(net::Network& network, TreeConfig config,
                       std::uint64_t first_node_id)
    : network_(network), config_(config) {
  assert(config_.height >= 2);
  assert(config_.branching >= 2);
  wire::attach_encoded_metering(network_);
  std::uint64_t next_id = first_node_id;
  root_ = build_subtree(0, next_id);
  if (config_.representatives) assign_physical(root_);
  std::sort(leaves_.begin(), leaves_.end());
}

TreeSystem::~TreeSystem() = default;

TreeServer* TreeSystem::build_subtree(int level, std::uint64_t& next_id) {
  auto server =
      std::make_unique<TreeServer>(NodeId{next_id++}, level, network_);
  TreeServer* raw = server.get();
  by_id_.emplace(raw->id(), raw);
  servers_.push_back(std::move(server));
  if (level == config_.height - 1) {
    leaves_.push_back(raw->id());
    return raw;
  }
  for (int i = 0; i < config_.branching; ++i) {
    TreeServer* child = build_subtree(level + 1, next_id);
    child->set_parent(raw);
    raw->add_child(child);
  }
  return raw;
}

void TreeSystem::assign_physical(TreeServer* node) {
  for (TreeServer* child : node->children()) assign_physical(child);
  // GMS levels (0 .. h-2) co-locate on their first child's physical server,
  // chaining down to the lowest GMS level; leaf LMSs stay on their hosts.
  if (node->level() < config_.height - 2 && !node->children().empty()) {
    node->set_physical(node->children().front()->physical());
  }
}

void TreeSystem::join(Guid mh, NodeId leaf) {
  TreeServer* server = this->server(leaf);
  assert(server != nullptr && server->children().empty());
  attachments_[mh] = leaf;
  MembershipOp op;
  op.kind = core::OpKind::kMemberJoin;
  op.seq = ++op_seq_;
  op.member = MemberRecord{mh, leaf, proto::MemberStatus::kOperational};
  server->originate(op);
}

void TreeSystem::leave(Guid mh) {
  const auto it = attachments_.find(mh);
  if (it == attachments_.end()) return;
  TreeServer* server = this->server(it->second);
  MembershipOp op;
  op.kind = core::OpKind::kMemberLeave;
  op.seq = ++op_seq_;
  op.member = MemberRecord{mh, it->second, proto::MemberStatus::kDisconnected};
  attachments_.erase(it);
  if (server != nullptr) server->originate(op);
}

void TreeSystem::handoff(Guid mh, NodeId new_leaf) {
  const auto it = attachments_.find(mh);
  if (it == attachments_.end() || it->second == new_leaf) return;
  const NodeId old_leaf = it->second;
  it->second = new_leaf;
  TreeServer* server = this->server(new_leaf);
  MembershipOp op;
  op.kind = core::OpKind::kMemberHandoff;
  op.seq = ++op_seq_;
  op.member = MemberRecord{mh, new_leaf, proto::MemberStatus::kOperational};
  op.old_ap = old_leaf;
  if (server != nullptr) server->originate(op);
}

void TreeSystem::fail(Guid mh) {
  const auto it = attachments_.find(mh);
  if (it == attachments_.end()) return;
  TreeServer* server = this->server(it->second);
  MembershipOp op;
  op.kind = core::OpKind::kMemberFail;
  op.seq = ++op_seq_;
  op.member = MemberRecord{mh, it->second, proto::MemberStatus::kFailed};
  attachments_.erase(it);
  if (server != nullptr) server->originate(op);
}

std::vector<MemberRecord> TreeSystem::membership(
    proto::QueryScheme scheme) const {
  if (scheme == proto::QueryScheme::kBottommost) {
    core::MemberUnion combined;
    for (const NodeId leaf : leaves_) {
      combined.add(by_id_.find(leaf)->second->members().snapshot());
    }
    return combined.take();
  }
  return root_->members().snapshot();
}

TreeServer* TreeSystem::server(NodeId id) {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

bool TreeSystem::converged() const {
  const auto reference = root_->members().snapshot();
  for (const auto& server : servers_) {
    if (network_.is_crashed(server->id())) continue;
    if (server->members().snapshot() != reference) return false;
  }
  return true;
}

}  // namespace rgb::tree
