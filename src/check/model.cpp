#include "check/model.hpp"

#include <algorithm>

#include "flatring/flat_ring.hpp"
#include "gossip/gossip_membership.hpp"
#include "rgb/rgb.hpp"
#include "tree/tree_membership.hpp"

namespace rgb::check {

namespace {

std::vector<ViewEntry> entries_of(const core::MemberTable& table) {
  std::vector<ViewEntry> out;
  for (const core::TableEntry& entry : table.export_entries()) {
    if (entry.record.status == proto::MemberStatus::kOperational) {
      out.push_back(
          ViewEntry{entry.record, entry.last_seq, entry.claim_seq});
    }
  }
  return out;  // export_entries() is already guid-sorted
}

/// Multi-group flattening: every group's operational entries, gid-stamped,
/// gid-major then guid-ascending — matching grouped_expected() order.
std::vector<ViewEntry> entries_of(const core::GroupDirectory& dir) {
  std::vector<ViewEntry> out;
  for (const auto& [gid, state] : dir.groups()) {
    for (const core::TableEntry& entry : state.table.export_entries()) {
      if (entry.record.status == proto::MemberStatus::kOperational) {
        out.push_back(
            ViewEntry{entry.record, entry.last_seq, entry.claim_seq, gid});
      }
    }
  }
  return out;
}

std::vector<MemberRecord> sorted_records(
    std::vector<MemberRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const MemberRecord& a, const MemberRecord& b) {
              return a.guid < b.guid;
            });
  return records;
}

}  // namespace

NetMeters NetMeters::from(const net::Network::Metrics& m) {
  NetMeters out;
  out.sent = m.sent;
  out.delivered = m.delivered;
  out.dropped_loss = m.dropped_loss;
  out.dropped_crash = m.dropped_crash;
  out.dropped_partition = m.dropped_partition;
  out.dropped_unattached = m.dropped_unattached;
  return out;
}

void SystemModel::hierarchy_check(sim::Time, std::size_t, std::uint64_t,
                                  std::uint64_t&, CheckReport&) const {}

// --- GroundTruth ------------------------------------------------------------

void GroundTruth::join(Guid mh, NodeId ap) {
  live_[mh] = ap;
  uncertain_.erase(mh);  // a fresh join settles the member's fate again
}

void GroundTruth::leave(Guid mh) { live_.erase(mh); }

void GroundTruth::handoff(Guid mh, NodeId new_ap) {
  const auto it = live_.find(mh);
  if (it != live_.end()) it->second = new_ap;
}

void GroundTruth::fail(Guid mh) { live_.erase(mh); }

void GroundTruth::strand_at(NodeId ap) {
  for (auto it = live_.begin(); it != live_.end();) {
    if (it->second == ap) {
      uncertain_[it->first] = true;
      it = live_.erase(it);
    } else {
      ++it;
    }
  }
}

bool GroundTruth::is_live(Guid mh) const { return live_.count(mh) != 0; }

NodeId GroundTruth::ap_of(Guid mh) const {
  const auto it = live_.find(mh);
  return it == live_.end() ? NodeId{} : it->second;
}

std::vector<MemberRecord> GroundTruth::expected() const {
  std::vector<MemberRecord> out;
  out.reserve(live_.size());
  for (const auto& [guid, ap] : live_) {
    out.push_back(MemberRecord{guid, ap, proto::MemberStatus::kOperational});
  }
  return sorted_records(std::move(out));
}

std::vector<std::pair<GroupId, MemberRecord>> GroundTruth::grouped_expected()
    const {
  std::vector<std::pair<GroupId, MemberRecord>> out;
  for (const auto& [guid, ap] : live_) {
    const MemberRecord rec{guid, ap, proto::MemberStatus::kOperational};
    if (group_fn_) {
      for (const GroupId gid : group_fn_(guid)) out.emplace_back(gid, rec);
    } else {
      out.emplace_back(GroupId{1}, rec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second.guid < b.second.guid;
            });
  return out;
}

std::vector<Guid> GroundTruth::uncertain() const {
  std::vector<Guid> out;
  out.reserve(uncertain_.size());
  for (const auto& [guid, flag] : uncertain_) out.push_back(guid);
  std::sort(out.begin(), out.end());
  return out;
}

// --- RgbModel ---------------------------------------------------------------

RgbModel::RgbModel(const core::RgbSystem& system, const GroundTruth* truth)
    : system_(system), truth_(truth) {}

std::string RgbModel::flight(std::size_t max_events) const {
  return system_.obs().tracer.flight_tail(max_events);
}

std::vector<NodeView> RgbModel::node_views() const {
  std::vector<NodeView> out;
  for (const NodeId id : system_.all_nes()) {
    const core::NetworkEntity* ne = system_.entity(id);
    if (ne == nullptr) continue;
    NodeView view;
    view.id = id;
    view.alive = !system_.network().is_crashed(id);
    view.holds_global = system_.holds_global_view(*ne);
    view.entries = entries_of(ne->directory());
    out.push_back(std::move(view));
  }
  return out;
}

std::vector<MemberRecord> RgbModel::protocol_view() const {
  const core::RgbConfig& config = system_.config();
  proto::QueryScheme scheme = proto::QueryScheme::kTopmost;
  if (config.retain_tier > 0) {
    scheme = config.retain_tier >= system_.tier_count() - 1
                 ? proto::QueryScheme::kBottommost
                 : proto::QueryScheme::kIntermediate;
  }
  return system_.membership(scheme);
}

std::vector<MemberRecord> RgbModel::expected() const {
  return truth_ != nullptr ? truth_->expected()
                           : system_.expected_membership();
}

std::vector<std::pair<GroupId, MemberRecord>> RgbModel::grouped_expected()
    const {
  return truth_ != nullptr ? truth_->grouped_expected()
                           : system_.grouped_expected_membership();
}

std::vector<Guid> RgbModel::uncertain() const {
  return truth_ != nullptr ? truth_->uncertain() : std::vector<Guid>{};
}

NetMeters RgbModel::meters() const {
  return NetMeters::from(system_.network().metrics());
}

void RgbModel::hierarchy_check(sim::Time now, std::size_t cell,
                               std::uint64_t trial, std::uint64_t& ordinal,
                               CheckReport& report) const {
  for (std::string& fault : system_.ring_faults()) {
    report.add(
        Violation{"hierarchy", now, std::move(fault), cell, trial, ordinal++});
  }
}

// --- TreeModel --------------------------------------------------------------

TreeModel::TreeModel(const tree::TreeSystem& system,
                     const net::Network& network, const GroundTruth* truth)
    : system_(system), network_(network), truth_(truth) {}

std::vector<NodeView> TreeModel::node_views() const {
  std::vector<NodeView> out;
  std::vector<const tree::TreeServer*> stack{system_.root()};
  while (!stack.empty()) {
    const tree::TreeServer* server = stack.back();
    stack.pop_back();
    if (server == nullptr) continue;
    NodeView view;
    view.id = server->id();
    view.alive = !network_.is_crashed(server->id());
    view.holds_global = true;  // flooding replicates the view everywhere
    view.entries = entries_of(server->members());
    out.push_back(std::move(view));
    for (const tree::TreeServer* child : server->children()) {
      stack.push_back(child);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const NodeView& a, const NodeView& b) { return a.id < b.id; });
  return out;
}

std::vector<MemberRecord> TreeModel::protocol_view() const {
  return system_.membership();
}

std::vector<MemberRecord> TreeModel::expected() const {
  return truth_ != nullptr ? truth_->expected() : protocol_view();
}

std::vector<Guid> TreeModel::uncertain() const {
  return truth_ != nullptr ? truth_->uncertain() : std::vector<Guid>{};
}

NetMeters TreeModel::meters() const {
  return NetMeters::from(network_.metrics());
}

// --- FlatRingModel ----------------------------------------------------------

FlatRingModel::FlatRingModel(const flatring::FlatRingSystem& system,
                             const net::Network& network,
                             const GroundTruth* truth)
    : system_(system), network_(network), truth_(truth) {}

std::vector<NodeView> FlatRingModel::node_views() const {
  std::vector<NodeView> out;
  for (const NodeId id : system_.aps()) {
    const flatring::RingNode* node = system_.node(id);
    if (node == nullptr) continue;
    NodeView view;
    view.id = id;
    view.alive = !network_.is_crashed(id);
    view.holds_global = true;  // one ring, fully replicated
    view.entries = entries_of(node->members());
    out.push_back(std::move(view));
  }
  return out;
}

std::vector<MemberRecord> FlatRingModel::protocol_view() const {
  return system_.membership();
}

std::vector<MemberRecord> FlatRingModel::expected() const {
  return truth_ != nullptr ? truth_->expected() : protocol_view();
}

std::vector<Guid> FlatRingModel::uncertain() const {
  return truth_ != nullptr ? truth_->uncertain() : std::vector<Guid>{};
}

NetMeters FlatRingModel::meters() const {
  return NetMeters::from(network_.metrics());
}

// --- GossipModel ------------------------------------------------------------

GossipModel::GossipModel(const gossip::GossipSystem& system,
                         const net::Network& network,
                         const GroundTruth* truth)
    : system_(system), network_(network), truth_(truth) {}

std::vector<NodeView> GossipModel::node_views() const {
  std::vector<NodeView> out;
  for (const NodeId id : system_.aps()) {
    const gossip::GossipNode* node = system_.node(id);
    if (node == nullptr) continue;
    NodeView view;
    view.id = id;
    view.alive = !network_.is_crashed(id);
    view.holds_global = true;  // infection targets full replication
    view.entries = entries_of(node->members());
    out.push_back(std::move(view));
  }
  return out;
}

std::vector<MemberRecord> GossipModel::protocol_view() const {
  return system_.membership();
}

std::vector<MemberRecord> GossipModel::expected() const {
  return truth_ != nullptr ? truth_->expected() : protocol_view();
}

std::vector<Guid> GossipModel::uncertain() const {
  return truth_ != nullptr ? truth_->uncertain() : std::vector<Guid>{};
}

NetMeters GossipModel::meters() const {
  return NetMeters::from(network_.metrics());
}

}  // namespace rgb::check
