#include "rgb/hierarchy.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

#include "rgb/query.hpp"
#include "wire/metering.hpp"

namespace rgb::core {

std::uint64_t HierarchyLayout::ap_count() const {
  std::uint64_t n = 1;
  for (int i = 0; i < ring_tiers; ++i) n *= static_cast<std::uint64_t>(ring_size);
  return n;
}

std::uint64_t HierarchyLayout::ring_count() const {
  std::uint64_t tn = 0, pow = 1;
  for (int i = 0; i < ring_tiers; ++i) {
    tn += pow;
    pow *= static_cast<std::uint64_t>(ring_size);
  }
  return tn;
}

std::uint64_t HierarchyLayout::ne_count() const {
  return ring_count() * static_cast<std::uint64_t>(ring_size);
}

RgbSystem::RgbSystem(net::Network& network, RgbConfig config,
                     HierarchyLayout layout, std::uint64_t first_node_id)
    : network_(network),
      config_(config),
      layout_(layout),
      first_node_id_(first_node_id) {
  assert(layout_.ring_tiers >= 1);
  assert(layout_.ring_size >= 1);
  if (config_.wire_metering) rgb::wire::attach_encoded_metering(network_);
  // The tracer's delivery hooks drive spans and the handler profile; the
  // network keeps a raw pointer, so the dtor must detach it.
  network_.set_trace_hooks(&obs_.tracer);
  build();
}

RgbSystem::~RgbSystem() { network_.set_trace_hooks(nullptr); }

namespace {
NeRole role_for_tier(int tier, int tiers) {
  if (tier == 0) return NeRole::kBorderRouter;
  if (tier == tiers - 1) return NeRole::kAccessProxy;
  return NeRole::kAccessGateway;
}
}  // namespace

void RgbSystem::build() {
  std::uint64_t next_id = first_node_id_;
  tiers_.resize(static_cast<std::size_t>(layout_.ring_tiers));

  // Create all NEs tier by tier; ids ascend within each ring so the first
  // node of a ring is its deterministic leader.
  std::uint64_t rings_in_tier = 1;
  for (int tier = 0; tier < layout_.ring_tiers; ++tier) {
    auto& rings = tiers_[static_cast<std::size_t>(tier)];
    rings.resize(rings_in_tier);
    for (auto& ring : rings) {
      ring.reserve(static_cast<std::size_t>(layout_.ring_size));
      for (int pos = 0; pos < layout_.ring_size; ++pos) {
        const NodeId id{next_id++};
        auto ne = std::make_unique<NetworkEntity>(
            id, role_for_tier(tier, layout_.ring_tiers), tier, network_,
            config_, metrics_, obs_);
        by_id_.emplace(id, ne.get());
        entities_.push_back(std::move(ne));
        ring.push_back(id);
      }
    }
    rings_in_tier *= static_cast<std::uint64_t>(layout_.ring_size);
  }

  // Configure rings and wire parent/child pointers. The j-th ring of tier
  // t+1 hangs off the j-th node (in tier order) of tier t.
  for (int tier = 0; tier < layout_.ring_tiers; ++tier) {
    const auto& rings = tiers_[static_cast<std::size_t>(tier)];
    for (std::size_t ring_idx = 0; ring_idx < rings.size(); ++ring_idx) {
      const auto& roster = rings[ring_idx];
      const NodeId leader = roster.front();
      for (const NodeId id : roster) {
        by_id_.at(id)->configure_ring(roster, leader);
      }
      if (tier > 0) {
        // Parent: the (ring_idx)-th node of the tier above, flattened.
        const auto& above = tiers_[static_cast<std::size_t>(tier - 1)];
        const std::size_t per_ring = above.front().size();
        const NodeId parent =
            above[ring_idx / per_ring][ring_idx % per_ring];
        for (const NodeId id : roster) by_id_.at(id)->set_parent(parent);
        by_id_.at(parent)->set_child(leader);
      }
    }
  }

  // Collect the access proxies (bottom tier) in id order.
  for (const auto& ring : tiers_.back()) {
    aps_.insert(aps_.end(), ring.begin(), ring.end());
  }
}

// --------------------------------------------------------------------------
// MembershipService
// --------------------------------------------------------------------------

void RgbSystem::join(Guid mh, NodeId ap) {
  NetworkEntity* ne = entity(ap);
  assert(ne != nullptr && "join via unknown AP");
  attachments_[mh] = ap;
  // One wireless attachment, one membership op per subscribed group: the
  // facade mirrors what a multi-group MobileHost sends over its link.
  for (const GroupId gid : member_groups(mh, config_)) {
    ne->local_member_join(gid, mh);
  }
}

void RgbSystem::leave(Guid mh) {
  const auto it = attachments_.find(mh);
  if (it == attachments_.end()) return;
  const NodeId ap = it->second;
  NetworkEntity* ne = entity(ap);
  attachments_.erase(it);
  if (ne != nullptr) {
    for (const GroupId gid : member_groups(mh, config_)) {
      ne->local_member_leave(gid, mh);
    }
  }
}

void RgbSystem::handoff(Guid mh, NodeId new_ap) {
  const auto it = attachments_.find(mh);
  if (it == attachments_.end()) return;
  const NodeId old_ap = it->second;
  if (old_ap == new_ap) return;
  NetworkEntity* ne = entity(new_ap);
  assert(ne != nullptr && "handoff to unknown AP");
  it->second = new_ap;
  for (const GroupId gid : member_groups(mh, config_)) {
    ne->local_member_handoff_in(gid, mh, old_ap);
  }
}

void RgbSystem::fail(Guid mh) {
  const auto it = attachments_.find(mh);
  if (it == attachments_.end()) return;
  const NodeId ap = it->second;
  NetworkEntity* ne = entity(ap);
  attachments_.erase(it);
  // The failure is detected and reported at the member's access proxy.
  if (ne != nullptr) {
    for (const GroupId gid : member_groups(mh, config_)) {
      ne->local_member_fail(gid, mh);
    }
  }
}

std::vector<proto::MemberRecord> RgbSystem::membership(
    proto::QueryScheme scheme) const {
  const QueryPlan plan = query_plan(scheme);
  MemberUnion combined;
  for (const NodeId target : plan.targets) {
    const NetworkEntity* ne = entity(target);
    if (ne == nullptr || network_.is_crashed(target)) continue;
    // Merged across every group the NE serves, deduplicated by guid: the
    // scheme comparison asks "who is in the system", not "who is in group
    // g" — issue_group() on the query client answers the latter.
    combined.add(ne->directory().merged_snapshot());
  }
  return combined.take();
}

// --------------------------------------------------------------------------
// Topology
// --------------------------------------------------------------------------

NetworkEntity* RgbSystem::entity(NodeId id) {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

const NetworkEntity* RgbSystem::entity(NodeId id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::vector<NodeId> RgbSystem::all_nes() const {
  std::vector<NodeId> out;
  out.reserve(entities_.size());
  for (const auto& ne : entities_) out.push_back(ne->id());
  return out;
}

const std::vector<std::vector<NodeId>>& RgbSystem::rings(int tier) const {
  return tiers_.at(static_cast<std::size_t>(tier));
}

std::vector<NodeId> RgbSystem::ring_leaders(int tier) const {
  std::vector<NodeId> leaders;
  for (const auto& ring : rings(tier)) {
    // Report the *current* leader as known by an alive ring member, so
    // callers get correct targets after failovers.
    for (const NodeId id : ring) {
      const NetworkEntity* ne = entity(id);
      if (ne != nullptr && !network_.is_crashed(id)) {
        leaders.push_back(ne->leader().valid() ? ne->leader() : id);
        break;
      }
    }
  }
  return leaders;
}

QueryPlan RgbSystem::query_plan(proto::QueryScheme scheme) const {
  QueryPlan plan;
  switch (scheme) {
    case proto::QueryScheme::kTopmost:
      plan.target_tier = 0;
      break;
    case proto::QueryScheme::kIntermediate:
      plan.target_tier = layout_.ring_tiers >= 3 ? 1 : 0;
      break;
    case proto::QueryScheme::kBottommost:
      plan.target_tier = layout_.ring_tiers - 1;
      break;
  }
  plan.targets = ring_leaders(plan.target_tier);
  return plan;
}

// --------------------------------------------------------------------------
// Faults, metrics, invariants
// --------------------------------------------------------------------------

void RgbSystem::crash_ne(NodeId id) { network_.crash(id); }

void RgbSystem::recover_ne(NodeId id) { network_.recover(id); }

void RgbSystem::start_probing() {
  for (const auto& ne : entities_) ne->start_probing();
}

std::vector<proto::MemberRecord> RgbSystem::expected_membership() const {
  std::vector<proto::MemberRecord> out;
  out.reserve(attachments_.size());
  // Map iteration order is irrelevant: the sort below canonicalizes.
  for (const auto& [guid, ap] : attachments_) {
    out.push_back(
        proto::MemberRecord{guid, ap, proto::MemberStatus::kOperational});
  }
  std::sort(out.begin(), out.end(),
            [](const proto::MemberRecord& a, const proto::MemberRecord& b) {
              return a.guid < b.guid;
            });
  return out;
}

bool RgbSystem::holds_global_view(const NetworkEntity& ne) const {
  return config_.retain_tier == 0 &&
         (config_.disseminate_down || ne.tier() == 0);
}

bool RgbSystem::membership_converged() const {
  const auto expected = expected_membership();
  for (const auto& ne : entities_) {
    if (network_.is_crashed(ne->id())) continue;
    if (holds_global_view(*ne)) {
      if (ne->directory().merged_snapshot() != expected) return false;
    } else if (ne->tier() == layout_.ring_tiers - 1) {
      // APs always know their own local members.
      for (const auto& rec : expected) {
        if (rec.access_proxy == ne->id() &&
            !ne->directory().contains(rec.guid)) {
          return false;
        }
      }
    }
  }
  return true;
}

std::vector<std::string> RgbSystem::ring_faults() const {
  std::vector<std::string> faults;
  for (std::size_t tier = 0; tier < tiers_.size(); ++tier) {
    for (std::size_t ring_idx = 0; ring_idx < tiers_[tier].size(); ++ring_idx) {
      const auto& ring = tiers_[tier][ring_idx];
      const std::string where =
          "tier " + std::to_string(tier) + " ring " + std::to_string(ring_idx);

      // Alive members must agree on roster and leader, and the leader must
      // be a roster member.
      const NetworkEntity* reference = nullptr;
      for (const NodeId id : ring) {
        if (network_.is_crashed(id)) continue;
        const NetworkEntity* ne = entity(id);
        if (ne == nullptr || ne->roster().empty()) continue;
        if (reference == nullptr) {
          reference = ne;
          continue;
        }
        if (ne->roster() != reference->roster()) {
          const auto render = [](const std::vector<NodeId>& roster) {
            std::ostringstream os;
            os << '{';
            for (std::size_t i = 0; i < roster.size(); ++i) {
              if (i > 0) os << ' ';
              os << roster[i].value();
            }
            os << '}';
            return os.str();
          };
          std::ostringstream os;
          os << where << ": node " << id.value() << " roster "
             << render(ne->roster()) << " disagrees with node "
             << reference->id().value() << " roster "
             << render(reference->roster());
          faults.push_back(os.str());
        } else if (ne->leader() != reference->leader()) {
          std::ostringstream os;
          os << where << ": node " << id.value() << " leader "
             << ne->leader().value() << " != node "
             << reference->id().value() << " leader "
             << reference->leader().value();
          faults.push_back(os.str());
        }
      }
      if (reference == nullptr) continue;
      const auto& roster = reference->roster();
      if (std::find(roster.begin(), roster.end(), reference->leader()) ==
          roster.end()) {
        std::ostringstream os;
        os << where << ": leader " << reference->leader().value()
           << " not in the agreed roster";
        faults.push_back(os.str());
      }

      // Next-pointers must form a single cycle covering the roster once.
      // The roster may lag a crash by a round, so it may still name a
      // crashed node.
      std::size_t steps = 0;
      NodeId cursor = roster.front();
      bool cycle_ok = true;
      do {
        const NetworkEntity* ne = entity(cursor);
        if (ne == nullptr) {
          cycle_ok = false;
          break;
        }
        cursor = ne->next_node();
        if (++steps > roster.size()) {
          cycle_ok = false;
          break;
        }
      } while (cursor != roster.front());
      if (!cycle_ok || steps != roster.size()) {
        std::ostringstream os;
        os << where << ": next-pointers do not form a single "
           << roster.size() << "-cycle over the roster";
        faults.push_back(os.str());
      }
    }
  }
  return faults;
}

namespace {

/// Size of the symmetric difference of two guid-sorted record lists. A
/// record differing in AP or status counts on both sides (it is wrong here
/// and missing there), which matches "records that disagree".
std::uint64_t records_differing(const std::vector<MemberRecord>& view,
                                const std::vector<MemberRecord>& want) {
  std::uint64_t divergence = 0;
  std::size_t i = 0, j = 0;
  while (i < view.size() || j < want.size()) {
    if (i < view.size() && j < want.size() && view[i] == want[j]) {
      ++i;
      ++j;
    } else if (j == want.size() ||
               (i < view.size() && view[i].guid < want[j].guid)) {
      ++divergence;
      ++i;
    } else if (i == view.size() || want[j].guid < view[i].guid) {
      ++divergence;
      ++j;
    } else {
      divergence += 2;  // same guid, different record
      ++i;
      ++j;
    }
  }
  return divergence;
}

}  // namespace

std::uint64_t RgbSystem::view_divergence() const {
  const auto expected = expected_membership();
  std::uint64_t divergence = 0;
  for (const auto& ne : entities_) {
    if (network_.is_crashed(ne->id()) || !holds_global_view(*ne)) continue;
    divergence += records_differing(ne->directory().merged_snapshot(),
                                    expected);
  }
  return divergence;
}

std::vector<std::pair<GroupId, proto::MemberRecord>>
RgbSystem::grouped_expected_membership() const {
  std::vector<std::pair<GroupId, proto::MemberRecord>> out;
  for (const auto& [guid, ap] : attachments_) {
    for (const GroupId gid : member_groups(guid, config_)) {
      out.emplace_back(gid, proto::MemberRecord{
                                guid, ap, proto::MemberStatus::kOperational});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second.guid < b.second.guid;
            });
  return out;
}

std::uint64_t RgbSystem::group_view_divergence() const {
  // Per-group expected views, built once.
  std::map<GroupId, std::vector<proto::MemberRecord>> expected;
  for (auto& [gid, rec] : grouped_expected_membership()) {
    expected[gid].push_back(rec);
  }
  static const std::vector<MemberRecord> kNone;
  std::uint64_t divergence = 0;
  for (const auto& ne : entities_) {
    if (network_.is_crashed(ne->id()) || !holds_global_view(*ne)) continue;
    // Union of the groups either side knows: a record parked in a group
    // the truth never populated is divergence too.
    for (const auto& [gid, want] : expected) {
      const MemberTable* tab = ne->directory().table_if(gid);
      divergence +=
          records_differing(tab == nullptr ? kNone : tab->snapshot(), want);
    }
    for (const auto& [gid, st] : ne->directory().groups()) {
      if (expected.count(gid) != 0) continue;
      divergence += records_differing(st.table.snapshot(), kNone);
    }
  }
  return divergence;
}

NodeId RgbSystem::ap_of(Guid mh) const {
  const auto it = attachments_.find(mh);
  return it == attachments_.end() ? NodeId{} : it->second;
}

}  // namespace rgb::core
