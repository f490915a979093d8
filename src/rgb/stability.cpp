#include "rgb/stability.hpp"

#include <algorithm>

#include "rgb/network_entity.hpp"

namespace rgb::core {

namespace {
/// Alerts from this many distinct observers fire a stability cut early,
/// before the aggregation window closes. Clamped to the feasible observer
/// count at use, so degenerate rings (2 survivors) still converge.
constexpr int kStabilityK = 2;
}  // namespace

void StabilityAggregator::observe(NodeId suspect, NodeId observer,
                                  sim::Time at) {
  PendingSuspect& p = pending_[suspect];
  if (p.observers.empty()) p.first_seen = at;
  if (std::find(p.observers.begin(), p.observers.end(), observer) ==
      p.observers.end()) {
    p.observers.push_back(observer);
  }
}

void StabilityAggregator::retract(NodeId suspect, NodeId observer) {
  const auto it = pending_.find(suspect);
  if (it == pending_.end()) return;
  auto& obs = it->second.observers;
  obs.erase(std::remove(obs.begin(), obs.end(), observer), obs.end());
  if (obs.empty()) pending_.erase(it);
}

void StabilityAggregator::forget(NodeId suspect) { pending_.erase(suspect); }

std::vector<NodeId> StabilityAggregator::suspects() const {
  std::vector<NodeId> out;
  out.reserve(pending_.size());
  for (const auto& [suspect, p] : pending_) out.push_back(suspect);
  return out;
}

sim::Time StabilityAggregator::deadline(sim::Duration window) const {
  sim::Time earliest = 0;
  for (const auto& [suspect, p] : pending_) {
    const sim::Time d = p.first_seen + window;
    if (earliest == 0 || d < earliest) earliest = d;
  }
  return earliest;
}

bool StabilityAggregator::ready(sim::Time now, sim::Duration window,
                                int k) const {
  if (pending_.empty()) return false;
  const sim::Time d = deadline(window);
  if (d != 0 && now >= d) return true;
  return corroborated(k);
}

bool StabilityAggregator::corroborated(int k) const {
  for (const auto& [suspect, p] : pending_) {
    if (p.observers.size() >= static_cast<std::size_t>(k)) return true;
  }
  return false;
}

StabilityAggregator::Cut StabilityAggregator::take() {
  Cut cut;
  std::vector<NodeId> distinct;
  for (const auto& [suspect, p] : pending_) {
    cut.suspects.push_back(suspect);
    for (const NodeId o : p.observers) {
      if (std::find(distinct.begin(), distinct.end(), o) == distinct.end()) {
        distinct.push_back(o);
      }
    }
  }
  cut.observers = distinct.size();
  pending_.clear();
  return cut;
}

// --------------------------------------------------------------------------
// StabilityPlane
// --------------------------------------------------------------------------

void StabilityPlane::report_suspect(NodeId suspect) {
  if (!ne_.config_.stability) {
    ne_.declare_cut({suspect});
    return;
  }
  raise_alert(suspect);
}

void StabilityPlane::forget(NodeId node) {
  aggregator_.forget(node);
  cancel_alert(node);
  cancel_cut_verification(node);
  // A passed deadline may have waited on this node's verification alone.
  arm_cut_timer();
}

void StabilityPlane::ping(NodeId suspect, std::uint64_t alert_id) {
  AlertMsg ping{ne_.id(), alert_id, {suspect}, false};
  const auto bytes = wire_size(ping);
  ne_.send(suspect, kind::kAlert, std::move(ping), bytes);
}

void StabilityPlane::raise_alert(NodeId suspect) {
  if (suspect == ne_.id() || !suspect.valid() || !ne_.in_roster(suspect)) {
    return;
  }
  if (pending_alerts_.count(suspect) != 0) return;  // already filed
  PendingAlert pa;
  pa.alert_id = origin_scoped_id(ne_.id(), ++alert_counter_);
  // Alerts converge at the ring leader's aggregator; when the leader
  // itself is the suspect they converge at the presumptive next leader
  // instead, so the NE-level cut decision survives leader death.
  const NodeId aggregator = suspect == ne_.leader_
                                ? elect_leader(ne_.roster_, suspect)
                                : ne_.leader_;
  pa.aggregator = aggregator;
  ne_.metrics_.stability_alerts.increment();
  ne_.obs_.tracer.record(ne_.now(), ne_.id(), obs::FlightKind::kAlertRaised,
                         suspect.value(), pa.alert_id);
  if (aggregator == ne_.id()) {
    observe(suspect, ne_.id());
  } else if (aggregator.valid()) {
    AlertMsg alert{ne_.id(), pa.alert_id, {suspect}, false};
    const auto bytes = wire_size(alert);
    ne_.send(aggregator, kind::kAlert, std::move(alert), bytes);
  }
  // Liveness counter-check: the suspect itself gets the alert too; a live
  // one answers kAlertAck and the accusation is withdrawn before any cut.
  ping(suspect, pa.alert_id);
  pa.ping_timer = ne_.set_timer(ne_.config_.retx_timeout, [this, suspect]() {
    on_alert_ping_timeout(suspect);
  });
  const std::uint64_t aid = pa.alert_id;
  pa.fallback_timer = ne_.set_timer(
      ne_.config_.stability_timeout,
      [this, suspect, aid]() { on_fallback(suspect, aid); });
  pending_alerts_.emplace(suspect, std::move(pa));
}

void StabilityPlane::cancel_alert(NodeId suspect) {
  const auto it = pending_alerts_.find(suspect);
  if (it == pending_alerts_.end()) return;
  ne_.cancel_timer(it->second.ping_timer);
  ne_.cancel_timer(it->second.fallback_timer);
  pending_alerts_.erase(it);
}

void StabilityPlane::on_alert_ping_timeout(NodeId suspect) {
  const auto it = pending_alerts_.find(suspect);
  if (it == pending_alerts_.end()) return;
  // Re-ping until the ack, a cut, or the fallback resolves the alert: a
  // loss burst that swallowed the first ping must not be enough to turn a
  // live node into a cut member.
  ping(suspect, it->second.alert_id);
  it->second.ping_timer = ne_.set_timer(
      ne_.config_.retx_timeout,
      [this, suspect]() { on_alert_ping_timeout(suspect); });
}

void StabilityPlane::on_fallback(NodeId suspect, std::uint64_t alert_id) {
  const auto it = pending_alerts_.find(suspect);
  if (it == pending_alerts_.end() || it->second.alert_id != alert_id) return;
  ne_.cancel_timer(it->second.ping_timer);
  pending_alerts_.erase(it);
  if (!ne_.in_roster(suspect)) return;  // a cut or repair resolved it already
  // No cut arrived within the stability timeout: degrade to the proven
  // single-observer declare so detection latency stays bounded and
  // liveness never regresses below the pre-stability protocol.
  ne_.metrics_.stability_timeout_fallbacks.increment();
  ne_.obs_.tracer.record(ne_.now(), ne_.id(),
                         obs::FlightKind::kStabilityFallback, suspect.value(),
                         alert_id);
  ne_.declare_cut({suspect});
}

void StabilityPlane::handle_alert(const AlertMsg& msg, NodeId from) {
  if (!ne_.config_.stability) return;
  if (msg.retract) {
    for (const NodeId s : msg.suspects) aggregator_.retract(s, msg.observer);
    return;
  }
  bool about_me = false;
  for (const NodeId s : msg.suspects) {
    if (s == ne_.id()) {
      about_me = true;
    } else {
      observe(s, msg.observer);
    }
  }
  if (about_me) {
    // Counter-observation of liveness: we are evidently alive; the ack
    // makes the observer withdraw the accusation.
    ne_.send(from, kind::kAlertAck, AlertAckMsg{ne_.id(), msg.alert_id},
             wire_size(AlertAckMsg{}));
  }
}

void StabilityPlane::handle_alert_ack(const AlertAckMsg& msg) {
  const auto vit = pending_verifies_.find(msg.responder);
  if (vit != pending_verifies_.end() && vit->second.alert_id == msg.alert_id) {
    // Pre-cut verification answered: the suspect is alive, its pending
    // observation was a stale flap (a lost retraction) — drop it outright.
    ne_.metrics_.stability_suppressed_flaps.increment();
    cancel_cut_verification(msg.responder);
    aggregator_.forget(msg.responder);
    arm_cut_timer();
    return;
  }
  const auto it = pending_alerts_.find(msg.responder);
  if (it == pending_alerts_.end() || it->second.alert_id != msg.alert_id) {
    return;
  }
  // The suspect answered: suppress the flap — cancel locally and retract
  // at the aggregator so a pending cut loses this observation.
  ne_.metrics_.stability_suppressed_flaps.increment();
  const NodeId aggregator = it->second.aggregator;
  const std::uint64_t alert_id = it->second.alert_id;
  cancel_alert(msg.responder);
  if (aggregator == ne_.id()) {
    aggregator_.retract(msg.responder, ne_.id());
  } else if (aggregator.valid()) {
    AlertMsg retraction{ne_.id(), alert_id, {msg.responder}, true};
    const auto bytes = wire_size(retraction);
    ne_.send(aggregator, kind::kAlert, std::move(retraction), bytes);
  }
}

void StabilityPlane::observe(NodeId suspect, NodeId observer) {
  if (!ne_.in_roster(suspect) || suspect == ne_.id()) return;
  aggregator_.observe(suspect, observer, ne_.now());
  check_cut();
}

void StabilityPlane::check_cut() {
  // K is clamped to the observers that can exist (ring peers minus the
  // suspect): a K nobody can reach would disable early firing entirely and
  // every cut would wait out the full window.
  const std::size_t ring = ne_.roster_.size();
  const int feasible = ring > 1 ? static_cast<int>(ring) - 1 : 1;
  const int k = std::max(1, std::min(kStabilityK, feasible));
  if (aggregator_.ready(ne_.now(), ne_.config_.stability_window, k)) {
    // A K-corroborated cut fires immediately. A deadline-only cut first
    // verifies its suspects: the dominant false-cut path is a suppressed
    // flap whose one-shot retraction was lost in transit, leaving a stale
    // single observation to ride out the window. The verification ping is
    // the same alert/ack liveness exchange the observers use; only the
    // suspects that stay silent through the retx budget are cut.
    if (!aggregator_.corroborated(k)) {
      start_cut_verifications();
      if (cut_verifies_in_flight()) {
        arm_cut_timer();
        return;
      }
    }
    const StabilityAggregator::Cut cut = aggregator_.take();
    for (const NodeId suspect : cut.suspects) cancel_cut_verification(suspect);
    ne_.metrics_.stability_cuts.increment();
    ne_.metrics_.stability_batched_failures.increment(cut.suspects.size());
    ne_.obs_.tracer.record(ne_.now(), ne_.id(), obs::FlightKind::kCutApplied,
                           cut.suspects.size(), cut.observers);
    ne_.declare_cut(cut.suspects);
  }
  arm_cut_timer();
}

void StabilityPlane::start_cut_verifications() {
  for (const NodeId suspect : aggregator_.suspects()) {
    if (pending_verifies_.count(suspect) != 0) continue;
    PendingVerify pv;
    pv.alert_id = origin_scoped_id(ne_.id(), ++alert_counter_);
    pv.pings_left = ne_.config_.max_retx;
    ping(suspect, pv.alert_id);
    pv.ping_timer = ne_.set_timer(ne_.config_.retx_timeout, [this, suspect]() {
      on_verify_ping_timeout(suspect);
    });
    pending_verifies_.emplace(suspect, std::move(pv));
  }
}

bool StabilityPlane::cut_verifies_in_flight() const {
  for (const auto& [suspect, pv] : pending_verifies_) {
    if (!pv.expired) return true;
  }
  return false;
}

void StabilityPlane::on_verify_ping_timeout(NodeId suspect) {
  const auto it = pending_verifies_.find(suspect);
  if (it == pending_verifies_.end() || it->second.expired) return;
  if (it->second.pings_left <= 0) {
    // Silent through the whole budget: the suspect no longer blocks the
    // deadline cut. The entry stays (expired) so it is not re-verified.
    it->second.expired = true;
    check_cut();
    return;
  }
  --it->second.pings_left;
  ping(suspect, it->second.alert_id);
  it->second.ping_timer = ne_.set_timer(
      ne_.config_.retx_timeout,
      [this, suspect]() { on_verify_ping_timeout(suspect); });
}

void StabilityPlane::cancel_cut_verification(NodeId suspect) {
  const auto it = pending_verifies_.find(suspect);
  if (it == pending_verifies_.end()) return;
  ne_.cancel_timer(it->second.ping_timer);
  pending_verifies_.erase(it);
}

void StabilityPlane::arm_cut_timer() {
  ne_.cancel_timer(cut_timer_);
  const sim::Time deadline = aggregator_.deadline(ne_.config_.stability_window);
  if (deadline == 0) return;
  const sim::Time now = ne_.now();
  // A passed deadline that waits on verifications needs no timer: every
  // answer, expiry and forget() re-checks the cut.
  if (deadline <= now && cut_verifies_in_flight()) return;
  const sim::Duration delay = deadline > now ? deadline - now : 1;
  cut_timer_ = ne_.set_timer(delay, [this]() { check_cut(); });
}

void StabilityPlane::reset() {
  for (auto& [suspect, pending] : pending_alerts_) {
    ne_.cancel_timer(pending.ping_timer);
    ne_.cancel_timer(pending.fallback_timer);
  }
  pending_alerts_.clear();
  for (auto& [suspect, pending] : pending_verifies_) {
    ne_.cancel_timer(pending.ping_timer);
  }
  pending_verifies_.clear();
  aggregator_.clear();
  ne_.cancel_timer(cut_timer_);
}

}  // namespace rgb::core
