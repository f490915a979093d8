// Multi-observer cut detection (the stability layer of the ROADMAP's
// Rapid-style open item): instead of splicing a suspect out of the ring on
// the first missed ack, detectors raise *alerts*; this aggregator —
// running at the ring leader (or, when the leader itself is the suspect,
// at the presumptive next leader) — collects them into an almost-
// everywhere cut that is applied as ONE batched reconfiguration.
//
// Semantics:
//   * observe() files an alert: the suspect becomes pending with the
//     reporting observer; further observers accumulate into a distinct set.
//   * retract() withdraws one observer's alert (the suspect answered a
//     liveness ping); a suspect whose last observer retracts expires
//     without any effect — that is the flap-suppression path.
//   * The cut fires when either the earliest pending alert is a full
//     stability window old, or some suspect has reached K distinct
//     observers (K pre-clamped by the caller to the feasible observer
//     count — a K no observer set can reach would disable early firing).
//   * take() removes and returns EVERY pending suspect as one correlated
//     cut: failures that alert within the same window (a crashed ring, a
//     regional outage) collapse into a single view change instead of N
//     cascading repair rounds. Suspects still alive merely had their
//     retraction outrun by the window; the existing reaffirmation/merge
//     machinery re-admits them, exactly as it heals today's single-
//     observer false positives.
//
// The class is pure and deterministic: no timers, no clocks — sim::Time is
// passed in, pending suspects iterate in NodeId order. StabilityPlane, below
// it, is the NE component that drives it with alerts, pings and timers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "rgb/messages.hpp"
#include "rgb/types.hpp"
#include "sim/simulator.hpp"

namespace rgb::core {

class NetworkEntity;

class StabilityAggregator {
 public:
  struct Cut {
    std::vector<NodeId> suspects;  ///< NodeId-sorted
    std::size_t observers = 0;     ///< distinct observers across the cut
  };

  /// Files observer's alert against suspect (idempotent per pair).
  void observe(NodeId suspect, NodeId observer, sim::Time at);

  /// Withdraws observer's alert; the suspect expires when none remain.
  void retract(NodeId suspect, NodeId observer);

  /// Drops a suspect outright (spliced by an unrelated repair/reform).
  void forget(NodeId suspect);

  void clear() { pending_.clear(); }

  /// NodeId-sorted pending suspects (the would-be cut composition).
  [[nodiscard]] std::vector<NodeId> suspects() const;

  /// Earliest (first alert + window) across pending suspects; 0 when none.
  [[nodiscard]] sim::Time deadline(sim::Duration window) const;

  /// True when the cut should fire: the window deadline passed, or some
  /// suspect reached `k` distinct observers.
  [[nodiscard]] bool ready(sim::Time now, sim::Duration window, int k) const;

  /// True when some suspect reached `k` distinct observers (the corroborated
  /// early-fire path, independent of the window deadline).
  [[nodiscard]] bool corroborated(int k) const;

  /// Removes and returns all pending suspects as one correlated cut.
  [[nodiscard]] Cut take();

 private:
  struct PendingSuspect {
    std::vector<NodeId> observers;  ///< distinct, insertion order
    sim::Time first_seen = 0;
  };

  /// Ordered map: iteration (and thus cut composition) is deterministic
  /// for any insertion history.
  std::map<NodeId, PendingSuspect> pending_;
};

// The NE's stability plane. With config.stability on, the three detector
// sites (token-hop retx exhaustion, unanswered token requests, the
// silent-member sweep) no longer declare on first observation. An NE
// suspect gets an *alert*: sent to the ring leader's aggregator
// (leader-death: to the presumptive next leader) and, as a liveness
// counter-check, to the suspect itself — a live suspect's kAlertAck cancels
// the pending alert and retracts it at the aggregator. The observer arms a
// stability_timeout fallback that degrades to the single-observer declare,
// so detection latency stays bounded and liveness never regresses. Handles
// kAlert and kAlertAck.
class StabilityPlane {
 public:
  explicit StabilityPlane(NetworkEntity& ne) : ne_(ne) {}
  StabilityPlane(const StabilityPlane&) = delete;  // timers hold its address
  StabilityPlane& operator=(const StabilityPlane&) = delete;

  /// A detector's verdict on `suspect`: an immediate cut without the
  /// stability layer, an alert with it.
  void report_suspect(NodeId suspect);
  /// Consumes every pending piece of evidence about `node` (its verdict is
  /// in: it was cut, repaired out by a peer or removed by an NE op) rather
  /// than leaving it to fire again, and re-arms the cut timer.
  void forget(NodeId node);
  /// Cancels every pending alert and pending cut (the NE left its ring: the
  /// evidence references a roster it no longer has).
  void reset();

  void handle_alert(const AlertMsg& msg, NodeId from);
  void handle_alert_ack(const AlertAckMsg& msg);

 private:
  void raise_alert(NodeId suspect);
  void cancel_alert(NodeId suspect);
  /// One liveness ping: a kAlert naming `suspect`, sent to it.
  void ping(NodeId suspect, std::uint64_t alert_id);
  void on_alert_ping_timeout(NodeId suspect);
  void on_fallback(NodeId suspect, std::uint64_t alert_id);
  /// Aggregator intake + fire check (this NE hosts the cut decision).
  void observe(NodeId suspect, NodeId observer);
  void check_cut();
  void arm_cut_timer();
  /// Deadline-path cuts verify first: an alert whose observer-side
  /// retraction was lost would otherwise fire a single-observation cut at
  /// the window deadline. The aggregator pings each pending suspect with
  /// the normal alert/ack exchange (retx budget as any hop); an answer
  /// forgets the suspect, silence lets the cut proceed. A passed deadline
  /// waits on its verifications without a timer: each answer, expiry and
  /// forget() re-checks the cut.
  void start_cut_verifications();
  [[nodiscard]] bool cut_verifies_in_flight() const;
  void on_verify_ping_timeout(NodeId suspect);
  void cancel_cut_verification(NodeId suspect);

  NetworkEntity& ne_;
  /// One alert this NE raised and has not resolved, keyed by suspect.
  struct PendingAlert {
    std::uint64_t alert_id = 0;
    NodeId aggregator;           ///< where the alert was filed
    sim::EventId ping_timer{};   ///< liveness ping retx cadence
    sim::EventId fallback_timer{};
  };
  std::unordered_map<NodeId, PendingAlert> pending_alerts_;
  StabilityAggregator aggregator_;
  sim::EventId cut_timer_{};
  std::uint64_t alert_counter_ = 0;
  /// Aggregator-side pre-cut liveness verification, keyed by suspect. An
  /// entry with `expired == true` failed verification and no longer blocks
  /// the cut (and is not re-verified).
  struct PendingVerify {
    std::uint64_t alert_id = 0;
    int pings_left = 0;          ///< remaining retransmissions
    bool expired = false;
    sim::EventId ping_timer{};
  };
  std::map<NodeId, PendingVerify> pending_verifies_;
};

}  // namespace rgb::core
