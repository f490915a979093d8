#include "obs/trace.hpp"

#include <algorithm>
#include <sstream>

namespace rgb::obs {

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kOpBorn:
      return "op_born";
    case FlightKind::kRoundStarted:
      return "round_started";
    case FlightKind::kRoundCompleted:
      return "round_completed";
    case FlightKind::kTokenRetx:
      return "token_retx";
    case FlightKind::kRepair:
      return "repair";
    case FlightKind::kLeaderFailover:
      return "leader_failover";
    case FlightKind::kRingReform:
      return "ring_reform";
    case FlightKind::kMerge:
      return "merge";
    case FlightKind::kShapeAdopt:
      return "shape_adopt";
    case FlightKind::kReconcileRound:
      return "reconcile_round";
    case FlightKind::kReconcileReanchor:
      return "reconcile_reanchor";
    case FlightKind::kSnapshotApplied:
      return "snapshot_applied";
    case FlightKind::kSnapshotRejected:
      return "snapshot_rejected";
    case FlightKind::kDetectMemberFail:
      return "detect_member_fail";
    case FlightKind::kDetectNeFail:
      return "detect_ne_fail";
    case FlightKind::kNeJoin:
      return "ne_join";
    case FlightKind::kNeLeave:
      return "ne_leave";
    case FlightKind::kAlertRaised:
      return "alert_raised";
    case FlightKind::kCutApplied:
      return "cut_applied";
    case FlightKind::kStabilityFallback:
      return "stability_fallback";
  }
  return "?";
}

FlightOperandNames flight_operand_names(FlightKind kind) {
  switch (kind) {
    case FlightKind::kOpBorn:
      return {"uid", "kind"};
    case FlightKind::kRoundStarted:
    case FlightKind::kRoundCompleted:
      return {"round", "ops"};
    case FlightKind::kTokenRetx:
      return {"round", "retx"};
    case FlightKind::kRepair:
      return {"faulty", "stranded"};
    case FlightKind::kLeaderFailover:
      return {"leader", "old"};
    case FlightKind::kRingReform:
      return {"leader", "roster"};
    case FlightKind::kMerge:
      return {"fragment", "roster"};
    case FlightKind::kShapeAdopt:
      return {"from", "roster"};
    case FlightKind::kReconcileRound:
      return {"claims", "target"};
    case FlightKind::kReconcileReanchor:
      return {"guid", "claim"};
    case FlightKind::kSnapshotApplied:
      return {"from", "entries"};
    case FlightKind::kSnapshotRejected:
      return {"from", "errors"};
    case FlightKind::kDetectMemberFail:
      return {"guid", "latency_us"};
    case FlightKind::kDetectNeFail:
      return {"ne", "latency_us"};
    case FlightKind::kNeJoin:
      return {"ne", "after"};
    case FlightKind::kNeLeave:
      return {"ne", nullptr};
    case FlightKind::kAlertRaised:
    case FlightKind::kStabilityFallback:
      return {"suspect", "alert"};
    case FlightKind::kCutApplied:
      return {"suspects", "observers"};
  }
  return {"a", "b"};
}

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOpRoot:
      return "op_root";
    case SpanKind::kSend:
      return "send";
    case SpanKind::kHandler:
      return "handle";
    case SpanKind::kApply:
      return "apply";
  }
  return "?";
}

void OpTracer::record(sim::Time at, common::NodeId ne, FlightKind kind,
                      std::uint64_t a, std::uint64_t b) {
  flight_.push(FlightEvent{at, ne, kind, a, b});
}

std::uint64_t OpTracer::record_span(sim::Time at, common::NodeId ne,
                                    SpanKind kind, std::uint64_t trace,
                                    std::uint64_t parent, std::uint64_t a,
                                    std::uint64_t b) {
  if (!spans_enabled_) return 0;
  const std::uint64_t id = kSpanIdBase | ++last_span_id_;
  spans_.push(Span{at, ne, kind, id, parent, trace, a, b});
  return id;
}

OpTracer::Context OpTracer::exchange(Context next) {
  const Context prev = ctx_;
  ctx_ = next;
  return prev;
}

OpTracer::Context OpTracer::on_op_born(const core::MembershipOp& op,
                                       common::NodeId at, sim::Time now) {
  record(now, at, FlightKind::kOpBorn, op.uid,
         static_cast<std::uint64_t>(op.kind));
  if (!spans_enabled_) return current();
  // The birth is the root of the op's causal tree: trace id = uid,
  // parent = none (a birth inside a delivery handler still opens a fresh
  // trace — the op is new protocol work, not a continuation).
  const std::uint64_t root =
      record_span(now, at, SpanKind::kOpRoot, op.uid, 0,
                  static_cast<std::uint64_t>(op.kind), op.uid);
  return Context{op.uid, root};
}

void OpTracer::on_op_applied(const core::MembershipOp& op, common::NodeId at,
                             int tier, sim::Time now) {
  if (spans_enabled_) {
    // The apply parents under the executing context (the delivering
    // handler's span, or the birth scope for a local apply) and stays in
    // that context's trace, so per-trace parent links always resolve
    // within the trace. The op uid rides in operand b — a token handler
    // applies many ops under one trace.
    const Context ctx = current();
    if (ctx.trace != 0) {
      record_span(now, at, SpanKind::kApply, ctx.trace, ctx.span,
                  static_cast<std::uint64_t>(op.kind), op.uid);
    }
  }
  // Ops forged without a birth stamp (e.g. baseline protocols outside the
  // RGB fixture) carry born == 0 with a non-zero apply tick; a stamp is
  // only trustworthy when it is <= now.
  if (op.born > now) return;
  const auto latency = static_cast<double>(now - op.born);
  dissemination_[static_cast<std::size_t>(op.kind)].add(latency);
  // First root-tier apply per uid = the join became visible "at root".
  if (op.kind == core::OpKind::kMemberJoin && tier == 0 &&
      joins_seen_at_root_.insert(op.uid)) {
    join_latency_.add(latency);
  }
}

void OpTracer::on_member_detected(common::Guid mh, common::NodeId detector,
                                  sim::Duration latency, sim::Time now) {
  member_detection_.add(static_cast<double>(latency));
  record(now, detector, FlightKind::kDetectMemberFail, mh.value(), latency);
}

void OpTracer::on_ne_detected(common::NodeId ne, common::NodeId detector,
                              sim::Duration latency, sim::Time now) {
  ne_detection_.add(static_cast<double>(latency));
  record(now, detector, FlightKind::kDetectNeFail, ne.value(), latency);
}

void OpTracer::on_view_change(FlightKind kind, common::NodeId at,
                              std::uint64_t a, std::uint64_t b,
                              sim::Time now) {
  view_changes_.increment();
  record(now, at, kind, a, b);
}

void OpTracer::on_send(net::Envelope& env, sim::Time now) {
  if (!spans_enabled_) return;
  const Context ctx = current();
  if (ctx.trace == 0) return;  // untraced traffic stays unstamped
  env.trace = ctx.trace;
  env.span = record_span(now, env.src, SpanKind::kSend, ctx.trace, ctx.span,
                         env.kind, env.dst.value());
}

void OpTracer::on_deliver(const net::Envelope& env, sim::Time now,
                          net::Endpoint& endpoint) {
  const std::size_t slot =
      std::min<std::size_t>(env.kind, kMaxMessageKinds - 1);
  if (!spans_enabled_) {
    // Default-on profile path: the handler, then one array bump.
    endpoint.deliver(env);
    ++handled_[slot];
    return;
  }
  // Traced path: the handler span parents under the envelope's send span
  // (0 for untraced traffic) and becomes the causal context for sends and
  // applies inside the handler. Deliveries never nest — every message is
  // re-delivered through a scheduled event — so a single save/restore
  // scope is sound.
  const std::uint64_t handler =
      record_span(now, env.dst, SpanKind::kHandler, env.trace, env.span,
                  env.kind, env.src.value());
  const Scope scope{*this, Context{env.trace, handler}};
  endpoint.deliver(env);
  ++handled_[slot];
}

std::string OpTracer::flight_tail(std::size_t max_events) const {
  const std::vector<FlightEvent> all = flight_events();
  const std::size_t n =
      max_events == 0 ? all.size() : std::min(max_events, all.size());
  const std::uint64_t total = flight_counts().recorded;
  const std::uint64_t skipped = total - n;
  std::ostringstream os;
  os << "flight recorder: last " << n << " of " << total << " event(s)";
  if (skipped > 0) os << " (" << skipped << " earlier not shown)";
  os << '\n';
  for (std::size_t i = all.size() - n; i < all.size(); ++i) {
    const FlightEvent& e = all[i];
    const FlightOperandNames names = flight_operand_names(e.kind);
    os << "  t=" << e.at << "us ne=" << e.ne.value() << ' '
       << to_string(e.kind) << ' ' << names.a << '=' << e.a;
    if (names.b != nullptr) os << ' ' << names.b << '=' << e.b;
    os << '\n';
  }
  return os.str();
}

common::Histogram OpTracer::merged_member_dissemination() const {
  common::Histogram merged;
  for (const core::OpKind kind :
       {core::OpKind::kMemberJoin, core::OpKind::kMemberLeave,
        core::OpKind::kMemberHandoff, core::OpKind::kMemberFail}) {
    merged.merge(dissemination(kind));
  }
  return merged;
}

std::uint64_t OpTracer::handled_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : handled_) total += n;
  return total;
}

}  // namespace rgb::obs
