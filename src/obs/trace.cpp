#include "obs/trace.hpp"

#include <algorithm>
#include <sstream>

#include "sim/simulator.hpp"

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

void OpTracer::configure_shards(std::uint32_t count) {
  stripes_ = std::vector<Stripe>(count == 0 ? 1 : count);
}

OpTracer::Stripe& OpTracer::stripe() {
  const std::uint32_t s = sim::current_executing_shard();
  return stripes_[s < stripes_.size() ? s : 0];
}

void OpTracer::record(sim::Time at, common::NodeId ne, FlightKind kind,
                      std::uint64_t a, std::uint64_t b) {
  stripe().flight.push(FlightEvent{at, ne, kind, a, b});
}

std::uint64_t OpTracer::record_span(sim::Time at, common::NodeId ne,
                                    SpanKind kind, std::uint64_t trace,
                                    std::uint64_t parent, std::uint64_t a,
                                    std::uint64_t b) {
  if (!spans_enabled_) return 0;
  Stripe& st = stripe();
  // Stripe index in the high bits keeps ids unique across stripes without
  // shared state; both halves are deterministic (the stripe executing a
  // given event is the logical shard, never the worker thread).
  const auto stripe_idx = static_cast<std::uint64_t>(&st - stripes_.data());
  const std::uint64_t id = ((stripe_idx + 1) << 40) | ++st.last_span_id;
  st.spans.push(Span{at, ne, kind, id, parent, trace, a, b});
  return id;
}

OpTracer::Context OpTracer::current() { return stripe().ctx; }

OpTracer::Context OpTracer::exchange(Context next) {
  Stripe& st = stripe();
  const Context prev = st.ctx;
  st.ctx = next;
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
  Stripe& st = stripe();
  const auto latency = static_cast<double>(now - op.born);
  st.latency.dissemination[static_cast<std::size_t>(op.kind)].add(latency);
  if (op.kind == core::OpKind::kMemberJoin && tier == 0) {
    // First root-tier apply per uid = the join became visible "at root".
    // Sharded: every root-tier NE applies the join eventually, and root
    // NEs of one ring live on different shards — per-stripe dedup alone
    // would record the sample once per shard. Each uid therefore has one
    // designated recording stripe (uid mod shard count): exactly one
    // sample per join, picked deterministically.
    const auto stripe_idx = static_cast<std::size_t>(&st - stripes_.data());
    if (stripes_.size() > 1 && op.uid % stripes_.size() != stripe_idx) {
      return;
    }
    if (st.joins_seen_at_root.insert(op.uid)) {
      st.latency.join_latency.add(latency);
    }
  }
}

void OpTracer::on_member_detected(common::Guid mh, common::NodeId detector,
                                  sim::Duration latency, sim::Time now) {
  stripe().latency.member_detection.add(static_cast<double>(latency));
  record(now, detector, FlightKind::kDetectMemberFail, mh.value(), latency);
}

void OpTracer::on_ne_detected(common::NodeId ne, common::NodeId detector,
                              sim::Duration latency, sim::Time now) {
  stripe().latency.ne_detection.add(static_cast<double>(latency));
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
    ++stripe().handled[slot];
    return;
  }
  // Traced path: the handler span parents under the envelope's send span
  // (0 for untraced traffic) and becomes the causal context for sends and
  // applies inside the handler. Deliveries never nest — every message is
  // re-delivered through a scheduled event — so a single save/restore
  // scope per stripe is sound.
  const std::uint64_t handler =
      record_span(now, env.dst, SpanKind::kHandler, env.trace, env.span,
                  env.kind, env.src.value());
  const Scope scope{*this, Context{env.trace, handler}};
  endpoint.deliver(env);
  ++stripe().handled[slot];
}

std::vector<FlightEvent> OpTracer::flight_events() const {
  return merge_by_time(stripes_, &Stripe::flight);
}

std::vector<Span> OpTracer::spans() const {
  return merge_by_time(stripes_, &Stripe::spans);
}

template <typename T>
OpTracer::RingCounts OpTracer::counts(BoundedRing<T> Stripe::*ring) const {
  RingCounts out;
  for (const Stripe& s : stripes_) {
    out.recorded += (s.*ring).recorded();
    out.dropped += (s.*ring).dropped();
  }
  return out;
}

OpTracer::RingCounts OpTracer::flight_counts() const {
  return counts(&Stripe::flight);
}

OpTracer::RingCounts OpTracer::span_counts() const {
  return counts(&Stripe::spans);
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

const common::Histogram& OpTracer::merged(common::Histogram Latency::*member,
                                          common::Histogram& cache) const {
  if (stripes_.size() == 1) return stripes_[0].latency.*member;
  cache = common::Histogram{};
  for (const Stripe& s : stripes_) cache.merge(s.latency.*member);
  return cache;
}

const common::Histogram& OpTracer::dissemination(core::OpKind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  if (stripes_.size() == 1) return stripes_[0].latency.dissemination[k];
  merge_cache_.dissemination[k] = common::Histogram{};
  for (const Stripe& s : stripes_) {
    merge_cache_.dissemination[k].merge(s.latency.dissemination[k]);
  }
  return merge_cache_.dissemination[k];
}

const common::Histogram& OpTracer::join_latency() const {
  return merged(&Latency::join_latency, merge_cache_.join_latency);
}

const common::Histogram& OpTracer::member_detection() const {
  return merged(&Latency::member_detection, merge_cache_.member_detection);
}

const common::Histogram& OpTracer::ne_detection() const {
  return merged(&Latency::ne_detection, merge_cache_.ne_detection);
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

OpTracer::HandledPerKind OpTracer::handled_per_kind() const {
  HandledPerKind out{};
  for (const Stripe& s : stripes_) {
    for (std::size_t k = 0; k < kMaxMessageKinds; ++k) out[k] += s.handled[k];
  }
  return out;
}

std::uint64_t OpTracer::handled_total() const {
  std::uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    for (const std::uint64_t n : s.handled) total += n;
  }
  return total;
}

}  // namespace rgb::obs
