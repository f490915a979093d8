#include "obs/trace.hpp"

#include "sim/simulator.hpp"

namespace rgb::obs {

OpTracer::OpTracer(FlightRecorder& flight, SpanRecorder& spans)
    : flight_(flight), spans_(spans) {}

void OpTracer::configure_shards(std::uint32_t count) {
  stripes_.assign(count == 0 ? 1 : count, Stripe());
}

OpTracer::Stripe& OpTracer::stripe() {
  const std::uint32_t s = sim::current_executing_shard();
  return stripes_[s < stripes_.size() ? s : 0];
}

SpanRecorder::Context OpTracer::on_op_born(const core::MembershipOp& op,
                                           common::NodeId at, sim::Time now) {
  flight_.record(now, at, FlightKind::kOpBorn, op.uid,
                 static_cast<std::uint64_t>(op.kind));
  if (!spans_.enabled()) return spans_.current();
  // The birth is the root of the op's causal tree: trace id = uid,
  // parent = none (a birth inside a delivery handler still opens a fresh
  // trace — the op is new protocol work, not a continuation).
  const std::uint64_t root =
      spans_.record(now, at, SpanKind::kOpRoot, op.uid, 0,
                    static_cast<std::uint64_t>(op.kind), op.uid);
  return SpanRecorder::Context{op.uid, root};
}

void OpTracer::on_op_applied(const core::MembershipOp& op, common::NodeId at,
                             int tier, sim::Time now) {
  if (spans_.enabled()) {
    // The apply parents under the executing context (the delivering
    // handler's span, or the birth scope for a local apply) and stays in
    // that context's trace, so per-trace parent links always resolve
    // within the trace. The op uid rides in operand b — a token handler
    // applies many ops under one trace.
    const SpanRecorder::Context ctx = spans_.current();
    if (ctx.trace != 0) {
      spans_.record(now, at, SpanKind::kApply, ctx.trace, ctx.span,
                    static_cast<std::uint64_t>(op.kind), op.uid);
    }
  }
  // Ops forged without a birth stamp (e.g. baseline protocols outside the
  // RGB fixture) carry born == 0 with a non-zero apply tick; a stamp is
  // only trustworthy when it is <= now.
  if (op.born > now) return;
  Stripe& st = stripe();
  const auto latency = static_cast<double>(now - op.born);
  st.dissemination[static_cast<std::size_t>(op.kind)].add(latency);
  if (op.kind == core::OpKind::kMemberJoin && tier == 0) {
    // First root-tier apply per uid = the join became visible "at root".
    // Sharded: every root-tier NE applies the join eventually, and root
    // NEs of one ring live on different shards — per-stripe dedup alone
    // would record the sample once per shard. Each uid therefore has one
    // designated recording stripe (uid mod shard count): exactly one
    // sample per join, picked deterministically.
    const auto stripe_idx =
        static_cast<std::size_t>(&st - stripes_.data());
    if (stripes_.size() > 1 && op.uid % stripes_.size() != stripe_idx) {
      return;
    }
    if (st.joins_seen_at_root.insert(op.uid)) st.join_latency.add(latency);
  }
}

void OpTracer::on_member_detected(common::Guid mh, common::NodeId detector,
                                  sim::Duration latency, sim::Time now) {
  stripe().member_detection.add(static_cast<double>(latency));
  flight_.record(now, detector, FlightKind::kDetectMemberFail, mh.value(),
                 latency);
}

void OpTracer::on_ne_detected(common::NodeId ne, common::NodeId detector,
                              sim::Duration latency, sim::Time now) {
  stripe().ne_detection.add(static_cast<double>(latency));
  flight_.record(now, detector, FlightKind::kDetectNeFail, ne.value(),
                 latency);
}

void OpTracer::on_view_change(FlightKind kind, common::NodeId at,
                              std::uint64_t a, std::uint64_t b,
                              sim::Time now) {
  view_changes_.increment();
  flight_.record(now, at, kind, a, b);
}

const common::Histogram& OpTracer::merged(common::Histogram Stripe::*member,
                                          common::Histogram& cache) const {
  if (stripes_.size() == 1) return stripes_[0].*member;
  cache = common::Histogram{};
  for (const Stripe& s : stripes_) cache.merge(s.*member);
  return cache;
}

const common::Histogram& OpTracer::dissemination(core::OpKind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  if (stripes_.size() == 1) return stripes_[0].dissemination[k];
  merge_cache_.dissemination[k] = common::Histogram{};
  for (const Stripe& s : stripes_) {
    merge_cache_.dissemination[k].merge(s.dissemination[k]);
  }
  return merge_cache_.dissemination[k];
}

const common::Histogram& OpTracer::join_latency() const {
  return merged(&Stripe::join_latency, merge_cache_.join_latency);
}

const common::Histogram& OpTracer::member_detection() const {
  return merged(&Stripe::member_detection, merge_cache_.member_detection);
}

const common::Histogram& OpTracer::ne_detection() const {
  return merged(&Stripe::ne_detection, merge_cache_.ne_detection);
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

common::Histogram OpTracer::merged_detection() const {
  common::Histogram merged;
  merged.merge(member_detection());
  merged.merge(ne_detection());
  return merged;
}

void OpTracer::reset() {
  for (Stripe& st : stripes_) st = Stripe();
  view_changes_.reset();
}

}  // namespace rgb::obs
