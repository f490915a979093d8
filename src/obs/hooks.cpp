#include "obs/hooks.hpp"

namespace rgb::obs {

void ObsTraceHooks::on_send(net::Envelope& env, sim::Time now) {
  if (!spans_.enabled()) return;
  const SpanRecorder::Context ctx = spans_.current();
  if (ctx.trace == 0) return;  // untraced traffic stays unstamped
  env.trace = ctx.trace;
  env.span = spans_.record(now, env.src, SpanKind::kSend, ctx.trace, ctx.span,
                           env.kind, env.dst.value());
}

void ObsTraceHooks::on_deliver(const net::Envelope& env, sim::Time now,
                               net::Endpoint& endpoint) {
  if (!spans_.enabled()) {
    // Default-on profile path: one array bump, then the handler.
    endpoint.deliver(env);
    profiler_.on_handled(env.kind);
    return;
  }

  // Traced path: the handler span parents under the envelope's send span
  // (0 for untraced traffic) and becomes the causal context for sends and
  // applies inside the handler. Deliveries never nest — every message is
  // re-delivered through a scheduled event — so a single save/restore
  // scope per stripe is sound.
  const std::uint64_t handler = spans_.record(
      now, env.dst, SpanKind::kHandler, env.trace, env.span, env.kind,
      env.src.value());
  const SpanRecorder::Scope scope{spans_,
                                  SpanRecorder::Context{env.trace, handler}};
  endpoint.deliver(env);
  profiler_.on_handled(env.kind);
}

}  // namespace rgb::obs
