// The ProtocolObs implementation of net::TraceHooks: stamps envelopes with
// the executing causal context, records send/handler spans into the
// SpanRecorder, and feeds the HandlerProfiler — one object wired onto the
// network by RgbSystem, shared by every NE of the instance.
#pragma once

#include "net/network.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"

namespace rgb::obs {

class ObsTraceHooks : public net::TraceHooks {
 public:
  ObsTraceHooks(SpanRecorder& spans, HandlerProfiler& profiler)
      : spans_(spans), profiler_(profiler) {}

  /// Stamps env.trace/env.span from the executing context and records the
  /// kSend span (no-op when spans are disabled or no trace is active).
  void on_send(net::Envelope& env, sim::Time now) override;

  /// Counts the delivery (default-on) and — when spans are enabled —
  /// records the kHandler span and installs {env.trace, handler span} as
  /// the causal context around the handler.
  void on_deliver(const net::Envelope& env, sim::Time now,
                  net::Endpoint& endpoint) override;

 private:
  SpanRecorder& spans_;
  HandlerProfiler& profiler_;
};

}  // namespace rgb::obs
