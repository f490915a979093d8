// Umbrella for the observability layer: one ProtocolObs per protocol
// instance (owned by core::RgbSystem, threaded by reference into every
// NetworkEntity). Everything inside is per-trial state keyed to sim time —
// no globals, no wall clock — so concurrent trial workers never share
// observability state and all output is byte-identical across thread
// counts.
#pragma once

#include "obs/series.hpp"
#include "obs/trace.hpp"

namespace rgb::obs {

/// The per-instance observability bundle. Default-on and allocation
/// bounded: the flight rings are preallocated and histograms are
/// fixed-size bucket arrays. Spans are the one opt-in piece
/// (OpTracer::set_spans_enabled); the tracer is also the net::TraceHooks
/// RgbSystem installs on its network.
struct ProtocolObs {
  ProtocolObs() = default;
  ProtocolObs(const ProtocolObs&) = delete;
  ProtocolObs& operator=(const ProtocolObs&) = delete;

  OpTracer tracer;
};

}  // namespace rgb::obs
