// Chrome trace-event exporter: renders an OpTracer's spans (plus its
// flight events) as a JSON trace loadable in Perfetto / chrome://tracing.
//
// Mapping:
//  * one track per NE (pid 1, tid = NE id, named via "M" metadata events);
//  * kSend / kHandler spans -> "X" complete events at their sim-time
//    microsecond (dur 1 — handlers execute atomically in sim time);
//  * each traced send->deliver hop -> an "s"/"f" flow-event pair keyed by
//    the send span id, drawing the cross-NE arrow;
//  * kOpRoot / kApply spans and all flight-recorder events -> "i" instant
//    events, so ring repairs and round lifecycle land on the same
//    timeline as the hops they explain.
//
// Output is a pure function of the recorded spans/events: integer-only
// values, fixed field order, '\n' separators — byte-identical whenever
// the recorded data is.
#pragma once

#include <iosfwd>

#include "obs/trace.hpp"

namespace rgb::obs {

void write_chrome_trace(std::ostream& os, const OpTracer& tracer);

}  // namespace rgb::obs
