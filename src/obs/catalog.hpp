// The metric catalog behind `rgb_exp metrics --catalog`: one aligned
// "name  type  description" line per exported metric.
//
// Naming scheme (see EXPERIMENTS.md "Observability"):
//   rgb.<counter>           protocol counters (core::kRgbMetricFields)
//   net.<counter>           network totals (net::kNetMetricFields)
//   net.sent.kind<K>        per-message-kind sends, ordered by kind id
//   net.bytes.kind<K>       per-message-kind bytes, ordered by kind id
//   obs.view_changes        ring-shape transitions (OpTracer)
//   obs.prof.<gauge>        handler profile and queue depths
//   obs.lat.<instrument>    histograms: dissemination.<op-kind>,
//                           join_to_root, detect.member, detect.ne
//
// The counter and network rows come from the structs' own field lists, so
// the catalog needs no live system and cannot drift from the fields.
#pragma once

#include <iosfwd>

namespace rgb::obs {

/// Writes every metric's row: the rgb.* counters, the net.* totals, the
/// per-kind families, then the obs.* rows and histograms.
void write_catalog(std::ostream& os);

}  // namespace rgb::obs
