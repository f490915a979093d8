// Protocol-level metrics shared by all NEs of one RGB instance. Network-level
// message/hop counts live in net::Network::Metrics; this struct counts
// protocol events the network cannot see (rounds, repairs, failovers).
#pragma once

#include <cstdint>
#include <iterator>

#include "common/stats.hpp"
#include "net/network.hpp"
#include "rgb/messages.hpp"

namespace rgb::core {

struct RgbMetrics {
  common::Counter rounds_started;
  common::Counter rounds_completed;
  common::Counter empty_probe_rounds;
  common::Counter ops_disseminated;
  common::Counter ops_aggregated;
  common::Counter token_retransmits;
  common::Counter repairs;
  common::Counter leader_failovers;
  common::Counter notifications_sent;
  common::Counter notify_retransmits;
  common::Counter holder_acks;
  common::Counter merges;
  common::Counter ne_joins;
  common::Counter ne_leaves;
  common::Counter snapshots_sent;
  common::Counter snapshots_applied;
  common::Counter snapshot_decode_errors;
  common::Counter snapshot_retransmits;
  common::Counter snapshot_push_give_ups;
  common::Counter reconcile_rounds;
  common::Counter reconcile_replies;
  common::Counter reconcile_retransmits;
  common::Counter reconcile_give_ups;
  common::Counter reconcile_reanchors;
  common::Counter stability_alerts;
  common::Counter stability_cuts;
  common::Counter stability_batched_failures;
  common::Counter stability_suppressed_flaps;
  common::Counter stability_timeout_fallbacks;
  common::Counter digest_groups_packed;
  common::Counter group_fulls_sent;
  common::Counter group_diffs_sent;
  common::Counter groups_created;
};

/// Every RgbMetrics counter, in catalog order: the one description of each.
inline constexpr common::MetricField<RgbMetrics, common::Counter>
    kRgbMetricFields[] = {
        {"rgb.rounds_started", &RgbMetrics::rounds_started,
         "token rounds started (token granted and launched)"},
        {"rgb.rounds_completed", &RgbMetrics::rounds_completed,
         "token rounds that returned to the holder"},
        {"rgb.empty_probe_rounds", &RgbMetrics::empty_probe_rounds,
         "rounds carrying zero ops (liveness probes)"},
        {"rgb.ops_disseminated", &RgbMetrics::ops_disseminated,
         "membership ops applied to a ring member table"},
        {"rgb.ops_aggregated", &RgbMetrics::ops_aggregated,
         "ops collapsed by MQ aggregation before circulation"},
        {"rgb.token_retransmits", &RgbMetrics::token_retransmits,
         "token hops re-sent after a missing pass-ack"},
        {"rgb.repairs", &RgbMetrics::repairs,
         "ring splices around a faulty member"},
        {"rgb.leader_failovers", &RgbMetrics::leader_failovers,
         "leadership transfers after a leader failure"},
        {"rgb.notifications_sent", &RgbMetrics::notifications_sent,
         "inter-ring notification messages sent"},
        {"rgb.notify_retransmits", &RgbMetrics::notify_retransmits,
         "notifications re-sent after a missing holder-ack"},
        {"rgb.holder_acks", &RgbMetrics::holder_acks,
         "holder acknowledgements sent for carried notifies"},
        {"rgb.merges", &RgbMetrics::merges,
         "ring fragments absorbed after a partition heals"},
        {"rgb.ne_joins", &RgbMetrics::ne_joins,
         "network entities admitted into a ring"},
        {"rgb.ne_leaves", &RgbMetrics::ne_leaves,
         "network entities departing a ring voluntarily"},
        {"rgb.snapshots_sent", &RgbMetrics::snapshots_sent,
         "full-state snapshots sent to lagging peers"},
        // Counted only when the import changed the view.
        {"rgb.snapshots_applied", &RgbMetrics::snapshots_applied,
         "snapshots decoded and imported"},
        {"rgb.snapshot_decode_errors", &RgbMetrics::snapshot_decode_errors,
         "snapshots rejected by wire decoding"},
        {"rgb.snapshot_retransmits", &RgbMetrics::snapshot_retransmits,
         "snapshots re-sent after a missing ack"},
        {"rgb.snapshot_push_give_ups", &RgbMetrics::snapshot_push_give_ups,
         "snapshot pushes abandoned after retry exhaustion"},
        // Post-heal reconciliation (kReconcile re-anchoring rounds). The
        // heal-path tests read these to assert the round actually ran.
        {"rgb.reconcile_rounds", &RgbMetrics::reconcile_rounds,
         "anti-entropy reconcile rounds initiated"},
        {"rgb.reconcile_replies", &RgbMetrics::reconcile_replies,
         "reconcile replies processed"},
        {"rgb.reconcile_retransmits", &RgbMetrics::reconcile_retransmits,
         "reconcile claims re-sent after a missing ack"},
        {"rgb.reconcile_give_ups", &RgbMetrics::reconcile_give_ups,
         "reconcile exchanges abandoned after retries"},
        {"rgb.reconcile_reanchors", &RgbMetrics::reconcile_reanchors,
         "member records re-anchored by reconciliation"},
        // Multi-observer cut detection (stability layer). The oscillation
        // A/B bench and the stability tests read these to assert
        // batching/suppression happened.
        {"rgb.stability_alerts", &RgbMetrics::stability_alerts,
         "multi-observer failure alerts raised"},
        {"rgb.stability_cuts", &RgbMetrics::stability_cuts,
         "correlated-failure cuts applied by the aggregator"},
        {"rgb.stability_batched_failures",
         &RgbMetrics::stability_batched_failures,
         "failures batched into a single cut"},
        {"rgb.stability_suppressed_flaps",
         &RgbMetrics::stability_suppressed_flaps,
         "alerts cancelled by observed liveness"},
        {"rgb.stability_timeout_fallbacks",
         &RgbMetrics::stability_timeout_fallbacks,
         "cuts forced by aggregation timeout"},
        // Multi-group serving: packed anti-entropy and directory growth.
        {"rgb.digest_groups_packed", &RgbMetrics::digest_groups_packed,
         "per-group digests packed into kDigest sync frames"},
        {"rgb.group_fulls_sent", &RgbMetrics::group_fulls_sent,
         "groups shipped in scoped kFull sync replies"},
        {"rgb.group_diffs_sent", &RgbMetrics::group_diffs_sent,
         "groups shipped in scoped kDiff sync replies"},
        {"rgb.groups_created", &RgbMetrics::groups_created,
         "group states instantiated in NE directories"},
};

// RgbMetrics holds only counters, so a counter without a row, or a row
// naming a counter twice, fails one of these.
static_assert(std::size(kRgbMetricFields) * sizeof(common::Counter) ==
                  sizeof(RgbMetrics),
              "every RgbMetrics counter needs a kRgbMetricFields row");
static_assert(common::distinct_members(kRgbMetricFields),
              "a kRgbMetricFields row repeats a counter");

/// Sum of proposal-plane sends (token circulation + inter-ring
/// notifications) metered by the network — the quantity the paper's
/// HopCount analysis prices. Shared by benches, the experiment harness and
/// examples so the proposal-kind set has a single definition site.
inline std::uint64_t proposal_hops(const net::Network& network) {
  const std::vector<std::uint64_t>& sent = network.metrics().sent_per_kind;
  std::uint64_t hops = 0;
  for (net::MessageKind k = 0; k < sent.size(); ++k) {
    if (kind::is_proposal_kind(k)) hops += sent[k];
  }
  return hops;
}

}  // namespace rgb::core
