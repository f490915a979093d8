// Causal op tracing: every MembershipOp is stamped with its birth sim-tick
// by the originating NE; each successful apply feeds (apply_tick - born)
// into a per-op-class dissemination-latency histogram. Three derived
// instruments ride on the same stamps:
//
//  * join latency  — birth of a kMemberJoin to its first apply at a tier-0
//    (root/retained-tier) NE: the paper's "request -> visible at root".
//  * detection latency — how long a crashed NE / silent member went
//    undetected (fed by the repair and silent-member-sweep machinery).
//  * view changes — count of ring-shape transitions (repair, failover,
//    reform, merge, shape adoption), the seed of the ROADMAP oscillation
//    metric.
//
// All values are sim-time microseconds; everything is deterministic and
// per-trial (owned by the trial's RgbSystem), so multi-threaded runners
// never share tracer state.
//
// Sharded trials (configure_shards) stripe the histograms per shard —
// each written only from its shard's windows — and the accessors merge
// the stripes in shard order, so the exported digests are a function of
// the logical shard count alone, never of worker interleaving. The
// view-change counter stays shared (common::Counter is a relaxed atomic;
// sums commute).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bounded_id_set.hpp"
#include "common/ids.hpp"
#include "common/stats.hpp"
#include "obs/flight.hpp"
#include "obs/span.hpp"
#include "rgb/types.hpp"
#include "sim/time.hpp"

namespace rgb::obs {

/// Number of OpKind values (dissemination histograms are indexed by kind).
inline constexpr std::size_t kOpKindCount = 7;

class OpTracer {
 public:
  OpTracer(FlightRecorder& flight, SpanRecorder& spans);

  /// Stripes the tracer's instruments into `count` per-shard copies. Call
  /// before any tracing, paired with the simulator's configure_shards.
  void configure_shards(std::uint32_t count);

  /// The originating NE stamped `op.born` and is about to disseminate it.
  /// Opens the op's causal trace (trace id = uid, root span = the birth)
  /// and returns the context the birth site should install — via
  /// SpanRecorder::Scope — around the send chain the birth triggers, so
  /// downstream hops inherit the trace. A no-change context when spans
  /// are disabled.
  SpanRecorder::Context on_op_born(const core::MembershipOp& op,
                                   common::NodeId at, sim::Time now);

  /// An NE applied `op` to its member/roster table at `tier`. Records the
  /// kApply span under the executing causal context (the delivering
  /// handler's span) when spans are enabled.
  void on_op_applied(const core::MembershipOp& op, common::NodeId at,
                     int tier, sim::Time now);

  /// A silent local member was declared failed `latency` after it was last
  /// heard from (or after its AP's crash for crash-stranded members).
  void on_member_detected(common::Guid mh, common::NodeId detector,
                          sim::Duration latency, sim::Time now);

  /// A crashed ring member was spliced out `latency` after the crash.
  void on_ne_detected(common::NodeId ne, common::NodeId detector,
                      sim::Duration latency, sim::Time now);

  /// A ring-shape transition (repair/failover/reform/merge/adoption):
  /// records the flight event and bumps the view-change counter.
  void on_view_change(FlightKind kind, common::NodeId at, std::uint64_t a,
                      std::uint64_t b, sim::Time now);

  /// Accessor references stay valid until the next accessor call on the
  /// same instrument: sharded tracers merge stripes into an internal cache
  /// on each read (serial tracers hand out the live histogram directly).
  [[nodiscard]] const common::Histogram& dissemination(
      core::OpKind kind) const;
  /// All member-op classes merged into one histogram (for summary export).
  [[nodiscard]] common::Histogram merged_member_dissemination() const;
  [[nodiscard]] const common::Histogram& join_latency() const;
  [[nodiscard]] const common::Histogram& member_detection() const;
  [[nodiscard]] const common::Histogram& ne_detection() const;
  /// Member + NE detections merged (for summary export).
  [[nodiscard]] common::Histogram merged_detection() const;
  [[nodiscard]] const common::Counter& view_changes() const {
    return view_changes_;
  }

  void reset();

 private:
  /// Caps the join-dedup set: past this many distinct join uids the oldest
  /// entries are forgotten FIFO. A forgotten uid can at worst double-count
  /// one join sample; memory stays bounded on million-member runs.
  static constexpr std::size_t kJoinDedupCap = 1 << 16;

  /// One shard's instruments, written only from that shard's windows.
  struct Stripe {
    std::array<common::Histogram, kOpKindCount> dissemination;
    common::Histogram join_latency;
    common::Histogram member_detection;
    common::Histogram ne_detection;
    common::BoundedIdSet joins_seen_at_root{kJoinDedupCap};
  };

  [[nodiscard]] Stripe& stripe();
  [[nodiscard]] const common::Histogram& merged(
      common::Histogram Stripe::*member, common::Histogram& cache) const;

  FlightRecorder& flight_;
  SpanRecorder& spans_;
  common::Counter view_changes_;
  std::vector<Stripe> stripes_{1};
  /// Merge targets for the sharded accessors (see the accessor contract).
  mutable Stripe merge_cache_;
};

}  // namespace rgb::obs
