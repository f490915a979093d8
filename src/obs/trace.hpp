// OpTracer: the protocol instance's one observability recorder. One object
// (owned by core::RgbSystem through ProtocolObs, shared by every NE of the
// instance) keeps everything the protocol reports about itself:
//
//  * the flight recorder — a bounded, default-on ring of structured
//    protocol events (op births, round lifecycle, repairs, merges,
//    reconcile activity, detections). When an invariant oracle fires, the
//    check layer dumps its tail next to the violated schedule, so every
//    fuzz repro arrives with its causal trace;
//  * causal spans — opt-in (`set_spans_enabled`): every op birth opens a
//    trace whose id is the op's uid, and every message carrying protocol
//    work records send -> deliver -> apply spans. Span/trace ids ride on
//    the net::Envelope as sim-only metadata (deliberately NOT
//    wire-encoded, mirroring MembershipOp::born): the causal links are
//    local instrumentation, not protocol state;
//  * latency histograms, recorded when an op applies (a bounded ring
//    loses samples once it wraps): dissemination per op class, join to
//    root (birth of a kMemberJoin to its first tier-0 apply), member and
//    NE detection latency, plus the view-change counter (ring-shape
//    transitions: repair, failover, reform, merge, shape adoption);
//  * per-message-kind delivery counts (the deterministic handler
//    profile; wall-clock time per handler is measured from outside the
//    library, by bench/suite).
//
// OpTracer is also the net::TraceHooks RgbSystem installs on its network:
// on_send stamps envelopes with the executing causal context, on_deliver
// counts the delivery and, with spans on, wraps the handler in a causal
// scope. Spans off, every hook costs one branch.
//
// Causality is threaded through a per-stripe context {trace, span}: an op
// birth installs {uid, root span} around the send chain it triggers (token
// request -> grant -> token hops), and a delivery installs {env.trace,
// handler span} around the handler, so sends and applies inside it parent
// under the handler span. Shard windows execute one event at a time per
// shard and deliveries never nest, so one save/restore slot per stripe
// suffices.
//
// Determinism: all values are sim-time microseconds. Sharded trials
// (configure_shards) give every shard its own stripe, written only from
// that shard's windows. Span ids carry the stripe index in their high
// bits. Reads merge the stripes in shard order — the rings by (time,
// stripe, record order), the histograms and counts by summing — so every
// output is a function of the logical shard count alone and repeats
// byte for byte across replays. The view-change counter stays shared.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bounded_id_set.hpp"
#include "common/ids.hpp"
#include "common/stats.hpp"
#include "net/network.hpp"
#include "obs/ring.hpp"
#include "rgb/types.hpp"
#include "sim/time.hpp"

namespace rgb::obs {

/// What happened. Kept deliberately coarse: one enum value per protocol
/// machinery transition worth seeing in a repro trace, not per message.
enum class FlightKind : std::uint8_t {
  kOpBorn,            ///< a=op uid, b=OpKind
  kRoundStarted,      ///< a=round id, b=ops carried
  kRoundCompleted,    ///< a=round id, b=ops carried
  kTokenRetx,         ///< a=round id, b=retx count so far
  kRepair,            ///< a=faulty NE spliced out, b=stranded members
  kLeaderFailover,    ///< a=new leader (the recording NE), b=old leader
  kRingReform,        ///< a=new leader, b=roster size
  kMerge,             ///< a=absorbed fragment leader, b=roster size after
  kShapeAdopt,        ///< a=sync sender, b=roster size adopted
  kReconcileRound,    ///< a=claims sent, b=target NE
  kReconcileReanchor, ///< a=member guid re-anchored, b=claim seq
  kSnapshotApplied,   ///< a=sender, b=entries imported
  kSnapshotRejected,  ///< a=sender, b=decode error count so far
  kDetectMemberFail,  ///< a=member guid, b=detection latency (us)
  kDetectNeFail,      ///< a=detected NE, b=detection latency (us)
  kNeJoin,            ///< a=joining NE, b=predecessor in ring
  kNeLeave,           ///< a=leaving NE
  kAlertRaised,       ///< a=suspect, b=observer alert id
  kCutApplied,        ///< a=suspects in the cut, b=distinct observers
  kStabilityFallback, ///< a=suspect, b=observer alert id
};

[[nodiscard]] const char* to_string(FlightKind kind);

/// Per-kind operand labels so dumps and the trace exporter read as
/// protocol activity, not as an (a, b) puzzle. `b` is nullptr for kinds
/// without a second operand. Must stay in sync with the FlightKind docs.
struct FlightOperandNames {
  const char* a;
  const char* b;
};
[[nodiscard]] FlightOperandNames flight_operand_names(FlightKind kind);

/// One recorded flight event. Two generic operands keep the record
/// POD-sized; the per-kind meaning is documented on FlightKind.
struct FlightEvent {
  sim::Time at = 0;
  common::NodeId ne;  ///< the NE that recorded the event
  FlightKind kind = FlightKind::kOpBorn;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// What a span marks. One value per hop stage; the operand meaning per
/// kind is documented on Span.
enum class SpanKind : std::uint8_t {
  kOpRoot,   ///< op birth: the root of trace `trace` (= op uid)
  kSend,     ///< a message send admitted into the network
  kHandler,  ///< a delivery handler executing at the destination
  kApply,    ///< an op applied to a member/roster table
};

[[nodiscard]] const char* to_string(SpanKind kind);

/// One recorded span. POD-sized; `a`/`b` are per-kind operands:
///   kOpRoot  a=OpKind,       b=op uid
///   kSend    a=MessageKind,  b=destination NE
///   kHandler a=MessageKind,  b=source NE
///   kApply   a=OpKind,       b=op uid
struct Span {
  sim::Time at = 0;
  common::NodeId ne;  ///< the NE the span executed at
  SpanKind kind = SpanKind::kOpRoot;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (no causal parent recorded)
  std::uint64_t trace = 0;   ///< op uid whose causal tree this span is in
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Number of OpKind values (dissemination histograms are indexed by kind).
inline constexpr std::size_t kOpKindCount = 7;

class OpTracer final : public net::TraceHooks {
 public:
  /// Per-stripe ring capacities. Spans are ~4x denser than flight events
  /// (every traced hop records one), so their ring is deeper.
  static constexpr std::size_t kFlightCapacity = 4096;
  static constexpr std::size_t kSpanCapacity = 1 << 15;
  /// Fixed per-kind delivery-count slots (message kinds top out at 41
  /// today); kinds at or beyond the cap share the last slot so counting
  /// never allocates.
  static constexpr std::size_t kMaxMessageKinds = 64;
  using HandledPerKind = std::array<std::uint64_t, kMaxMessageKinds>;

  /// The causal context of the currently executing scope: the trace the
  /// work belongs to and the span new work should parent under.
  struct Context {
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
  };

  /// Lifetime records and overwritten records of one ring kind.
  struct RingCounts {
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
  };

  /// RAII causal scope: installs `ctx` for the enclosed block. Used around
  /// op-birth send chains and delivery handlers.
  class Scope {
   public:
    Scope(OpTracer& tracer, Context ctx)
        : tracer_(tracer), prev_(tracer.exchange(ctx)) {}
    ~Scope() { tracer_.exchange(prev_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    OpTracer& tracer_;
    Context prev_;
  };

  /// One stripe per shard, paired with the simulator's configure_shards.
  /// Call before anything records.
  void configure_shards(std::uint32_t count);

  /// Appends one event to the executing stripe's flight ring.
  void record(sim::Time at, common::NodeId ne, FlightKind kind,
              std::uint64_t a = 0, std::uint64_t b = 0);

  /// Span master switch. Off (the default): record_span() is a no-op
  /// returning id 0 and the context never changes. Flip before traffic;
  /// flipping mid-run is safe but leaves a truncated causal prefix.
  void set_spans_enabled(bool on) { spans_enabled_ = on; }
  [[nodiscard]] bool spans_enabled() const { return spans_enabled_; }

  /// Records one span and returns its id (0 when spans are off). `trace`
  /// and `parent` come from the caller (the current context or the
  /// envelope metadata).
  std::uint64_t record_span(sim::Time at, common::NodeId ne, SpanKind kind,
                            std::uint64_t trace, std::uint64_t parent,
                            std::uint64_t a, std::uint64_t b);

  /// The executing stripe's context ({0, 0} outside any causal scope).
  [[nodiscard]] Context current();

  /// The originating NE stamped `op.born` and is about to disseminate it.
  /// Records the birth and opens the op's causal trace (trace id = uid,
  /// root span = the birth); returns the context the birth site should
  /// install, via Scope, around the send chain the birth triggers. The
  /// current context, unchanged, when spans are off.
  Context on_op_born(const core::MembershipOp& op, common::NodeId at,
                     sim::Time now);

  /// An NE applied `op` to its member/roster table at `tier`: feeds the
  /// latency histograms and, spans on, records the kApply span under the
  /// executing causal context.
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

  /// Spans on and inside a trace: stamps env.trace/env.span from the
  /// executing context and records the kSend span.
  void on_send(net::Envelope& env, sim::Time now) override;

  /// Counts the delivery; spans on, records the kHandler span and installs
  /// {env.trace, handler span} as the causal context around the handler.
  void on_deliver(const net::Envelope& env, sim::Time now,
                  net::Endpoint& endpoint) override;

  /// Flight events / spans merged oldest-to-newest by (time, stripe,
  /// record order).
  [[nodiscard]] std::vector<FlightEvent> flight_events() const;
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] RingCounts flight_counts() const;
  [[nodiscard]] RingCounts span_counts() const;

  /// The newest `max_events` flight events (0 = all retained),
  /// oldest-to-newest, one line each, under a header noting how many
  /// earlier events are not shown.
  [[nodiscard]] std::string flight_tail(std::size_t max_events = 0) const;

  /// Histogram references stay valid until the next accessor call on the
  /// same instrument: sharded tracers merge stripes into an internal cache
  /// on each read (serial tracers hand out the live histogram directly).
  [[nodiscard]] const common::Histogram& dissemination(
      core::OpKind kind) const;
  /// All member-op classes merged into one histogram (for summary export).
  [[nodiscard]] common::Histogram merged_member_dissemination() const;
  [[nodiscard]] const common::Histogram& join_latency() const;
  [[nodiscard]] const common::Histogram& member_detection() const;
  [[nodiscard]] const common::Histogram& ne_detection() const;
  [[nodiscard]] const common::Counter& view_changes() const {
    return view_changes_;
  }

  /// Delivery handler invocations per message kind / in total.
  [[nodiscard]] HandledPerKind handled_per_kind() const;
  [[nodiscard]] std::uint64_t handled_total() const;

 private:
  /// Caps the join-dedup set: past this many distinct join uids the oldest
  /// entries are forgotten FIFO. A forgotten uid can at worst double-count
  /// one join sample; memory stays bounded on million-member runs.
  static constexpr std::size_t kJoinDedupCap = 1 << 16;

  struct Latency {
    std::array<common::Histogram, kOpKindCount> dissemination;
    common::Histogram join_latency;
    common::Histogram member_detection;
    common::Histogram ne_detection;
  };

  /// One shard's share of every instrument, written only while its shard
  /// executes.
  struct Stripe {
    BoundedRing<FlightEvent> flight{kFlightCapacity, kFlightCapacity};
    BoundedRing<Span> spans{kSpanCapacity, 256};
    std::uint64_t last_span_id = 0;
    Context ctx;
    Latency latency;
    common::BoundedIdSet joins_seen_at_root{kJoinDedupCap};
    HandledPerKind handled{};
  };

  /// The stripe of the shard the calling thread executes (stripe 0
  /// outside any shard context, and always in serial mode).
  [[nodiscard]] Stripe& stripe();
  /// Installs `next` as the stripe context, returning the previous one.
  Context exchange(Context next);
  [[nodiscard]] const common::Histogram& merged(
      common::Histogram Latency::*member, common::Histogram& cache) const;
  template <typename T>
  [[nodiscard]] RingCounts counts(BoundedRing<T> Stripe::*ring) const;

  bool spans_enabled_ = false;
  common::Counter view_changes_;
  std::vector<Stripe> stripes_ = std::vector<Stripe>(1);
  /// Merge targets for the sharded accessors (see the accessor contract).
  mutable Latency merge_cache_;
};

}  // namespace rgb::obs
