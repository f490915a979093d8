// Deterministic discrete-event simulation kernel.
//
// All protocol activity in this repository — token passing, retransmission
// timers, mobility, fault injection — is expressed as events on one
// `Simulator`. Events at equal timestamps execute in scheduling order
// (FIFO by a monotonically increasing sequence number), which makes every
// run a deterministic function of (seed, scenario).
//
// Storage is allocation-light on the hot path. Callbacks live in a
// free-listed slot vector, and each queued event is one (time, seq, slot)
// entry that names its slot directly. An entry waits in one of two places:
//   * the heap, a binary min-heap by (time, seq): every schedule_at,
//     schedule_on and schedule_global event, message deliveries among
//     them (their sampled latencies differ per message);
//   * a timer lane: schedule_after(d, cb) from a shard's own clock appends
//     to that shard's FIFO lane for delay d, a contiguous ring of entries.
//     The clock never runs backwards and seq only grows, so a lane is
//     already in (time, seq) order. Only each lane's head holds a heap
//     entry; firing a head replaces it with the lane's next entry in one
//     sift-down, so a periodic timer (heartbeat, probe tick, sweep,
//     retransmission) re-arms without a heap push and pop, and the heap
//     holds the events above plus one entry per busy lane.
// The heap's top is therefore always the earliest pending event, and the
// firing order is exactly (time, seq), the order of one heap holding every
// event. A cancel only marks its slot dead. Dead entries are reaped when
// they reach the heap's top or a lane's head, and the heap and every lane
// are compacted together once dead entries outnumber live ones. A lane
// that empties stays in its shard's table (its timer usually re-arms from
// the callback) until a sweep on the table's growth returns it, so
// computed one-off delays cannot grow the table without bound.
//
// Sharded mode (configure_shards): the event space splits into K logical
// shards, each with its own heap, clock and sequence counter, advancing in
// lock-step epoch windows of at most `epoch` virtual time. Within a window
// each shard runs its own events, one shard after another in shard order,
// without seeing its siblings' work; an event that schedules onto another
// shard goes into its source shard's outbox and is drained at the window
// barrier in (source shard, enqueue order) — a conservative DES with the
// epoch as lookahead, so the trajectory is a function of the *logical*
// shard count. The scheduling contract: cross-shard events must land
// strictly after the current window (guaranteed when epoch <= the minimum
// cross-shard link latency). Events scheduled from outside any shard
// context (setup code, oracle sampling, fault injection) become *global*
// events that run between windows, in (time, seq) order — the natural
// barrier-action hook. With K == 1 (the default) every path reduces
// exactly to the classic serial scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace rgb::sim {

/// Opaque handle to a scheduled event; usable to cancel it. Carries the
/// event's unique sequence number plus its storage slot; a stale handle
/// (event already fired or cancelled, slot since reused) never matches the
/// slot's current sequence, so cancelling it stays a harmless no-op.
/// `shard` routes the cancel in sharded mode (kGlobalShard = a global
/// barrier event). Cross-shard handoff events return an invalid id — they
/// are renumbered at the barrier and cannot be cancelled.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  std::uint32_t shard = 0;
  [[nodiscard]] bool valid() const { return seq != 0; }
  auto operator<=>(const EventId&) const = default;
};

/// The shard whose window the calling thread is currently executing (also
/// set inside Simulator::run_as), or 0 when the thread is outside any
/// shard context. Lets per-shard state (the network's RNG streams, the obs
/// stripes) pick its shard's share without threading a simulator
/// reference everywhere. Serial simulations always report 0.
[[nodiscard]] std::uint32_t current_executing_shard();

/// True when the calling thread is inside a shard context (a shard window
/// or run_as) — i.e. current_executing_shard()'s 0 means "shard 0", not
/// "outside". Facade layers use this to decide whether entity calls still
/// need run_as wrapping.
[[nodiscard]] bool in_shard_context();

/// Discrete-event scheduler: serial by default, optionally sharded (see
/// the file header for the window contract).
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// EventId::shard value marking a global (between-windows) event.
  static constexpr std::uint32_t kGlobalShard = 0xFFFFFFFFu;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- sharding ------------------------------------------------------------

  /// Splits the event space into `count` logical shards advancing in
  /// epoch windows of at most `epoch` (> 0) virtual time. Must be called
  /// before anything is scheduled. The trajectory depends on `count` and
  /// `epoch`.
  void configure_shards(std::uint32_t count, Duration epoch);

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] bool is_sharded() const { return shards_.size() > 1; }
  [[nodiscard]] Duration epoch() const { return epoch_; }

  /// Runs `fn` in the context of `shard` (events it schedules land there,
  /// now() reads that shard's clock). For facade calls into shard-owned
  /// protocol state between windows. Serial mode: plain call.
  void run_as(std::uint32_t shard, const std::function<void()>& fn);

  // --- scheduling ----------------------------------------------------------

  /// Current virtual time. Starts at 0. Inside an event or run_as, the
  /// executing shard's clock; otherwise the global fence (serial: the one
  /// clock).
  [[nodiscard]] Time now() const;

  /// Schedules `cb` at absolute time `t` (must be >= now()). Routes to the
  /// executing shard's heap; outside any shard context it becomes a global
  /// event in sharded mode (exactly schedule_global), shard 0 serially.
  EventId schedule_at(Time t, Callback cb);

  /// Schedules `cb` after `delay` from now. Inside a shard (or serially)
  /// the event joins the shard's timer lane for `delay`; outside any shard
  /// context in sharded mode it is a global event, as schedule_at makes it.
  EventId schedule_after(Duration delay, Callback cb);

  /// Schedules onto a specific shard. From a different shard's window the
  /// event is handed off via the outbox (must satisfy t > window end; the
  /// returned id is invalid/non-cancellable). Identical to schedule_at
  /// when `shard` is the executing shard.
  EventId schedule_on(std::uint32_t shard, Time t, Callback cb);

  /// Schedules a between-windows event (fault injection, series/oracle
  /// sampling, facade workload). Serial mode: identical to schedule_at,
  /// byte-for-byte.
  EventId schedule_global(Time t, Callback cb);

  /// Cancels a pending event. Cancelling an already-fired or invalid id is a
  /// harmless no-op (protocols routinely race timers against messages).
  void cancel(EventId id);

  // --- running -------------------------------------------------------------

  /// Executes the next pending event, if any. Returns false when the queue
  /// is drained. Serial mode only.
  bool step();

  /// Runs until the queue drains or `max_events` have executed.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = kDefaultMaxEvents);

  /// Runs events with timestamp <= `deadline`. Afterwards now() ==
  /// max(now, deadline) — *unless* the `max_events` cap stopped the run
  /// with events <= deadline still pending, in which case the clock stays
  /// at the last executed event so it can never run backwards when those
  /// events later fire (and never invalidates their schedule order).
  std::uint64_t run_until(Time deadline,
                          std::uint64_t max_events = kDefaultMaxEvents);

  /// Number of scheduled, not-yet-fired, not-cancelled events. Counted
  /// live — never as `heap size - tombstones`, whose two sides can
  /// transiently disagree while a cancelled entry waits in the heap.
  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t executed_events() const;

  /// Queued entries currently held, heap and timer lanes together (a
  /// lane's head, which the heap also holds, counted once), cancelled
  /// tombstones included. Exposed so tests can assert that timer-cancel
  /// churn cannot grow memory without bound (tombstones are compacted away
  /// once they outnumber live events).
  [[nodiscard]] std::size_t queued_entries() const;

  /// Safety valve: simulations in tests should never need more.
  static constexpr std::uint64_t kDefaultMaxEvents = 500'000'000ULL;

 private:
  static constexpr std::uint32_t kNoLane = 0xFFFFFFFFu;
  /// Dead entries are compacted once they outnumber live ones and exceed
  /// this; the lane table is swept once it grows past twice its size at
  /// the last sweep and this.
  static constexpr std::size_t kCompactFloor = 64;

  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t lane;  ///< the timer lane this entry heads, or kNoLane
    // Ordered min-heap: earliest time first, FIFO within a timestamp.
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// One delay's timer lane: a FIFO ring of entries in (time, seq) order.
  /// The entries themselves, not links through their slots, so refilling
  /// the heap from a lane reads memory the lane already holds.
  struct Lane {
    std::vector<Entry> ring;  ///< capacity 0 or a power of two
    std::uint32_t head = 0;
    std::uint32_t size = 0;

    [[nodiscard]] bool empty() const { return size == 0; }
    [[nodiscard]] const Entry& front() const { return ring[head]; }
    [[nodiscard]] const Entry& back() const {
      return ring[(head + size - 1) & (ring.size() - 1)];
    }
    void push_back(const Entry& e);
    void pop_front() {
      head = (head + 1) & static_cast<std::uint32_t>(ring.size() - 1);
      --size;
    }
  };

  /// Callback storage addressed by heap entries. `seq` doubles as the
  /// liveness check: 0 marks a free or cancelled slot, so a popped heap
  /// entry whose seq no longer matches is a tombstone.
  struct Slot {
    Callback cb;
    std::uint64_t seq = 0;
  };

  /// A cross-shard event awaiting the window barrier.
  struct Handoff {
    std::uint32_t dst_shard;
    Time time;
    Callback cb;
  };

  /// One logical shard: its own heap, lanes, slots, clock and FIFO
  /// numbering, so a shard's trajectory is independent of its siblings
  /// within a window.
  struct Shard {
    Time now = 0;
    std::uint64_t next_seq = 1;
    std::uint64_t executed = 0;
    std::vector<Entry> heap;  // std::push_heap/pop_heap with operator>
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;
    std::size_t live = 0;        ///< scheduled, not fired, not cancelled
    std::size_t tombstones = 0;  ///< cancelled entries in heap or lanes
    std::vector<Lane> lanes;
    std::unordered_map<Duration, std::uint32_t> lane_of;  ///< delay -> lane
    std::vector<std::uint32_t> free_lanes;  ///< swept lanes, for reuse
    std::size_t lane_sweep_at = kCompactFloor;  ///< lane_of size to sweep at
    Duration last_delay = 0;  ///< lane_for's last answer: delay -> lane
    std::uint32_t last_lane = kNoLane;
    std::vector<Handoff> outbox;
  };

  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// Stores `cb` in a slot under the shard's next seq: the entry to queue.
  Entry store(Shard& sh, Time t, Callback cb, std::uint32_t lane);
  EventId push_event(std::uint32_t shard_idx, Time t, Callback cb);
  /// Appends to the shard's lane for `delay` (schedule_after's path).
  EventId push_lane(std::uint32_t shard_idx, Duration delay, Callback cb);
  /// The shard's lane for `delay`, made (or reused from a swept one) on
  /// first use.
  std::uint32_t lane_for(Shard& sh, Duration delay);
  /// Earliest live entry of a shard, reaping front tombstones; nullptr
  /// when the shard has nothing pending.
  const Entry* peek_live(Shard& sh);
  /// Removes the heap's top; a lane head is replaced by its lane's next.
  void pop_top(Shard& sh);
  /// Pops and runs the heap's top, which peek_live found live.
  void fire_top(Shard& sh);
  void purge_tombstones(Shard& sh);
  void release_slot(Shard& sh, std::uint32_t slot);
  /// Executes one shard's events with time <= window_end.
  void run_window(std::uint32_t shard_idx, Time window_end);
  /// Runs every shard's window [.., window_end] in shard order, then
  /// drains the outboxes in (source shard, enqueue order).
  void dispatch_window(Time window_end);

  std::uint64_t run_until_serial(Time deadline, std::uint64_t max_events);
  std::uint64_t run_until_sharded(Time deadline, std::uint64_t max_events,
                                  bool advance_to_deadline);

  std::vector<Shard> shards_{1};
  Duration epoch_ = msec(1);
  Time global_now_ = 0;  ///< sharded mode: the between-windows fence
  bool in_window_ = false;
  Time window_end_ = 0;

  /// Global (between-windows) events, ordered by (time, seq). A std::map
  /// rather than a heap: globals are rare (fault schedule, samplers) and
  /// the map gives ordered pop plus O(n) cancel-by-seq with no tombstone
  /// machinery.
  std::map<std::pair<Time, std::uint64_t>, Callback> global_events_;
  std::uint64_t next_global_seq_ = 1;
  std::uint64_t globals_executed_ = 0;
};

}  // namespace rgb::sim
