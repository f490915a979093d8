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
//   * the heap, a binary min-heap by (time, seq): every schedule_at event,
//     message deliveries among them (their sampled latencies differ per
//     message);
//   * a timer lane: schedule_after(d, cb) appends to the FIFO lane for
//     delay d, a contiguous ring of entries. The clock never runs
//     backwards and seq only grows, so a lane is already in (time, seq)
//     order. Only each lane's head holds a heap entry; firing a head
//     replaces it with the lane's next entry in one sift-down, so a
//     periodic timer (heartbeat, probe tick, sweep, retransmission)
//     re-arms without a heap push and pop, and the heap holds the events
//     above plus one entry per busy lane.
// The heap's top is therefore always the earliest pending event, and the
// firing order is exactly (time, seq), the order of one heap holding every
// event. A cancel only marks its slot dead. Dead entries are reaped when
// they reach the heap's top or a lane's head, and the heap and every lane
// are compacted together once dead entries outnumber live ones. A lane
// that empties stays in the lane table (its timer usually re-arms from
// the callback) until a sweep on the table's growth returns it, so
// computed one-off delays cannot grow the table without bound.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace rgb::sim {

/// Opaque handle to a scheduled event; usable to cancel it. Carries the
/// event's unique sequence number plus its storage slot; a stale handle
/// (event already fired or cancelled, slot since reused) never matches the
/// slot's current sequence, so cancelling it stays a harmless no-op.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  [[nodiscard]] bool valid() const { return seq != 0; }
  auto operator<=>(const EventId&) const = default;
};

/// Discrete-event scheduler (see the file header for the storage layout).
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- scheduling ----------------------------------------------------------

  /// Current virtual time. Starts at 0.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()). The event
  /// goes to the heap.
  EventId schedule_at(Time t, Callback cb);

  /// Schedules `cb` after `delay` from now. The event joins the timer lane
  /// for `delay`.
  EventId schedule_after(Duration delay, Callback cb);

  /// Cancels a pending event. Cancelling an already-fired or invalid id is a
  /// harmless no-op (protocols routinely race timers against messages).
  void cancel(EventId id);

  // --- running -------------------------------------------------------------

  /// Executes the next pending event, if any. Returns false when the queue
  /// is drained.
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
  [[nodiscard]] std::size_t pending_events() const { return live_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

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

  /// Stores `cb` in a slot under the next seq: the entry to queue.
  Entry store(Time t, Callback cb, std::uint32_t lane);
  /// The lane for `delay`, made (or reused from a swept one) on first use.
  std::uint32_t lane_for(Duration delay);
  /// Earliest live entry, reaping front tombstones; nullptr when nothing
  /// is pending.
  const Entry* peek_live();
  /// Removes the heap's top; a lane head is replaced by its lane's next.
  void pop_top();
  /// Pops and runs the heap's top, which peek_live found live.
  void fire_top();
  void purge_tombstones();
  void release_slot(std::uint32_t slot);

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;  // std::push_heap/pop_heap with operator>
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;        ///< scheduled, not fired, not cancelled
  std::size_t tombstones_ = 0;  ///< cancelled entries in heap or lanes
  std::vector<Lane> lanes_;
  std::unordered_map<Duration, std::uint32_t> lane_of_;  ///< delay -> lane
  std::vector<std::uint32_t> free_lanes_;  ///< swept lanes, for reuse
  std::size_t lane_sweep_at_ = kCompactFloor;  ///< lane_of_ size to sweep at
  Duration last_delay_ = 0;  ///< lane_for's last answer: delay -> lane
  std::uint32_t last_lane_ = kNoLane;
};

}  // namespace rgb::sim
