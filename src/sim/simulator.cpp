#include "sim/simulator.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <thread>
#include <utility>

namespace rgb::sim {

namespace {

/// Shard context of the calling thread. A worker (or a run_as/inline
/// window on the owning thread) belongs to exactly one simulator at a
/// time, so a flat thread-local is unambiguous even with trial-parallel
/// runners each owning their own simulator.
constexpr std::uint32_t kNoShard = 0xFFFFFFFEu;
thread_local std::uint32_t tls_shard = kNoShard;

struct ShardContextGuard {
  explicit ShardContextGuard(std::uint32_t shard) : prev(tls_shard) {
    tls_shard = shard;
  }
  ~ShardContextGuard() { tls_shard = prev; }
  std::uint32_t prev;
};

/// Replaces a min-heap's top with `e`, no earlier than the entry it
/// replaces, and sifts it down: one pass where a pop and a push take two.
/// A lane's next entry is often among the earliest, so the pass usually
/// stops within a level or two.
template <typename Entry>
void replace_top(std::vector<Entry>& heap, const Entry e) {
  const std::size_t n = heap.size();
  std::size_t hole = 0;
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n && heap[child] > heap[child + 1]) ++child;
    if (!(e > heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = e;
}

}  // namespace

std::uint32_t current_executing_shard() {
  return tls_shard == kNoShard ? 0 : tls_shard;
}

bool in_shard_context() { return tls_shard != kNoShard; }

/// Worker pool for parallel windows: the owning thread runs shard share 0
/// and `count - 1` threads run the others, shares assigned round-robin by
/// index so the work split is static. Two barriers bracket each window:
/// `start` hands the window end to the threads, and `done` gives the
/// happens-before edge between a window's shard-local writes and the
/// owning thread's barrier reads.
struct Simulator::Pool {
  Pool(Simulator& simulator, unsigned count)
      : sim(simulator), count(count), start(count), done(count) {
    threads.reserve(count - 1);
    for (unsigned i = 1; i < count; ++i) {
      threads.emplace_back([this, i] { worker(i); });
    }
  }

  ~Pool() {
    stopping = true;
    start.arrive_and_wait();
    for (std::thread& t : threads) t.join();
  }

  void run_generation(Time window_end) {
    end = window_end;
    start.arrive_and_wait();
    run_share(0);
    done.arrive_and_wait();
  }

 private:
  void worker(unsigned id) {
    for (;;) {
      start.arrive_and_wait();
      if (stopping) return;
      run_share(id);
      done.arrive_and_wait();
    }
  }

  void run_share(unsigned id) {
    for (std::uint32_t s = id; s < sim.shard_count(); s += count) {
      ShardContextGuard ctx{s};
      sim.run_window(s, end);
    }
  }

  Simulator& sim;
  const unsigned count;
  std::barrier<> start, done;
  Time end = 0;  ///< written before `start`, read after it
  bool stopping = false;
  std::vector<std::thread> threads;
};

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

void Simulator::configure_shards(std::uint32_t count, Duration epoch) {
  assert(count >= 1);
  assert(epoch >= 1 && "epoch must be a positive lookahead window");
  assert(executed_events() == 0 && pending_events() == 0 &&
         global_events_.empty() && "configure_shards before any scheduling");
  pool_.reset();
  shards_.clear();
  shards_.resize(count);
  epoch_ = epoch;
}

void Simulator::set_workers(unsigned workers) {
  workers_ = std::max(1u, workers);
  pool_.reset();  // re-created lazily at the next parallel window
}

void Simulator::run_as(std::uint32_t shard, const std::function<void()>& fn) {
  assert(shard < shards_.size());
  if (!is_sharded()) {
    fn();
    return;
  }
  assert(!in_window_ && "run_as is a between-windows facade hook");
  // An idle shard's clock may trail the fence; pull it forward so events
  // the callee schedules "now" are never in the shard's past.
  Shard& sh = shards_[shard];
  sh.now = std::max(sh.now, global_now_);
  ShardContextGuard ctx{shard};
  fn();
}

Time Simulator::now() const {
  if (tls_shard != kNoShard && tls_shard < shards_.size()) {
    return shards_[tls_shard].now;
  }
  return is_sharded() ? global_now_ : shards_[0].now;
}

Simulator::Entry Simulator::store(Shard& sh, Time t, Callback cb,
                                  std::uint32_t lane) {
  assert(t >= sh.now && "cannot schedule into the past");
  assert(cb && "empty callback");
  const std::uint64_t seq = sh.next_seq++;
  std::uint32_t slot;
  if (!sh.free_slots.empty()) {
    slot = sh.free_slots.back();
    sh.free_slots.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(sh.slots.size());
    sh.slots.emplace_back();
  }
  sh.slots[slot].cb = std::move(cb);
  sh.slots[slot].seq = seq;
  ++sh.live;
  return Entry{t, seq, slot, lane};
}

EventId Simulator::push_event(std::uint32_t shard_idx, Time t, Callback cb) {
  Shard& sh = shards_[shard_idx];
  const Entry e = store(sh, t, std::move(cb), kNoLane);
  sh.heap.push_back(e);
  std::push_heap(sh.heap.begin(), sh.heap.end(), std::greater<>{});
  return EventId{e.seq, e.slot, shard_idx};
}

void Simulator::Lane::push_back(const Entry& e) {
  if (size == ring.size()) {
    std::vector<Entry> grown(ring.empty() ? 4 : 2 * ring.size());
    for (std::uint32_t i = 0; i < size; ++i) {
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    }
    ring.swap(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = e;
  ++size;
}

std::uint32_t Simulator::lane_for(Shard& sh, Duration delay) {
  // Most lookups repeat the last delay (a heartbeat fleet re-arming).
  if (sh.last_lane != kNoLane && sh.last_delay == delay) return sh.last_lane;
  sh.last_delay = delay;
  if (const auto it = sh.lane_of.find(delay); it != sh.lane_of.end()) {
    sh.last_lane = it->second;
    return it->second;
  }
  if (sh.lane_of.size() >= sh.lane_sweep_at) {
    // Empty lanes stay mapped, so a timer that re-arms from its own
    // callback finds its lane again; computed one-off delays (a deadline
    // minus now) leave empty lanes behind, and this sweep returns them.
    for (auto it = sh.lane_of.begin(); it != sh.lane_of.end();) {
      if (sh.lanes[it->second].empty()) {
        sh.free_lanes.push_back(it->second);
        it = sh.lane_of.erase(it);
      } else {
        ++it;
      }
    }
    sh.lane_sweep_at = std::max(kCompactFloor, 2 * sh.lane_of.size());
  }
  std::uint32_t lane;
  if (!sh.free_lanes.empty()) {
    lane = sh.free_lanes.back();
    sh.free_lanes.pop_back();
  } else {
    lane = static_cast<std::uint32_t>(sh.lanes.size());
    sh.lanes.emplace_back();
  }
  sh.lane_of.emplace(delay, lane);
  sh.last_lane = lane;
  return lane;
}

EventId Simulator::push_lane(std::uint32_t shard_idx, Duration delay,
                             Callback cb) {
  Shard& sh = shards_[shard_idx];
  const std::uint32_t lane_idx = lane_for(sh, delay);
  const Entry e = store(sh, sh.now + delay, std::move(cb), lane_idx);
  Lane& lane = sh.lanes[lane_idx];
  assert((lane.empty() || e > lane.back()) && "lane out of (time, seq) order");
  if (lane.empty()) {
    sh.heap.push_back(e);
    std::push_heap(sh.heap.begin(), sh.heap.end(), std::greater<>{});
  }
  lane.push_back(e);
  return EventId{e.seq, e.slot, shard_idx};
}

EventId Simulator::schedule_at(Time t, Callback cb) {
  if (tls_shard != kNoShard && tls_shard < shards_.size()) {
    return push_event(tls_shard, t, std::move(cb));
  }
  if (is_sharded()) return schedule_global(t, std::move(cb));
  return push_event(0, t, std::move(cb));
}

EventId Simulator::schedule_after(Duration delay, Callback cb) {
  if (tls_shard != kNoShard && tls_shard < shards_.size()) {
    return push_lane(tls_shard, delay, std::move(cb));
  }
  if (is_sharded()) return schedule_global(global_now_ + delay, std::move(cb));
  return push_lane(0, delay, std::move(cb));
}

EventId Simulator::schedule_on(std::uint32_t shard, Time t, Callback cb) {
  assert(shard < shards_.size());
  const std::uint32_t ctx =
      tls_shard != kNoShard && tls_shard < shards_.size() ? tls_shard
                                                          : kNoShard;
  if (in_window_ && ctx != kNoShard && ctx != shard) {
    // Cross-shard handoff: parked in the source shard's outbox, renumbered
    // into the destination heap at the barrier. The lookahead contract
    // keeps the destination from having passed the delivery time.
    assert(t > window_end_ &&
           "cross-shard event lands inside the current window: epoch "
           "exceeds the cross-shard lookahead (minimum link latency)");
    shards_[ctx].outbox.push_back(Handoff{shard, t, std::move(cb)});
    return EventId{};
  }
  return push_event(shard, t, std::move(cb));
}

EventId Simulator::schedule_global(Time t, Callback cb) {
  if (!is_sharded()) return schedule_at(t, std::move(cb));
  assert(tls_shard == kNoShard &&
         "global events are scheduled from outside shard contexts");
  assert(t >= global_now_ && "cannot schedule into the past");
  assert(cb && "empty callback");
  const std::uint64_t seq = next_global_seq_++;
  global_events_.emplace(std::make_pair(t, seq), std::move(cb));
  return EventId{seq, 0, kGlobalShard};
}

void Simulator::cancel(EventId id) {
  if (!id.valid()) return;
  if (id.shard == kGlobalShard) {
    for (auto it = global_events_.begin(); it != global_events_.end(); ++it) {
      if (it->first.second == id.seq) {
        global_events_.erase(it);
        return;
      }
    }
    return;
  }
  if (id.shard >= shards_.size()) return;
  assert((!in_window_ || tls_shard == id.shard) &&
         "cross-shard cancel inside a window would race the owner");
  Shard& sh = shards_[id.shard];
  if (id.slot >= sh.slots.size()) return;
  Slot& slot = sh.slots[id.slot];
  if (slot.seq != id.seq) return;  // already fired or cancelled
  slot.cb = nullptr;
  slot.seq = 0;  // tombstone: the queued entry no longer matches
  --sh.live;
  ++sh.tombstones;
  // Cancel-heavy churn (retransmission timers armed and disarmed per
  // message) would otherwise pile tombstones up until their entries reach
  // the heap's top or their lane's head: for long-lived timers, never.
  if (sh.tombstones > sh.live && sh.tombstones > kCompactFloor) {
    purge_tombstones(sh);
  }
}

void Simulator::release_slot(Shard& sh, std::uint32_t slot) {
  sh.slots[slot].cb = nullptr;
  sh.slots[slot].seq = 0;
  sh.free_slots.push_back(slot);
}

void Simulator::purge_tombstones(Shard& sh) {
  const auto is_tombstone = [&sh](const Entry& e) {
    return sh.slots[e.slot].seq != e.seq;
  };
  // Lane heads leave the heap with the tombstones; each lane's first live
  // entry re-enters it below.
  for (const Entry& e : sh.heap) {
    if (e.lane == kNoLane && is_tombstone(e)) sh.free_slots.push_back(e.slot);
  }
  std::erase_if(sh.heap, [&](const Entry& e) {
    return e.lane != kNoLane || is_tombstone(e);
  });
  for (Lane& lane : sh.lanes) {
    // In-place and in order: the write index never passes the read index.
    const std::uint32_t mask = static_cast<std::uint32_t>(lane.ring.size() - 1);
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < lane.size; ++i) {
      const Entry e = lane.ring[(lane.head + i) & mask];
      if (is_tombstone(e)) {
        sh.free_slots.push_back(e.slot);
      } else {
        lane.ring[(lane.head + kept++) & mask] = e;
      }
    }
    lane.size = kept;
    if (!lane.empty()) sh.heap.push_back(lane.front());
  }
  std::make_heap(sh.heap.begin(), sh.heap.end(), std::greater<>{});
  sh.tombstones = 0;
}

void Simulator::pop_top(Shard& sh) {
  const std::uint32_t lane_idx = sh.heap.front().lane;
  if (lane_idx != kNoLane) {
    Lane& lane = sh.lanes[lane_idx];
    lane.pop_front();
    if (!lane.empty()) {
      replace_top(sh.heap, lane.front());
      return;
    }
  }
  std::pop_heap(sh.heap.begin(), sh.heap.end(), std::greater<>{});
  sh.heap.pop_back();
}

const Simulator::Entry* Simulator::peek_live(Shard& sh) {
  while (!sh.heap.empty()) {
    const Entry& top = sh.heap.front();
    if (sh.slots[top.slot].seq == top.seq) return &top;
    sh.free_slots.push_back(top.slot);
    --sh.tombstones;
    pop_top(sh);
  }
  return nullptr;
}

void Simulator::fire_top(Shard& sh) {
  const Entry top = sh.heap.front();
  pop_top(sh);
  Callback cb = std::move(sh.slots[top.slot].cb);
  release_slot(sh, top.slot);
  --sh.live;
  sh.now = top.time;
  ++sh.executed;
  cb();
}

bool Simulator::step() {
  assert(!is_sharded() && "step() drives the serial scheduler only");
  Shard& sh = shards_[0];
  if (peek_live(sh) == nullptr) return false;
  fire_top(sh);
  return true;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  if (is_sharded()) {
    return run_until_sharded(kNever, max_events,
                             /*advance_to_deadline=*/false);
  }
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(Time deadline, std::uint64_t max_events) {
  if (is_sharded()) {
    return run_until_sharded(deadline, max_events,
                             /*advance_to_deadline=*/true);
  }
  return run_until_serial(deadline, max_events);
}

std::uint64_t Simulator::run_until_serial(Time deadline,
                                          std::uint64_t max_events) {
  Shard& sh = shards_[0];
  std::uint64_t n = 0;
  while (n < max_events) {
    const Entry* top = peek_live(sh);
    if (top == nullptr || top->time > deadline) break;
    fire_top(sh);
    ++n;
  }
  // Advance the clock through the quiet remainder only when nothing due
  // on or before the deadline is still pending. When the max_events cap
  // stops the run mid-window, teleporting now() to the deadline would make
  // the next step() run the clock backwards (and let fresh schedule_at
  // calls insert ahead of already-due events).
  const Entry* top = peek_live(sh);
  if (top == nullptr || top->time > deadline) {
    sh.now = std::max(sh.now, deadline);
  }
  return n;
}

void Simulator::run_window(std::uint32_t shard_idx, Time window_end) {
  Shard& sh = shards_[shard_idx];
  for (;;) {
    const Entry* top = peek_live(sh);
    if (top == nullptr || top->time > window_end) return;
    fire_top(sh);
  }
}

void Simulator::dispatch_window(Time window_end) {
  in_window_ = true;
  window_end_ = window_end;
  const unsigned workers =
      std::min<unsigned>(workers_, static_cast<unsigned>(shards_.size()));
  if (workers <= 1) {
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      ShardContextGuard ctx{s};
      run_window(s, window_end);
    }
  } else {
    if (!pool_) pool_ = std::make_unique<Pool>(*this, workers);
    pool_->run_generation(window_end);
  }
  in_window_ = false;
  // Barrier: drain cross-shard handoffs in (source shard, enqueue order),
  // renumbering each into its destination's FIFO space — the fixed drain
  // order is what makes the merge independent of worker interleaving.
  for (Shard& src : shards_) {
    for (Handoff& h : src.outbox) {
      assert(h.time > window_end);
      push_event(h.dst_shard, h.time, std::move(h.cb));
    }
    src.outbox.clear();
  }
}

std::uint64_t Simulator::run_until_sharded(Time deadline,
                                           std::uint64_t max_events,
                                           bool advance_to_deadline) {
  std::uint64_t n = 0;
  for (;;) {
    // Globals due at the fence run first, in (time, seq) order; each may
    // schedule more work (including more globals at the same instant).
    while (!global_events_.empty() &&
           global_events_.begin()->first.first <= global_now_ &&
           n < max_events) {
      auto node = global_events_.extract(global_events_.begin());
      ++globals_executed_;
      ++n;
      node.mapped()();
    }
    if (n >= max_events) return n;

    const Time next_global = global_events_.empty()
                                 ? kNever
                                 : global_events_.begin()->first.first;
    Time next_shard = kNever;
    for (Shard& sh : shards_) {
      const Entry* top = peek_live(sh);
      if (top != nullptr && top->time < next_shard) next_shard = top->time;
    }
    const Time next_t = std::min(next_shard, next_global);
    if (next_t == kNever || next_t > deadline) {
      if (advance_to_deadline) global_now_ = std::max(global_now_, deadline);
      return n;
    }
    if (next_global <= next_shard) {
      // Next activity is a global: jump the fence to it and loop.
      global_now_ = next_global;
      continue;
    }
    // Shard window [next_shard .. end]: bounded by the epoch lookahead so
    // cross-shard sends made inside it land strictly beyond it, and by the
    // next global so barrier actions interleave at their exact tick.
    const std::uint64_t before = executed_events();
    Time end = next_shard + (epoch_ - 1);
    if (end < next_shard) end = kNever - 1;  // overflow clamp
    end = std::min(end, deadline);
    end = std::min(end, next_global);
    dispatch_window(end);
    n += executed_events() - before;
    global_now_ = end;
    if (n >= max_events) return n;  // window-granular cap: fence stays put
  }
}

std::size_t Simulator::pending_events() const {
  std::size_t total = global_events_.size();
  for (const Shard& sh : shards_) total += sh.live;
  return total;
}

std::uint64_t Simulator::executed_events() const {
  std::uint64_t total = globals_executed_;
  for (const Shard& sh : shards_) total += sh.executed;
  return total;
}

std::size_t Simulator::queued_entries() const {
  std::size_t total = 0;
  for (const Shard& sh : shards_) {
    total += sh.heap.size();
    for (const Lane& lane : sh.lanes) {
      if (!lane.empty()) total += lane.size - 1;  // the head is in the heap
    }
  }
  return total;
}

}  // namespace rgb::sim
