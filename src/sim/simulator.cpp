#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rgb::sim {

namespace {

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

Simulator::Entry Simulator::store(Time t, Callback cb, std::uint32_t lane) {
  assert(t >= now_ && "cannot schedule into the past");
  assert(cb && "empty callback");
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].cb = std::move(cb);
  slots_[slot].seq = seq;
  ++live_;
  return Entry{t, seq, slot, lane};
}

EventId Simulator::schedule_at(Time t, Callback cb) {
  const Entry e = store(t, std::move(cb), kNoLane);
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  return EventId{e.seq, e.slot};
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

std::uint32_t Simulator::lane_for(Duration delay) {
  // Most lookups repeat the last delay (a heartbeat fleet re-arming).
  if (last_lane_ != kNoLane && last_delay_ == delay) return last_lane_;
  last_delay_ = delay;
  if (const auto it = lane_of_.find(delay); it != lane_of_.end()) {
    last_lane_ = it->second;
    return it->second;
  }
  if (lane_of_.size() >= lane_sweep_at_) {
    // Empty lanes stay mapped, so a timer that re-arms from its own
    // callback finds its lane again; computed one-off delays (a deadline
    // minus now) leave empty lanes behind, and this sweep returns them.
    for (auto it = lane_of_.begin(); it != lane_of_.end();) {
      if (lanes_[it->second].empty()) {
        free_lanes_.push_back(it->second);
        it = lane_of_.erase(it);
      } else {
        ++it;
      }
    }
    lane_sweep_at_ = std::max(kCompactFloor, 2 * lane_of_.size());
  }
  std::uint32_t lane;
  if (!free_lanes_.empty()) {
    lane = free_lanes_.back();
    free_lanes_.pop_back();
  } else {
    lane = static_cast<std::uint32_t>(lanes_.size());
    lanes_.emplace_back();
  }
  lane_of_.emplace(delay, lane);
  last_lane_ = lane;
  return lane;
}

EventId Simulator::schedule_after(Duration delay, Callback cb) {
  const std::uint32_t lane_idx = lane_for(delay);
  const Entry e = store(now_ + delay, std::move(cb), lane_idx);
  Lane& lane = lanes_[lane_idx];
  assert((lane.empty() || e > lane.back()) && "lane out of (time, seq) order");
  if (lane.empty()) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  lane.push_back(e);
  return EventId{e.seq, e.slot};
}

void Simulator::cancel(EventId id) {
  if (!id.valid() || id.slot >= slots_.size()) return;
  Slot& slot = slots_[id.slot];
  if (slot.seq != id.seq) return;  // already fired or cancelled
  slot.cb = nullptr;
  slot.seq = 0;  // tombstone: the queued entry no longer matches
  --live_;
  ++tombstones_;
  // Cancel-heavy churn (retransmission timers armed and disarmed per
  // message) would otherwise pile tombstones up until their entries reach
  // the heap's top or their lane's head: for long-lived timers, never.
  if (tombstones_ > live_ && tombstones_ > kCompactFloor) purge_tombstones();
}

void Simulator::release_slot(std::uint32_t slot) {
  slots_[slot].cb = nullptr;
  slots_[slot].seq = 0;
  free_slots_.push_back(slot);
}

void Simulator::purge_tombstones() {
  const auto is_tombstone = [this](const Entry& e) {
    return slots_[e.slot].seq != e.seq;
  };
  // Lane heads leave the heap with the tombstones; each lane's first live
  // entry re-enters it below.
  for (const Entry& e : heap_) {
    if (e.lane == kNoLane && is_tombstone(e)) free_slots_.push_back(e.slot);
  }
  std::erase_if(heap_, [&](const Entry& e) {
    return e.lane != kNoLane || is_tombstone(e);
  });
  for (Lane& lane : lanes_) {
    // In-place and in order: the write index never passes the read index.
    const std::uint32_t mask = static_cast<std::uint32_t>(lane.ring.size() - 1);
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < lane.size; ++i) {
      const Entry e = lane.ring[(lane.head + i) & mask];
      if (is_tombstone(e)) {
        free_slots_.push_back(e.slot);
      } else {
        lane.ring[(lane.head + kept++) & mask] = e;
      }
    }
    lane.size = kept;
    if (!lane.empty()) heap_.push_back(lane.front());
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  tombstones_ = 0;
}

void Simulator::pop_top() {
  const std::uint32_t lane_idx = heap_.front().lane;
  if (lane_idx != kNoLane) {
    Lane& lane = lanes_[lane_idx];
    lane.pop_front();
    if (!lane.empty()) {
      replace_top(heap_, lane.front());
      return;
    }
  }
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
}

const Simulator::Entry* Simulator::peek_live() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (slots_[top.slot].seq == top.seq) return &top;
    free_slots_.push_back(top.slot);
    --tombstones_;
    pop_top();
  }
  return nullptr;
}

void Simulator::fire_top() {
  const Entry top = heap_.front();
  pop_top();
  Callback cb = std::move(slots_[top.slot].cb);
  release_slot(top.slot);
  --live_;
  now_ = top.time;
  ++executed_;
  cb();
}

bool Simulator::step() {
  if (peek_live() == nullptr) return false;
  fire_top();
  return true;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(Time deadline, std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events) {
    const Entry* top = peek_live();
    if (top == nullptr || top->time > deadline) break;
    fire_top();
    ++n;
  }
  // Advance the clock through the quiet remainder only when nothing due
  // on or before the deadline is still pending. When the max_events cap
  // stops the run mid-window, teleporting now() to the deadline would make
  // the next step() run the clock backwards (and let fresh schedule_at
  // calls insert ahead of already-due events).
  const Entry* top = peek_live();
  if (top == nullptr || top->time > deadline) now_ = std::max(now_, deadline);
  return n;
}

std::size_t Simulator::queued_entries() const {
  std::size_t total = heap_.size();
  for (const Lane& lane : lanes_) {
    if (!lane.empty()) total += lane.size - 1;  // the head is in the heap
  }
  return total;
}

}  // namespace rgb::sim
