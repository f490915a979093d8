#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace rgb::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(msec(30), [&] { order.push_back(3); });
  s.schedule_at(msec(10), [&] { order.push_back(1); });
  s.schedule_at(msec(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), msec(30));
}

TEST(Simulator, FifoWithinSameTimestamp) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(msec(5), [&, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  Time fired_at = 0;
  s.schedule_after(msec(10), [&] {
    s.schedule_after(msec(5), [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired_at, msec(15));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(msec(1), [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator s;
  int fires = 0;
  const EventId id = s.schedule_at(msec(1), [&] { ++fires; });
  s.run();
  s.cancel(id);  // already fired: no-op
  s.cancel(id);
  s.cancel(EventId{});  // invalid id: no-op
  EXPECT_EQ(fires, 1);
}

TEST(Simulator, CancelledEventsExcludedFromPendingCount) {
  Simulator s;
  const EventId a = s.schedule_at(msec(1), [] {});
  s.schedule_at(msec(2), [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, CancelAfterFireCannotSkewPendingCount) {
  // Regression: a stale cancel of an already-fired EventId must not be
  // double-counted against later pending events (the old
  // `queue_.size() - cancelled_.size()` arithmetic would underflow or
  // undercount if a stale id ever landed in the tombstone set).
  Simulator s;
  const EventId fired = s.schedule_at(msec(1), [] {});
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
  s.cancel(fired);  // stale: already fired
  s.cancel(fired);
  EXPECT_EQ(s.pending_events(), 0u);
  s.schedule_at(msec(2), [] {});
  const EventId b = s.schedule_at(msec(3), [] {});
  s.cancel(fired);  // stale again, now with live events pending
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(b);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, PendingCountTracksGroundTruthUnderRandomCancels) {
  // Drive random schedule / cancel (live, stale and double) / step
  // interleavings and compare pending_events() against an exact shadow set:
  // every callback removes its own id when it fires.
  Simulator s;
  common::RngStream rng{0xD15EA5E};
  std::vector<EventId> ever_scheduled;
  std::unordered_set<std::uint64_t> live_ids;
  for (int op = 0; op < 5000; ++op) {
    const auto pick = rng.next_below(100);
    if (pick < 50 || ever_scheduled.empty()) {
      auto seq_cell = std::make_shared<std::uint64_t>(0);
      const EventId id =
          s.schedule_at(s.now() + rng.next_below(1000),
                        [seq_cell, &live_ids] { live_ids.erase(*seq_cell); });
      *seq_cell = id.seq;
      ever_scheduled.push_back(id);
      live_ids.insert(id.seq);
    } else if (pick < 80) {
      // Cancel a random id from the full history: may be live, already
      // fired, or already cancelled — all three must keep counts exact.
      const auto& id = ever_scheduled[static_cast<std::size_t>(
          rng.next_below(ever_scheduled.size()))];
      live_ids.erase(id.seq);
      s.cancel(id);
    } else {
      s.step();
    }
    ASSERT_EQ(s.pending_events(), live_ids.size()) << "after op " << op;
  }
}

TEST(Simulator, TombstonePurgeBoundsHeapUnderCancelChurn) {
  // Regression (PR3): cancelled entries used to stay in the heap until
  // popped, so retransmission-style churn — arm a far-future timer, cancel
  // it, repeat — grew memory without bound. The purge must keep the heap
  // within a small factor of the live event count throughout.
  Simulator s;
  const EventId keeper = s.schedule_at(sec(3600), [] {});
  (void)keeper;
  std::size_t max_queued = 0;
  for (int i = 0; i < 100000; ++i) {
    // Far-future timers: without purging, none of these tombstones would
    // ever be popped during the loop.
    const EventId id = s.schedule_at(sec(60) + static_cast<Time>(i), [] {});
    s.cancel(id);
    max_queued = std::max(max_queued, s.queued_entries());
  }
  EXPECT_EQ(s.pending_events(), 1u);
  // Live = 1..2 per iteration, so the 2x-live purge policy keeps the heap
  // tiny; 64 covers the purge's minimum-size hysteresis.
  EXPECT_LE(max_queued, 70u);
  EXPECT_LE(s.queued_entries(), 70u);
}

TEST(Simulator, LaneTombstonePurgeBoundsQueueUnderCancelChurn) {
  // The same churn through a timer lane (schedule_after, as a
  // retransmission timer arms): the cancelled entries wait in the lane
  // behind its head, and the purge must compact them as it does the heap's.
  Simulator s;
  const EventId keeper = s.schedule_at(sec(3600), [] {});
  (void)keeper;
  std::size_t max_queued = 0;
  for (int i = 0; i < 100000; ++i) {
    const EventId id = s.schedule_after(sec(60), [] {});
    s.cancel(id);
    max_queued = std::max(max_queued, s.queued_entries());
  }
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_LE(max_queued, 70u);
  EXPECT_LE(s.queued_entries(), 70u);
  bool fired = false;
  s.schedule_after(sec(60), [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), sec(3600));
}

TEST(Simulator, TimerLanesFireInReferenceOrder) {
  // Model check of the lanes against one sorted set. A random mix of
  // schedule_after over a few fixed delays (lanes), computed one-off delays
  // (a lane each, swept once empty), schedule_at (the heap), cancels of
  // live, fired and already-cancelled ids, and callbacks that re-arm
  // themselves like periodic timers, must fire in exactly the order of a
  // reference sort by (time, seq), with pending_events() equal to the
  // reference's live set after every operation. Cancel-heavy phases make
  // tombstones outnumber live events, so purges run mid-flight too.
  Simulator s;
  common::RngStream rng{0x1A7E5};
  constexpr Duration kDelays[] = {0, usec(250), msec(1), msec(3)};
  std::set<std::pair<Time, std::uint64_t>> live;  // (time, seq)
  std::vector<std::pair<EventId, Time>> history;
  std::vector<std::pair<Time, std::uint64_t>> fired;

  // Schedules one event with `delay` (a lane) or at `at` (the heap); odd
  // seqs re-arm themselves once fired, as a periodic timer does.
  std::function<void(bool, Duration)> add = [&](bool lane, Duration d) {
    auto seq_cell = std::make_shared<std::uint64_t>(0);
    auto cb = [&, seq_cell, lane, d] {
      fired.emplace_back(s.now(), *seq_cell);
      if (*seq_cell % 2 == 1 && lane) add(true, d);
    };
    const Time t = s.now() + d;
    const EventId id = lane ? s.schedule_after(d, cb) : s.schedule_at(t, cb);
    *seq_cell = id.seq;
    live.emplace(t, id.seq);
    history.emplace_back(id, t);
  };

  for (int op = 0; op < 30000; ++op) {
    // Cancel phases mostly cancel recent ids, which are mostly live.
    const bool cancel_phase = (op / 3000) % 2 == 1;
    const auto pick = rng.next_below(100);
    if (history.empty() || pick < (cancel_phase ? 20u : 55u)) {
      switch (rng.next_below(4)) {
        case 0:
        case 1:
          add(true, kDelays[rng.next_below(4)]);
          break;
        case 2:
          add(true, usec(5000) + rng.next_below(100000));  // one-off delay
          break;
        default:
          add(false, rng.next_below(4000));
          break;
      }
    } else if (pick < (cancel_phase ? 95u : 75u)) {
      const std::size_t span =
          cancel_phase ? std::min<std::size_t>(history.size(), 16)
                       : history.size();
      const auto& [id, t] = history[history.size() - 1 -
                                    static_cast<std::size_t>(
                                        rng.next_below(span))];
      live.erase({t, id.seq});
      s.cancel(id);
    } else {
      const std::size_t before = fired.size();
      if (live.empty()) {
        ASSERT_FALSE(s.step()) << "op " << op;
      } else {
        const auto expected = *live.begin();
        live.erase(live.begin());
        ASSERT_TRUE(s.step()) << "op " << op;
        ASSERT_EQ(fired.size(), before + 1);
        ASSERT_EQ(fired.back(), expected) << "op " << op;
      }
    }
    ASSERT_EQ(s.pending_events(), live.size()) << "after op " << op;
  }
  // Drain: a re-arming chain ends at its first even seq.
  while (!live.empty()) {
    const auto expected = *live.begin();
    live.erase(live.begin());
    ASSERT_TRUE(s.step());
    ASSERT_EQ(fired.back(), expected);
    ASSERT_EQ(s.pending_events(), live.size());
  }
  EXPECT_FALSE(s.step());
  EXPECT_GT(fired.size(), 5000u);
}

/// Lane timers on 4 shards: each shard runs three self-re-arming timers at
/// fixed delays, arms and cancels a retransmission-style timer on every
/// tick, and hands a short timer chain to the next shard every third round
/// (2 epochs out, within the lookahead contract). Each fire appends to its
/// shard's own trace.
std::vector<std::vector<std::pair<Time, int>>> run_lane_shards() {
  constexpr std::uint32_t kShards = 4;
  constexpr Duration kPeriods[] = {usec(250), usec(700), msec(1)};
  Simulator s;
  s.configure_shards(kShards, msec(1));
  std::vector<std::vector<std::pair<Time, int>>> trace(kShards);
  std::vector<EventId> retx(kShards);
  std::function<void(int, int)> tick = [&](int timer, int round) {
    const std::uint32_t shard = current_executing_shard();
    trace[shard].emplace_back(s.now(), timer);
    s.cancel(retx[shard]);
    retx[shard] = s.schedule_after(msec(5), [&trace, shard, &s] {
      trace[shard].emplace_back(s.now(), -1);
    });
    if (round >= 40) return;
    s.schedule_after(kPeriods[timer % 3],
                     [&tick, timer, round] { tick(timer, round + 1); });
    if (timer < 3 && round % 3 == 0) {
      s.schedule_on((shard + 1) % kShards, s.now() + msec(2),
                    [&tick, timer, round] { tick(timer + 3, round + 1); });
    }
  };
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    for (int timer = 0; timer < 3; ++timer) {
      s.schedule_on(shard, msec(1) + usec(shard * 111 + timer * 37),
                    [&tick, timer] { tick(timer, 0); });
    }
  }
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
  return trace;
}

TEST(Simulator, ShardedLaneTimersRepeatOnASecondRun) {
  const auto first = run_lane_shards();
  for (const auto& t : first) {
    EXPECT_GT(t.size(), 200u);
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first < b.first;
                               }));
    EXPECT_EQ(std::count_if(t.begin(), t.end(),
                            [](const auto& e) { return e.second == -1; }),
              1);  // only the last tick's retransmission timer survives
  }
  EXPECT_EQ(run_lane_shards(), first);
}

TEST(Simulator, PurgeKeepsOrderingAndCancelSemantics) {
  // A purge rebuilds the heap mid-flight; ordering, cancellation and
  // pending counts must be unaffected.
  Simulator s;
  common::RngStream rng{0xF00D};
  std::vector<Time> fired;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 2000; ++i) {
    const Time t = msec(1) + rng.next_below(1'000'000);
    const EventId id = s.schedule_at(t, [&fired, &s] {
      fired.push_back(s.now());
    });
    if (i % 2 == 0) cancelled.push_back(id);
  }
  for (const EventId id : cancelled) s.cancel(id);  // triggers purges
  EXPECT_EQ(s.pending_events(), 1000u);
  s.run();
  EXPECT_EQ(fired.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(Simulator, SlotReuseCannotResurrectStaleCancel) {
  // ABA guard: after an event fires, its storage slot is recycled; a stale
  // cancel of the old id must not kill the new occupant.
  Simulator s;
  const EventId old_id = s.schedule_at(msec(1), [] {});
  s.run();
  bool fired = false;
  // With a free-listed slot store the very next schedule reuses the slot.
  const EventId fresh = s.schedule_at(msec(2), [&] { fired = true; });
  EXPECT_EQ(fresh.slot, old_id.slot);  // documents the reuse this guards
  s.cancel(old_id);
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, StepReturnsFalseWhenDrained) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_at(0, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  std::vector<Time> fired;
  for (Time t = 10; t <= 50; t += 10) {
    s.schedule_at(msec(t), [&, t] { fired.push_back(t); });
  }
  s.run_until(msec(30));
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(s.now(), msec(30));
  s.run();
  EXPECT_EQ(fired.size(), 5u);
}

TEST(Simulator, RunUntilAdvancesClockThroughQuietPeriods) {
  Simulator s;
  s.run_until(msec(100));
  EXPECT_EQ(s.now(), msec(100));
}

TEST(Simulator, RunUntilSkipsCancelledWithoutAdvancingTime) {
  Simulator s;
  const EventId id = s.schedule_at(msec(500), [] {});
  s.cancel(id);
  s.run_until(msec(100));
  EXPECT_EQ(s.now(), msec(100));
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_after(usec(1), recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), usec(99));
}

TEST(Simulator, MaxEventsBoundsRun) {
  Simulator s;
  std::function<void()> forever = [&] { s.schedule_after(1, forever); };
  s.schedule_at(0, forever);
  const auto executed = s.run(1000);
  EXPECT_EQ(executed, 1000u);
  EXPECT_GT(s.pending_events(), 0u);
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_at(msec(1), [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 5u);
}

TEST(Simulator, RunUntilCapKeepsClockBehindPendingEvents) {
  // Regression: when the max_events cap stopped a run_until with events
  // <= deadline still pending, the clock used to jump to the deadline
  // anyway — the survivors then fired "in the past", so now() ran
  // backwards and latencies measured across the jump went negative.
  Simulator s;
  std::vector<Time> fired_at;
  for (Time t = 1; t <= 6; ++t) {
    s.schedule_at(msec(t), [&] { fired_at.push_back(s.now()); });
  }
  EXPECT_EQ(s.run_until(sec(1), 3), 3u);
  EXPECT_EQ(s.now(), msec(3));  // parked at the last executed event
  EXPECT_EQ(s.pending_events(), 3u);
  EXPECT_EQ(s.run_until(sec(1)), 3u);
  EXPECT_EQ(s.now(), sec(1));  // drained: the deadline applies again
  EXPECT_TRUE(std::is_sorted(fired_at.begin(), fired_at.end()));
  EXPECT_EQ(fired_at.back(), msec(6));
}

TEST(Simulator, RunUntilZeroBudgetLeavesClockUntouched) {
  // Degenerate corner of the same regression: a zero event budget with
  // work pending inside the deadline must not move the clock at all.
  Simulator s;
  s.schedule_at(msec(5), [] {});
  EXPECT_EQ(s.run_until(sec(1), 0), 0u);
  EXPECT_EQ(s.now(), 0u);
  s.run();
  EXPECT_EQ(s.now(), msec(5));
}

TEST(Simulator, NowStaysMonotoneAcrossCappedChunks) {
  // Driving a run in small capped chunks (the bench/oracle sampling
  // pattern) must observe a non-decreasing clock from inside events.
  Simulator s;
  std::vector<Time> observed;
  for (Time t = 1; t <= 40; ++t) {
    s.schedule_at(usec(t * 7), [&] { observed.push_back(s.now()); });
  }
  while (s.pending_events() > 0) s.run_until(sec(1), 3);
  EXPECT_EQ(observed.size(), 40u);
  EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator s;
  Time last = 0;
  bool monotone = true;
  common::RngStream rng{7};
  for (int i = 0; i < 10000; ++i) {
    const Time t = rng.next_below(1'000'000);
    s.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  s.run();
  EXPECT_TRUE(monotone);
}

}  // namespace
}  // namespace rgb::sim
