// Bench-side harness of the suite: one simulated deployment per workload
// instance, the bench's own ground truth, and the instruments it installs
// on the program from outside (the program is driven through its public
// API only; nothing here is compiled into the library).
//
//  * OpProbe reads exact per-op latencies off the token traffic: every
//    kToken send happens right after the sender applied the token's ops,
//    so the send tick is that NE's apply tick. Installed on every run; the
//    program's own OpTracer histograms are log-bucketed (10% steps), too
//    coarse for a regression bound.
//  * Reference rescales CPU times to one state of a shared machine.
//  * LayerClock (traced runs only) times delivery handlers per message
//    kind, the encoded-size hook and the bench's own bookkeeping, so that
//    handler self time + size time + bookkeeping + the remainder (kernel,
//    timers, facade calls) adds up to the measured window.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "rgb/hierarchy.hpp"
#include "rgb/messages.hpp"
#include "sim/simulator.hpp"
#include "wire/metering.hpp"
#include "wire/registry.hpp"

namespace suite {

namespace core = rgb::core;
namespace net = rgb::net;
namespace sim = rgb::sim;
using rgb::common::GroupId;
using rgb::common::Guid;
using rgb::common::NodeId;
using rgb::common::RngStream;

// --- clocks and order statistics --------------------------------------------

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread: unlike wall time it does not count the
/// time a shared machine gives to other processes.
inline std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Resident set size of the process now, in bytes.
inline std::uint64_t resident_bytes() {
  std::uint64_t pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%" SCNu64 " %" SCNu64, &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// A fixed reference computation that rescales CPU times to one machine
/// state. On a shared VM the same work takes 20-60% more CPU time while
/// other tenants load the memory system, and that state changes within
/// seconds to minutes. The workloads are bound by memory latency, and so
/// is a pass: 100k random finds in a 1M-entry hash map (~48 MB), then one
/// in-order walk of a 128k-node tree whose nodes lie scattered (~8 MB).
/// bench_suite times one pass between every two slices of work and divides
/// each slice by the mean slowdown of the passes on either side. A
/// slowdown is a pass's CPU time over kPassSeconds, the pass's median time
/// on the reference machine at rest, so a rescaled time reads as CPU
/// seconds of that machine at rest (README.md, "Rescaled CPU time"). The
/// passes are benchmark code and call nothing in the program.
class Reference {
 public:
  static constexpr double kPassSeconds = 0.027;

  Reference() {
    const std::uint64_t before = resident_bytes();
    std::uint64_t state = 0x5EF;
    keys_.reserve(kEntries);
    table_.reserve(kEntries);
    for (std::size_t i = 0; i < kEntries; ++i) {
      keys_.push_back(next(state));
      table_[keys_.back()] = i;
    }
    for (std::size_t i = 0; i < kTreeNodes; ++i) tree_[next(state)] = i;
    resident_ = resident_bytes() - before;
  }
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Times one pass: its CPU time over kPassSeconds.
  double slowdown() {
    const std::uint64_t t0 = cpu_ns();
    std::uint64_t state = 0xF1D;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kFinds; ++i) {
      sum += table_.find(keys_[next(state) & (kEntries - 1)])->second;
    }
    for (const auto& [key, value] : tree_) sum += key ^ value;
    sink_ = sum;
    return static_cast<double>(cpu_ns() - t0) / 1e9 / kPassSeconds;
  }

  /// Bytes of the process's resident set that the reference holds.
  [[nodiscard]] std::uint64_t resident() const { return resident_; }

 private:
  static std::uint64_t next(std::uint64_t& state) {  // xorshift64
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }

  static constexpr std::size_t kEntries = std::size_t{1} << 20;
  static constexpr std::size_t kFinds = 100'000;
  static constexpr std::size_t kTreeNodes = std::size_t{1} << 17;
  std::vector<std::uint64_t> keys_;
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::map<std::uint64_t, std::uint64_t> tree_;
  std::uint64_t resident_ = 0;
  volatile std::uint64_t sink_ = 0;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Exact nearest-rank quantile of integer microsecond samples, in ms.
/// Reorders `v`.
inline double quantile_ms(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return static_cast<double>(v[rank - 1]) / 1000.0;
}

/// Key of one (group, member) record.
inline std::uint64_t record_key(GroupId gid, Guid guid) {
  return (gid.value() << 40) ^ guid.value();
}

// --- wall-clock attribution (traced runs) ------------------------------------

/// Handler slots: message kinds are small integers (max 41 today).
inline constexpr std::size_t kKindSlots = 64;

struct LayerClock {
  std::array<std::uint64_t, kKindSlots> handled{};
  std::array<std::uint64_t, kKindSlots> self_ns{};
  std::uint64_t size_calls = 0;
  std::uint64_t size_ns = 0;
  std::uint64_t gen_ns = 0;    ///< the bench's own bookkeeping
  std::uint64_t child_ns = 0;  ///< child spans inside the running handler
};

/// Times one stretch of bench bookkeeping when a clock is installed: it is
/// charged to `gen_ns` and, when it runs inside a handler, subtracted from
/// that handler's self time.
class BookScope {
 public:
  explicit BookScope(LayerClock* clock)
      : clock_(clock), start_(clock != nullptr ? wall_ns() : 0) {}
  ~BookScope() {
    if (clock_ == nullptr) return;
    const std::uint64_t elapsed = wall_ns() - start_;
    clock_->gen_ns += elapsed;
    clock_->child_ns += elapsed;
  }
  BookScope(const BookScope&) = delete;
  BookScope& operator=(const BookScope&) = delete;

 private:
  LayerClock* clock_;
  std::uint64_t start_;
};

// --- op latency probe ---------------------------------------------------------

class OpProbe {
 public:
  /// `is_root[id]` marks the tier-0 NEs (where a join becomes visible).
  explicit OpProbe(std::vector<char> is_root)
      : is_root_(std::move(is_root)), recent_rounds_(is_root_.size()) {}

  void join_issued(GroupId gid, Guid guid, sim::Time at) {
    pending_joins_[record_key(gid, guid)] = at;
  }
  /// The host went silent at `at`; its Member-Failure op is the detection.
  void silence_issued(GroupId gid, Guid guid, sim::Time at) {
    pending_fails_[record_key(gid, guid)] = at;
  }
  /// The host came back before its failure was declared.
  void silence_ended(GroupId gid, Guid guid) {
    pending_fails_.erase(record_key(gid, guid));
  }

  /// Drops the samples taken so far: from `at` on, only joins issued and
  /// ops born at or after `at` are sampled, so the latencies describe the
  /// window's own ops.
  void start_window(sim::Time at) {
    since_ = at;
    join_us.clear();
    dissem_us.clear();
    detect_us.clear();
    pending_joins_.clear();
  }

  /// Keep up to `cap` distinct member ops (sampled where they pass the
  /// root ring) for the traced run's table replay.
  void sample_ops(std::size_t cap, std::uint64_t seed) {
    op_cap_ = cap;
    op_rng_ = RngStream{seed};
  }

  void on_token_send(const net::Envelope& env, sim::Time now) {
    const auto src = static_cast<std::size_t>(env.src.value());
    if (src >= is_root_.size()) return;
    const core::Token& token = env.payload.get<core::TokenMsg>().token;
    // A retransmitted hop re-sends a token the sender applied earlier.
    RecentRounds& recent = recent_rounds_[src];
    if (std::find(recent.ids.begin(), recent.ids.end(), token.round_id) !=
        recent.ids.end()) {
      return;
    }
    recent.ids[recent.cursor++ % recent.ids.size()] = token.round_id;

    const bool root = is_root_[src] != 0;
    const bool root_round_start = root && token.holder == env.src;
    for (const core::MembershipOp& op : token.ops) {
      if (!op.is_member_op() || op.born > now || op.born < since_) continue;
      dissem_us.push_back(static_cast<std::uint32_t>(now - op.born));
      if (root_round_start && op_cap_ > 0) sample_op(op);
      const std::uint64_t key = record_key(op.gid, op.member.guid);
      if (op.kind == core::OpKind::kMemberJoin && root) {
        const auto it = pending_joins_.find(key);
        if (it != pending_joins_.end()) {
          join_us.push_back(static_cast<std::uint32_t>(now - it->second));
          pending_joins_.erase(it);
        }
      } else if (op.kind == core::OpKind::kMemberFail) {
        const auto it = pending_fails_.find(key);
        if (it != pending_fails_.end() && op.born >= it->second) {
          detect_us.push_back(static_cast<std::uint32_t>(op.born - it->second));
          pending_fails_.erase(it);
        }
      }
    }
  }

  std::vector<std::uint32_t> join_us;    ///< issue -> first root-tier apply
  std::vector<std::uint32_t> dissem_us;  ///< birth -> apply, per (op, NE)
  std::vector<std::uint32_t> detect_us;  ///< silence -> Member-Failure birth
  std::vector<core::MembershipOp> sampled_ops;

 private:
  void sample_op(const core::MembershipOp& op) {
    ++ops_seen_;
    if (sampled_ops.size() < op_cap_) {
      sampled_ops.push_back(op);
    } else if (const std::uint64_t j = op_rng_.next_below(ops_seen_);
               j < op_cap_) {
      sampled_ops[j] = op;
    }
  }

  /// Rounds an NE forwarded lately (round ids are never 0).
  struct RecentRounds {
    std::array<std::uint64_t, 8> ids{};
    std::size_t cursor = 0;
  };

  std::vector<char> is_root_;
  std::vector<RecentRounds> recent_rounds_;
  std::unordered_map<std::uint64_t, sim::Time> pending_joins_;
  std::unordered_map<std::uint64_t, sim::Time> pending_fails_;
  sim::Time since_ = 0;
  std::size_t op_cap_ = 0;
  std::uint64_t ops_seen_ = 0;
  RngStream op_rng_;
};

/// Forwards to the hooks RgbSystem installed, feeding the OpProbe on token
/// sends and, when a LayerClock is set, timing each delivery handler.
class SuiteHooks final : public net::TraceHooks {
 public:
  SuiteHooks(net::TraceHooks& inner, OpProbe& probe)
      : inner_(inner), probe_(probe) {}

  void on_send(net::Envelope& env, sim::Time now) override {
    inner_.on_send(env, now);
    if (env.kind != core::kind::kToken) return;
    const BookScope book(clock_);
    probe_.on_token_send(env, now);
  }

  void on_deliver(const net::Envelope& env, sim::Time now,
                  net::Endpoint& endpoint) override {
    if (clock_ == nullptr) {
      inner_.on_deliver(env, now, endpoint);
      return;
    }
    clock_->child_ns = 0;
    const std::uint64_t start = wall_ns();
    inner_.on_deliver(env, now, endpoint);
    const std::uint64_t elapsed = wall_ns() - start;
    const std::size_t slot = std::min<std::size_t>(env.kind, kKindSlots - 1);
    ++clock_->handled[slot];
    clock_->self_ns[slot] += elapsed - std::min(elapsed, clock_->child_ns);
  }

  void set_clock(LayerClock* clock) { clock_ = clock; }
  [[nodiscard]] LayerClock* clock() const { return clock_; }
  [[nodiscard]] net::TraceHooks& inner() const { return inner_; }

 private:
  net::TraceHooks& inner_;
  OpProbe& probe_;
  LayerClock* clock_ = nullptr;
};

// --- ground truth ---------------------------------------------------------------

/// The bench's own record of who should be a member where. Kept per
/// workload because the facade's expected_membership() does not see
/// MobileHost-driven churn.
class Truth {
 public:
  void attach(GroupId gid, Guid guid, NodeId ap) {
    detach(gid, guid);
    groups_[gid][guid] = ap;
    digests_[gid] ^= record_hash(guid, ap);
  }
  void detach(GroupId gid, Guid guid) {
    auto& members = groups_[gid];
    const auto it = members.find(guid);
    if (it == members.end()) return;
    digests_[gid] ^= record_hash(guid, it->second);
    members.erase(it);
  }

  /// Order-independent hash of one group's records, kept up to date on
  /// every change: a query result is compared against the truth at issue
  /// time without copying the group.
  [[nodiscard]] std::uint64_t digest(GroupId gid) const {
    const auto it = digests_.find(gid);
    return it == digests_.end() ? 0 : it->second;
  }
  [[nodiscard]] static std::uint64_t record_hash(Guid guid, NodeId ap) {
    std::uint64_t x = guid.value() * 0x9E3779B97F4A7C15ULL ^ ap.value();
    return rgb::common::splitmix64(x);
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& [gid, members] : groups_) n += members.size();
    return n;
  }

  /// Operational records of one group, guid-sorted (MemberTable::snapshot
  /// order).
  [[nodiscard]] std::vector<core::MemberRecord> view(GroupId gid) const {
    std::vector<core::MemberRecord> out;
    const auto it = groups_.find(gid);
    if (it == groups_.end()) return out;
    out.reserve(it->second.size());
    for (const auto& [guid, ap] : it->second) {
      out.push_back(core::MemberRecord{guid, ap, core::MemberStatus::kOperational});
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.guid < b.guid; });
    return out;
  }

  [[nodiscard]] const std::map<GroupId, std::unordered_map<Guid, NodeId>>&
  groups() const {
    return groups_;
  }

 private:
  std::map<GroupId, std::unordered_map<Guid, NodeId>> groups_;
  std::map<GroupId, std::uint64_t> digests_;
};

/// One record an alive NE holds wrongly after the settle.
struct WrongRecord {
  GroupId gid;
  Guid guid;
  NodeId ne;
  NodeId expected_ap;                 ///< invalid: should not be operational
  std::optional<core::TableEntry> held;  ///< what the NE's table says
};

struct Verdict {
  std::uint64_t wrong = 0;  ///< distinct (gid, guid) wrong on any alive NE
  std::vector<WrongRecord> examples;
};

/// Compares every alive NE's per-group operational view against `truth`.
inline Verdict verify(const core::RgbSystem& system, const net::Network& network,
                      const Truth& truth) {
  std::map<GroupId, std::vector<core::MemberRecord>> want;
  for (const auto& [gid, members] : truth.groups()) want[gid] = truth.view(gid);
  static const std::vector<core::MemberRecord> kNone;

  std::unordered_set<std::uint64_t> wrong;
  Verdict verdict;
  const auto mark = [&](GroupId gid, Guid guid, const core::NetworkEntity& ne,
                        NodeId expected_ap) {
    if (!wrong.insert(record_key(gid, guid)).second) return;
    if (verdict.examples.size() < 3) {
      verdict.examples.push_back(WrongRecord{gid, guid, ne.id(), expected_ap,
                                             ne.directory().lookup(gid, guid)});
    }
  };
  for (const NodeId id : system.all_nes()) {
    if (network.is_crashed(id)) continue;
    const core::NetworkEntity& ne = *system.entity(id);
    std::vector<GroupId> gids;
    for (const auto& [gid, view] : want) gids.push_back(gid);
    for (const auto& [gid, state] : ne.directory().groups()) {
      if (want.count(gid) == 0) gids.push_back(gid);
    }
    for (const GroupId gid : gids) {
      const core::MemberTable* table = ne.directory().table_if(gid);
      const std::vector<core::MemberRecord> held =
          table != nullptr ? table->snapshot() : std::vector<core::MemberRecord>{};
      const auto wit = want.find(gid);
      const auto& expect = wit != want.end() ? wit->second : kNone;
      std::size_t i = 0, j = 0;
      while (i < held.size() || j < expect.size()) {
        if (i < held.size() && j < expect.size() && held[i] == expect[j]) {
          ++i;
          ++j;
        } else if (j == expect.size() ||
                   (i < held.size() && held[i].guid < expect[j].guid)) {
          mark(gid, held[i++].guid, ne, NodeId{});
        } else if (i == held.size() || expect[j].guid < held[i].guid) {
          mark(gid, expect[j].guid, ne, expect[j].access_proxy);
          ++j;
        } else {
          mark(gid, expect[j].guid, ne, expect[j].access_proxy);
          ++i;
          ++j;
        }
      }
    }
  }
  verdict.wrong = wrong.size();
  return verdict;
}

// --- one simulated deployment -----------------------------------------------------

/// Simulator, network and RGB system of one workload instance, with the
/// bench's probe installed over the system's trace hooks.
class Deployment {
 public:
  Deployment(std::uint64_t seed, const core::RgbConfig& config,
             core::HierarchyLayout layout, net::LinkConfig link)
      : rng(seed),
        network(simulator, rng.fork("net"), link),
        system(network, config, layout),
        probe(root_marks(system)),
        hooks(*network.trace_hooks(), probe) {
    network.set_trace_hooks(&hooks);
  }
  ~Deployment() { network.set_trace_hooks(&hooks.inner()); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Installs the traced run's instruments: handler timing, a timed copy
  /// of the encoded-size hook (same return value and consistency assert as
  /// wire::attach_encoded_metering), and a tap that samples delivered
  /// payloads for the codec replay.
  void install_clock(LayerClock& clock) {
    hooks.set_clock(&clock);
    network.set_sizer([&clock](const net::Envelope& env) -> std::uint32_t {
      const std::uint64_t start = wall_ns();
      const std::uint32_t encoded =
          rgb::wire::WireRegistry::global().encoded_size(env.kind, env.payload);
      const std::uint64_t elapsed = wall_ns() - start;
      ++clock.size_calls;
      clock.size_ns += elapsed;
      clock.child_ns += elapsed;
      if (encoded == 0) return 0;
      assert(rgb::wire::estimate_consistent(env.size_bytes, encoded) &&
             "wire_size() estimate out of band with the encoded size");
      return encoded;
    });
    network.set_tap([this, &clock](const net::Envelope& env, bool delivered) {
      if (!delivered) return;
      if (env.kind == core::kind::kQueryReply) {
        ++query_replies;
        query_reply_entries +=
            env.payload.get<core::QueryReplyMsg>().members.size();
      }
      // Systematic sample: every stride-th delivery of a kind; when the
      // buffer fills, keep every other sample and double the stride.
      PayloadSample& s = payload_samples[std::min<std::size_t>(env.kind, kKindSlots - 1)];
      if ((++s.seen & (s.stride - 1)) != 0) return;
      const BookScope book(&clock);
      s.kept.push_back(env);
      if (s.kept.size() == 2 * kPayloadSamplesPerKind) {
        for (std::size_t i = 0; i < kPayloadSamplesPerKind; ++i) {
          s.kept[i] = std::move(s.kept[2 * i + 1]);
        }
        s.kept.resize(kPayloadSamplesPerKind);
        s.stride *= 2;
      }
    });
  }

  /// Takes the traced run's instruments out again, so that nothing after
  /// the window (the settle) is counted: the system's own sizer comes
  /// back, the tap goes.
  void remove_clock() {
    hooks.set_clock(nullptr);
    network.set_sizer(nullptr);
    if (system.config().wire_metering) rgb::wire::attach_encoded_metering(network);
    network.set_tap(nullptr);
  }

  /// Bench bookkeeping scope (timed only when a clock is installed).
  [[nodiscard]] BookScope book() const { return BookScope(hooks.clock()); }

  static constexpr std::size_t kPayloadSamplesPerKind = 64;

  RngStream rng;
  sim::Simulator simulator;
  net::Network network;
  core::RgbSystem system;
  OpProbe probe;
  SuiteHooks hooks;
  Truth truth;
  std::uint64_t ops_issued = 0;      ///< membership requests, setup included
  std::uint64_t queries_issued = 0;
  std::uint64_t queries_failed = 0;  ///< refused or timed out
  std::uint64_t queries_stale = 0;   ///< answered, but not the truth at issue
  std::uint64_t query_msgs = 0;      ///< requests + replies of answered queries
  std::vector<std::uint32_t> query_us;  ///< issue -> last reply, answered
  struct PayloadSample {
    std::vector<net::Envelope> kept;
    std::uint64_t seen = 0;
    std::uint64_t stride = 1;  ///< a power of two
  };
  std::array<PayloadSample, kKindSlots> payload_samples;
  std::uint64_t query_replies = 0;
  std::uint64_t query_reply_entries = 0;

 private:
  static std::vector<char> root_marks(const core::RgbSystem& system) {
    std::uint64_t max_id = 0;
    for (const NodeId id : system.all_nes()) max_id = std::max(max_id, id.value());
    std::vector<char> marks(max_id + 1, 0);
    for (const auto& ring : system.rings(0)) {
      for (const NodeId id : ring) marks[id.value()] = 1;
    }
    return marks;
  }
};

}  // namespace suite
