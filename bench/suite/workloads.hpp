// The suite's four workloads. Each one is a deployment plus an open-loop
// load generator whose inputs come only from the seed; see README.md for
// why each exists and which layers it exercises or bypasses.
//
// Every workload follows the same life cycle, driven by bench_suite.cpp:
//   setup()         construction, population seeding, warm-up (timed as
//                   setup_s, repeated and reported as a median);
//   start_window()  arms the measured load; the window is split into ten
//                   equal sim-time slices;
//   end_window()    lifts conditions that hold for the window only (loss);
//   settle()        lossless quiet period before the correctness check.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.hpp"
#include "rgb/mobile_host.hpp"
#include "rgb/query.hpp"

namespace suite {

/// `window` scales the window's simulated length (1.0 = `--seconds 10`);
/// `smoke` also shrinks the populations to about 2%.
struct Scale {
  double window = 1.0;
  bool smoke = false;
  [[nodiscard]] std::uint64_t count(double full) const {
    return static_cast<std::uint64_t>(std::llround(full * window));
  }
  [[nodiscard]] sim::Duration seconds(double full) const {
    return count(full * static_cast<double>(sim::kSecond));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  /// Arms the window's load from now(); returns the window's length.
  virtual sim::Duration start_window() = 0;
  virtual void end_window() {}
  [[nodiscard]] virtual sim::Duration settle() const = 0;

  [[nodiscard]] Deployment& d() { return *d_; }

 protected:
  std::unique_ptr<Deployment> d_;
};

/// One open-loop arrival process (see arrivals()).
struct ArrivalProcess {
  RngStream rng;
  std::function<sim::Duration(RngStream&)> gap;
  std::uint64_t left;
  sim::Time end;
  std::function<void(RngStream&)> act;
};

inline void arrival_step(sim::Simulator& simulator,
                         const std::shared_ptr<ArrivalProcess>& p) {
  p->act(p->rng);
  if (p->left != 0 && --p->left == 0) return;
  const sim::Time next = simulator.now() + p->gap(p->rng);
  if (p->end != 0 && next >= p->end) return;
  simulator.schedule_at(next, [&simulator, p] { arrival_step(simulator, p); });
}

/// Open-loop arrivals: `act` runs at `start` and then after every `gap`
/// drawn from `rng`, until `count` arrivals happened (0 = unbounded) or the
/// next one would fall at or after `end` (0 = no end).
inline void arrivals(Deployment& d, RngStream rng, sim::Time start,
                     std::function<sim::Duration(RngStream&)> gap,
                     std::uint64_t count, sim::Time end,
                     std::function<void(RngStream&)> act) {
  auto p = std::make_shared<ArrivalProcess>(
      ArrivalProcess{rng, std::move(gap), count, end, std::move(act)});
  sim::Simulator& simulator = d.simulator;
  simulator.schedule_at(start, [&simulator, p] { arrival_step(simulator, p); });
}

inline std::function<sim::Duration(RngStream&)> exponential_gap(
    sim::Duration mean) {
  return [mean](RngStream& rng) {
    return std::max<sim::Duration>(
        1, static_cast<sim::Duration>(rng.exponential(static_cast<double>(mean))));
  };
}

inline NodeId random_ap(const core::RgbSystem& system, RngStream& rng) {
  const auto& aps = system.aps();
  return aps[rng.next_below(aps.size())];
}

inline NodeId other_ap(const core::RgbSystem& system, RngStream& rng,
                       NodeId current) {
  const auto& aps = system.aps();
  NodeId ap = aps[rng.next_below(aps.size() - 1)];
  return ap == current ? aps.back() : ap;
}

/// Facade join of a fresh member at a random AP: ground truth, latency
/// probe, then the program call.
inline void facade_join(Deployment& d, Guid guid, RngStream& rng) {
  NodeId ap;
  {
    const BookScope book = d.book();
    ap = random_ap(d.system, rng);
    for (const GroupId gid : core::member_groups(guid, d.system.config())) {
      d.truth.attach(gid, guid, ap);
      d.probe.join_issued(gid, guid, d.simulator.now());
    }
    ++d.ops_issued;
  }
  d.system.join(guid, ap);
}

// --- join_surge ----------------------------------------------------------------

/// Write path: 200k members join one group at 2000/s through the facade;
/// paper defaults (per-op dissemination, MQ aggregation, probing off).
class JoinSurge final : public Workload {
 public:
  JoinSurge(std::uint64_t seed, Scale scale)
      : members_(scale.count(200'000)) {
    d_ = std::make_unique<Deployment>(seed, core::RgbConfig{},
                                      core::HierarchyLayout{2, 5},
                                      net::LinkConfig{});
  }

  /// Warm-up: the surge's first 5% of joins, so the window starts with
  /// every ring already busy.
  void setup() override {
    const std::uint64_t warmup = members_ / 20;
    surge("warmup", warmup);
    d_->simulator.run_until(kGap * warmup);
  }

  sim::Duration start_window() override {
    d_->probe.start_window(d_->simulator.now());
    surge("joins", members_);
    // The arrivals span members * kGap on average; the slack lets the last
    // rounds drain inside the window.
    return kGap * members_ + sim::sec(1);
  }

  [[nodiscard]] sim::Duration settle() const override { return sim::sec(5); }

 private:
  void surge(const char* stream, std::uint64_t joins) {
    Deployment& d = *d_;
    arrivals(d, d.rng.fork(stream), d.simulator.now(), exponential_gap(kGap),
             joins, 0, [this, &d](RngStream& rng) {
               facade_join(d, Guid{next_guid_++}, rng);
             });
  }

  static constexpr sim::Duration kGap = sim::usec(500);
  std::uint64_t members_;
  std::uint64_t next_guid_ = 1;
};

// --- groups_steady ---------------------------------------------------------------

/// The probe-tick / kSummary path at rest: 1000 groups x 20 members on 12
/// NEs, no membership ops in the window.
class GroupsSteady final : public Workload {
 public:
  GroupsSteady(std::uint64_t seed, Scale scale)
      : members_per_group_(scale.smoke ? 1 : 20),
        ticks_(std::max<std::uint64_t>(1, scale.count(1200))) {
    core::RgbConfig config;
    config.groups = kGroups;
    config.probe_period = kTick;
    d_ = std::make_unique<Deployment>(seed, config, core::HierarchyLayout{2, 3},
                                      net::LinkConfig{});
  }

  void setup() override {
    Deployment& d = *d_;
    // guid -> GroupId{1 + guid % G}: consecutive guids fill the groups
    // round-robin, so every group ends with exactly M members.
    arrivals(d, d.rng.fork("joins"), 0, exponential_gap(sim::usec(200)),
             kGroups * members_per_group_, 0,
             [&d, next = std::uint64_t{1}](RngStream& rng) mutable {
               facade_join(d, Guid{next++}, rng);
             });
    d.simulator.run();
    d.system.start_probing();
    d.simulator.run_until(d.simulator.now() + kTick * 10);
  }

  /// No ops run in the window, so the latency probe keeps the set-up
  /// population's joins: 20,000 joins spread over 1000 groups.
  sim::Duration start_window() override { return kTick * ticks_; }

  [[nodiscard]] sim::Duration settle() const override { return kTick; }

 private:
  static constexpr std::uint64_t kGroups = 1000;
  static constexpr sim::Duration kTick = sim::msec(250);
  std::uint64_t members_per_group_;
  std::uint64_t ticks_;
};

// --- churn_faults ------------------------------------------------------------------

/// Detection, stability alerts, ring repair and reconcile under mobility:
/// heartbeating MobileHost agents fail, leave, hand off and rejoin while
/// every NE-NE link loses 2% of its messages and a top-ring NE crashes
/// periodically. MH-AP links stay lossless: the edge request has no
/// retransmission.
///
/// `findings` runs the shape without the two guards below (distinct hosts
/// per step, kFailGrace): that variant ends with wrong records on most
/// seeds, so it is no catalog workload (README.md, "Findings").
class ChurnFaults final : public Workload {
 public:
  ChurnFaults(std::uint64_t seed, Scale scale, bool findings)
      : window_(scale.seconds(300)),
        distinct_(!findings),
        fail_grace_(findings ? 0 : kFailGrace) {
    core::RgbConfig config;
    config.probe_period = sim::msec(250);
    config.mh_failure_timeout = sim::sec(1);
    config.stability = true;
    // Jittered links: with a fixed 1 ms hop every uncongested latency would
    // be a whole number of hops, the same on every seed.
    link_.latency = net::LatencyModel::uniform(sim::msec(1), sim::msec(3));
    d_ = std::make_unique<Deployment>(seed, config, core::HierarchyLayout{2, 5},
                                      link_);
    const std::uint64_t hosts = scale.smoke ? 100 : 2000;
    for (std::uint64_t i = 0; i < hosts; ++i) {
      hosts_.push_back(Host{std::make_unique<core::MobileHost>(
          NodeId{kHostIds + i}, Guid{i + 1}, kGroup, d_->network, sim::msec(250))});
    }
    crash_target_ = d_->system.rings(0).front().at(2);  // not the leader
  }

  void setup() override {
    Deployment& d = *d_;
    d.system.start_probing();
    arrivals(d, d.rng.fork("joins"), 0, exponential_gap(sim::msec(1)),
             hosts_.size(), 0,
             [this, next = std::size_t{0}](RngStream& rng) mutable {
               rejoin(hosts_[next++], rng);
             });
    d.simulator.run_until(sim::msec(1) * hosts_.size() + sim::sec(3));
  }

  sim::Duration start_window() override {
    Deployment& d = *d_;
    const sim::Time start = d.simulator.now();
    d.probe.start_window(start);
    set_ne_loss(kLoss);
    // Every 100 ms four distinct random hosts act. (Two requests of one
    // host in the same instant can overtake each other on a jittered link;
    // no physical host hands off twice within a millisecond.)
    arrivals(d, d.rng.fork("churn"), start + kStep,
             [](RngStream&) { return kStep; }, 0, start + window_,
             [this](RngStream& rng) {
               std::array<std::size_t, 4> picked{};
               for (std::size_t i = 0; i < picked.size(); ++i) {
                 do {
                   picked[i] = rng.next_below(hosts_.size());
                 } while (distinct_ && std::find(picked.begin(), picked.begin() + i,
                                                 picked[i]) != picked.begin() + i);
                 Host& host = hosts_[picked[i]];
                 if (host.live) {
                   act(host, rng);
                 } else {
                   rejoin(host, rng);
                 }
               }
             });
    // One top-ring NE down for 8 s of every 30 s (scaled down for short
    // windows so the smoke run still crashes once).
    const sim::Duration cycle = std::min<sim::Duration>(sim::sec(30), window_ / 2);
    const sim::Duration down = cycle * 8 / 30;
    for (sim::Time at = start + cycle / 3; at + down < start + window_;
         at += cycle) {
      d.simulator.schedule_at(at, [&d, ne = crash_target_] { d.system.crash_ne(ne); });
      d.simulator.schedule_at(at + down,
                              [&d, ne = crash_target_] { d.system.recover_ne(ne); });
    }
    return window_;
  }

  void end_window() override { set_ne_loss(0.0); }

  [[nodiscard]] sim::Duration settle() const override { return sim::sec(20); }

 private:
  struct Host {
    std::unique_ptr<core::MobileHost> agent;
    bool live = false;
    sim::Time attached_at = 0;  ///< last join or handoff
  };

  /// A live host fails silently (25%), leaves (10%) or hands off (65%).
  /// A host attached at its AP for less than kFailGrace does not fail (it
  /// stays put this step): an AP drops a silent member whose join its own
  /// table does not show yet, so under loss a host failing while its AP
  /// waits for the token would stay Operational everywhere for good.
  void act(Host& host, RngStream& rng) {
    Deployment& d = *d_;
    const Guid guid = host.agent->guid();
    double r = 0.0;
    NodeId target;
    {
      const BookScope book = d.book();
      r = rng.next_double();
      if (r < 0.25 && d.simulator.now() < host.attached_at + fail_grace_) return;
      ++d.ops_issued;
      if (r < 0.35) {
        d.truth.detach(kGroup, guid);
        host.live = false;
        if (r < 0.25) d.probe.silence_issued(kGroup, guid, d.simulator.now());
      } else {
        target = other_ap(d.system, rng, host.agent->current_ap());
        d.truth.attach(kGroup, guid, target);
        host.attached_at = d.simulator.now();
      }
    }
    if (r < 0.25) {
      host.agent->fail();
    } else if (r < 0.35) {
      host.agent->leave();
    } else {
      host.agent->handoff_to(target);
    }
  }

  /// A gone host (or a fresh one during setup) joins at a random AP.
  void rejoin(Host& host, RngStream& rng) {
    Deployment& d = *d_;
    const Guid guid = host.agent->guid();
    NodeId ap;
    {
      const BookScope book = d.book();
      ++d.ops_issued;
      ap = random_ap(d.system, rng);
      d.truth.attach(kGroup, guid, ap);
      d.probe.silence_ended(kGroup, guid);
      d.probe.join_issued(kGroup, guid, d.simulator.now());
      host.live = true;
      host.attached_at = d.simulator.now();
    }
    host.agent->join_via(ap);
  }

  /// Loss on every NE-NE link; links to hosts keep `link_`.
  void set_ne_loss(double p) {
    net::LinkConfig link = link_;
    link.drop_probability = p;
    const std::vector<NodeId> nes = d_->system.all_nes();
    for (std::size_t i = 0; i < nes.size(); ++i) {
      for (std::size_t j = i + 1; j < nes.size(); ++j) {
        d_->network.set_link(nes[i], nes[j], link);
      }
    }
  }

  static constexpr std::uint64_t kHostIds = 100'000;
  static constexpr GroupId kGroup{1};
  static constexpr sim::Duration kStep = sim::msec(100);
  static constexpr double kLoss = 0.02;
  static constexpr sim::Duration kFailGrace = sim::sec(10);
  sim::Duration window_;
  bool distinct_;
  sim::Duration fail_grace_;
  net::LinkConfig link_;
  std::vector<Host> hosts_;
  NodeId crash_target_;
};

// --- query_mix ---------------------------------------------------------------------

/// Reads beside writes on the same tables: 200 group-scoped queries/s
/// (TMS and BMS alternating) and 100 facade writes/s over 100 groups x 100
/// members, on links jittered 1-10 ms.
class QueryMix final : public Workload {
 public:
  QueryMix(std::uint64_t seed, Scale scale)
      : members_(scale.smoke ? 200 : kGroups * 100),
        window_(scale.seconds(200)) {
    core::RgbConfig config;
    config.groups = kGroups;
    net::LinkConfig link;
    link.latency = net::LatencyModel::uniform(sim::msec(1), sim::msec(10));
    d_ = std::make_unique<Deployment>(seed, config, core::HierarchyLayout{2, 5},
                                      link);
    for (std::uint64_t i = 0; i < kClients; ++i) {
      clients_.push_back(Client{
          std::make_unique<core::QueryClient>(NodeId{kClientIds + i}, d_->network),
          false});
    }
  }

  void setup() override {
    Deployment& d = *d_;
    arrivals(d, d.rng.fork("joins"), 0, exponential_gap(sim::usec(200)),
             members_, 0, [this](RngStream& rng) { join_fresh(rng); });
    d.simulator.run();
  }

  sim::Duration start_window() override {
    Deployment& d = *d_;
    const sim::Time start = d.simulator.now();
    const sim::Time end = start + window_;
    d.probe.start_window(start);
    arrivals(d, d.rng.fork("queries"), start, exponential_gap(sim::msec(5)), 0,
             end, [this](RngStream& rng) { query(rng); });
    arrivals(d, d.rng.fork("writes"), start, exponential_gap(sim::msec(10)), 0,
             end, [this](RngStream& rng) { write(rng); });
    return window_;
  }

  [[nodiscard]] sim::Duration settle() const override { return sim::sec(30); }

 private:
  struct Client {
    std::unique_ptr<core::QueryClient> agent;
    bool busy = false;
  };

  void join_fresh(RngStream& rng) {
    Deployment& d = *d_;
    const Guid guid{next_guid_++};
    {
      const BookScope book = d.book();
      live_pos_[guid] = live_.size();
      live_.push_back(guid);
    }
    facade_join(d, guid, rng);
  }

  /// 30% join a fresh member, 20% leave, 50% hand off.
  void write(RngStream& rng) {
    Deployment& d = *d_;
    const double r = rng.next_double();
    if (r < 0.3 || live_.empty()) {
      join_fresh(rng);
      return;
    }
    Guid guid;
    NodeId target;
    {
      const BookScope book = d.book();
      ++d.ops_issued;
      guid = live_[rng.next_below(live_.size())];
      const GroupId gid = core::member_groups(guid, d.system.config()).front();
      if (r < 0.5) {
        d.truth.detach(gid, guid);
        const std::size_t pos = live_pos_[guid];
        live_[pos] = live_.back();
        live_pos_[live_[pos]] = pos;
        live_.pop_back();
        live_pos_.erase(guid);
      } else {
        target = other_ap(d.system, rng, d.truth.groups().at(gid).at(guid));
        d.truth.attach(gid, guid, target);
      }
    }
    if (r < 0.5) {
      d.system.leave(guid);
    } else {
      d.system.handoff(guid, target);
    }
  }

  void query(RngStream& rng) {
    Deployment& d = *d_;
    Client* client = nullptr;
    GroupId gid;
    core::QueryScheme scheme{};
    std::uint64_t expected = 0;
    {
      const BookScope book = d.book();
      ++d.queries_issued;
      for (std::size_t i = 0; i < clients_.size() && client == nullptr; ++i) {
        Client& c = clients_[(next_client_ + i) % clients_.size()];
        if (!c.busy) client = &c;
      }
      if (client == nullptr) {
        ++d.queries_failed;  // refused: every client is waiting on a reply
        return;
      }
      ++next_client_;
      client->busy = true;
      gid = GroupId{1 + rng.next_below(kGroups)};
      scheme = (d.queries_issued % 2 == 0) ? core::QueryScheme::kTopmost
                                           : core::QueryScheme::kBottommost;
      expected = d.truth.digest(gid);
    }
    client->agent->issue_group(
        d.system.query_plan(scheme), gid, sim::msec(500),
        [&d, client, expected](core::QueryClient::Result result) {
          const BookScope book = d.book();
          client->busy = false;
          if (!result.complete) {
            ++d.queries_failed;
            return;
          }
          d.query_us.push_back(static_cast<std::uint32_t>(result.latency));
          d.query_msgs += result.messages;
          std::uint64_t answered = 0;
          for (const core::MemberRecord& rec : result.members) {
            answered ^= Truth::record_hash(rec.guid, rec.access_proxy);
          }
          if (answered != expected) ++d.queries_stale;
        });
  }

  static constexpr std::uint64_t kGroups = 100;
  static constexpr std::uint64_t kClients = 64;
  static constexpr std::uint64_t kClientIds = 200'000;
  std::uint64_t members_;
  sim::Duration window_;
  std::vector<Client> clients_;
  std::size_t next_client_ = 0;
  std::uint64_t next_guid_ = 1;
  std::vector<Guid> live_;
  std::unordered_map<Guid, std::size_t> live_pos_;
};

/// churn_faults without its guards: reproduces the findings.
inline constexpr const char* kFindingsWorkload = "churn_findings";

/// The suite's catalog order; bench_suite.cpp and BENCHMARK.json list the
/// workloads in this order.
inline std::unique_ptr<Workload> make_workload(const std::string& name,
                                               std::uint64_t seed, Scale scale) {
  // Streams fork by workload name, so one seed drives four unrelated inputs.
  const std::uint64_t s = RngStream{seed}.fork(name).next_u64();
  if (name == "join_surge") return std::make_unique<JoinSurge>(s, scale);
  if (name == "groups_steady") return std::make_unique<GroupsSteady>(s, scale);
  if (name == "churn_faults") return std::make_unique<ChurnFaults>(s, scale, false);
  if (name == kFindingsWorkload) return std::make_unique<ChurnFaults>(s, scale, true);
  if (name == "query_mix") return std::make_unique<QueryMix>(s, scale);
  return nullptr;
}

}  // namespace suite
