// Experiment E10 — google-benchmark micro-benchmarks of the building
// blocks: event kernel, RNG, MQ aggregation, member-table apply, the
// GroupDirectory operations a probe tick or an op intake performs (at
// G = 1, 100 and 1000 groups; each should read flat in G), the kFull
// exchange's two halves per entry (one group's export, one fused
// import+diff), codec encode/decode in ns/byte, network send/deliver, and
// an end-to-end Member-Join round on a small hierarchy.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"
#include "wire/registry.hpp"
#include "workload/churn.hpp"

namespace {

using namespace rgb;  // NOLINT

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    for (std::uint64_t i = 0; i < events; ++i) {
      simulator.schedule_at(i % 1000, [] {});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000);

void BM_RngNextBelow(benchmark::State& state) {
  common::RngStream rng{42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(1000));
  }
}
BENCHMARK(BM_RngNextBelow);

void BM_MessageQueueAggregatedInsert(benchmark::State& state) {
  for (auto _ : state) {
    core::MessageQueue mq{true};
    for (std::uint64_t i = 0; i < 64; ++i) {
      core::MembershipOp op;
      op.kind = core::OpKind::kMemberJoin;
      op.seq = i + 1;
      op.uid = i + 1;
      op.member = {common::Guid{i % 8}, common::NodeId{1},
                   proto::MemberStatus::kOperational};
      mq.insert(std::move(op));
    }
    benchmark::DoNotOptimize(mq.drain());
  }
}
BENCHMARK(BM_MessageQueueAggregatedInsert);

void BM_MemberTableApply(benchmark::State& state) {
  std::uint64_t seq = 0;
  core::MemberTable table;
  for (auto _ : state) {
    core::MembershipOp op;
    op.kind = core::OpKind::kMemberJoin;
    op.seq = ++seq;
    op.uid = seq;
    op.member = {common::Guid{seq % 4096}, common::NodeId{seq % 64},
                 proto::MemberStatus::kOperational};
    benchmark::DoNotOptimize(table.apply(op));
  }
}
BENCHMARK(BM_MemberTableApply);

// --- GroupDirectory: per-tick and per-op operations, flat in G -------------

constexpr std::uint64_t kMembersPerGroup = 20;

core::MembershipOp directory_join(std::uint64_t gid, std::uint64_t guid,
                                  std::uint64_t seq) {
  core::MembershipOp op;
  op.kind = core::OpKind::kMemberJoin;
  op.seq = seq;
  op.uid = seq;
  op.claim_seq = seq;
  op.gid = common::GroupId{gid};
  op.member = {common::Guid{guid}, common::NodeId{1},
               proto::MemberStatus::kOperational};
  return op;
}

/// G groups of kMembersPerGroup members each, every queue empty.
core::GroupDirectory populated_directory(std::uint64_t groups) {
  core::GroupDirectory dir;
  std::uint64_t seq = 0;
  for (std::uint64_t gid = 1; gid <= groups; ++gid) {
    for (std::uint64_t m = 0; m < kMembersPerGroup; ++m) {
      dir.apply(directory_join(gid, gid * kMembersPerGroup + m, ++seq));
    }
  }
  return dir;
}

void BM_DirectoryCombinedDigest(benchmark::State& state) {
  const core::GroupDirectory dir =
      populated_directory(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.combined_digest());
  }
}
BENCHMARK(BM_DirectoryCombinedDigest)->Arg(1)->Arg(100)->Arg(1000);

void BM_DirectoryQueueEmpty(benchmark::State& state) {
  const core::GroupDirectory dir =
      populated_directory(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.queue_empty());
  }
}
BENCHMARK(BM_DirectoryQueueEmpty)->Arg(1)->Arg(100)->Arg(1000);

/// One op enqueued into a rotating group, then drained: the op-intake and
/// round-start path of a token round.
void BM_DirectoryInsertDrain(benchmark::State& state) {
  const auto groups = static_cast<std::uint64_t>(state.range(0));
  core::GroupDirectory dir = populated_directory(groups);
  std::uint64_t seq = groups * kMembersPerGroup;
  for (auto _ : state) {
    ++seq;
    dir.insert(directory_join(1 + seq % groups, seq, seq));
    benchmark::DoNotOptimize(dir.drain());
  }
}
BENCHMARK(BM_DirectoryInsertDrain)->Arg(1)->Arg(100)->Arg(1000);

void BM_DirectoryLookup(benchmark::State& state) {
  const auto groups = static_cast<std::uint64_t>(state.range(0));
  const core::GroupDirectory dir = populated_directory(groups);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t gid = 1 + i % groups;
    const std::uint64_t guid = gid * kMembersPerGroup + i % kMembersPerGroup;
    benchmark::DoNotOptimize(
        dir.lookup(common::GroupId{gid}, common::Guid{guid}));
    ++i;
  }
}
BENCHMARK(BM_DirectoryLookup)->Arg(1)->Arg(100)->Arg(1000);

// --- the kFull exchange, per entry ------------------------------------------

/// One group of `entries` members, every queue empty.
core::GroupDirectory one_group(std::uint64_t entries) {
  core::GroupDirectory dir;
  for (std::uint64_t m = 1; m <= entries; ++m) {
    dir.apply(directory_join(1, m, m));
  }
  return dir;
}

/// What a kFull sender does per receipt: export one group, gid-stamped.
void BM_GroupExport(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  const core::GroupDirectory dir = one_group(entries);
  const std::vector<common::GroupId> scope{common::GroupId{1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.export_groups(scope));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_GroupExport)->Arg(20)->Arg(2000)->Arg(200000);

/// What a kFull receiver does: the fused import+diff of one group's run
/// against a table holding the same guids, the common case (on
/// churn_faults ~95% of receipts mention every local record). Every 50th
/// incoming entry is one seq older than the local one, so the diff holds
/// 2% of the table; nothing lands, so every iteration sees the same table.
void BM_GroupImportAndDiff(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  core::GroupDirectory dir = one_group(entries);
  std::vector<core::TableEntry> run = dir.export_all();
  for (core::TableEntry& entry : run) {
    if (entry.record.guid.value() % 50 == 0) --entry.last_seq;
  }
  const std::vector<common::GroupId> scope{common::GroupId{1}};
  std::vector<core::TableEntry> diff;
  for (auto _ : state) {
    diff.clear();
    benchmark::DoNotOptimize(dir.import_and_diff(run, scope, diff));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(run.size()));
}
BENCHMARK(BM_GroupImportAndDiff)->Arg(20)->Arg(2000)->Arg(200000);

// --- codec: ns per encoded byte --------------------------------------------

/// Adds a "per_B" counter: wall time per encoded byte (printed as ns).
void report_time_per_byte(benchmark::State& state, std::size_t frame_bytes) {
  const double bytes = static_cast<double>(state.iterations()) *
                       static_cast<double>(frame_bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["per_B"] = benchmark::Counter(
      bytes, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

core::ViewSyncMsg full_of(std::uint64_t entries) {
  core::ViewSyncMsg msg;
  msg.phase = core::ViewSyncMsg::Phase::kFull;
  msg.reply_requested = true;
  msg.entries = one_group(entries).export_all();
  msg.sync_gids = {common::GroupId{1}};
  return msg;
}

core::ViewSyncMsg packed_digest() {
  core::ViewSyncMsg msg;
  msg.phase = core::ViewSyncMsg::Phase::kDigest;
  const core::GroupDirectory dir = populated_directory(20);
  msg.digest = dir.combined_digest().hash;
  msg.entry_count = static_cast<std::uint32_t>(dir.combined_digest().count);
  msg.group_digests = dir.packed_digests();
  return msg;
}

core::TokenMsg token_of(std::uint64_t ops) {
  core::TokenMsg msg;
  msg.token.gid = common::GroupId{1};
  msg.token.holder = common::NodeId{4};
  msg.token.round_id = 77;
  for (std::uint64_t i = 1; i <= ops; ++i) {
    msg.token.ops.push_back(directory_join(1, 1000 + i, 5000 + i));
  }
  return msg;
}

struct CodecFrame {
  const char* label;
  net::MessageKind kind;
  net::Payload payload;
};

/// The four frames the codec benches run on, by index.
CodecFrame codec_frame(std::int64_t which) {
  switch (which) {
    case 0: return {"kFull/20", core::kind::kViewSync, full_of(20)};
    case 1: return {"kFull/2000", core::kind::kViewSync, full_of(2000)};
    case 2: return {"kDigest/20groups", core::kind::kViewSync, packed_digest()};
    default: return {"kToken/65ops", core::kind::kToken, token_of(65)};
  }
}

void BM_CodecEncode(benchmark::State& state) {
  const CodecFrame frame = codec_frame(state.range(0));
  const auto& registry = wire::WireRegistry::global();
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    bytes.clear();
    benchmark::DoNotOptimize(registry.encode(frame.kind, frame.payload, bytes));
  }
  state.SetLabel(frame.label);
  report_time_per_byte(state, bytes.size());
}
BENCHMARK(BM_CodecEncode)->DenseRange(0, 3);

void BM_CodecDecode(benchmark::State& state) {
  const CodecFrame frame = codec_frame(state.range(0));
  const auto& registry = wire::WireRegistry::global();
  std::vector<std::uint8_t> bytes;
  if (!registry.encode(frame.kind, frame.payload, bytes)) {
    state.SkipWithError("frame does not encode");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.decode(bytes));
  }
  state.SetLabel(frame.label);
  report_time_per_byte(state, bytes.size());
}
BENCHMARK(BM_CodecDecode)->DenseRange(0, 3);

void BM_NetworkSendDeliver(benchmark::State& state) {
  class Sink : public net::Endpoint {
   public:
    void deliver(const net::Envelope&) override {}
  };
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{1}};
  Sink a, b;
  network.attach(common::NodeId{1}, &a);
  network.attach(common::NodeId{2}, &b);
  for (auto _ : state) {
    network.send(net::Envelope{common::NodeId{1}, common::NodeId{2}, 0, 64, 0});
    simulator.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_JoinRoundOnHierarchy(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  std::uint64_t guid = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    net::Network network{simulator, common::RngStream{1}};
    core::RgbSystem sys{network, core::RgbConfig{},
                        core::HierarchyLayout{2, r}};
    state.ResumeTiming();
    sys.join(common::Guid{++guid}, sys.aps().front());
    simulator.run();
    benchmark::DoNotOptimize(simulator.executed_events());
  }
}
BENCHMARK(BM_JoinRoundOnHierarchy)->Arg(3)->Arg(5)->Arg(8);

void BM_ChurnSecondOnHierarchy(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    net::Network network{simulator, common::RngStream{1}};
    core::RgbSystem sys{network, core::RgbConfig{},
                        core::HierarchyLayout{2, 5}};
    workload::ChurnConfig config;
    config.initial_members = 20;
    config.duration = sim::sec(1);
    workload::ChurnWorkload churn{simulator, sys, sys.aps(), config};
    state.ResumeTiming();
    churn.start();
    simulator.run();
    benchmark::DoNotOptimize(network.metrics().sent);
  }
}
BENCHMARK(BM_ChurnSecondOnHierarchy);

}  // namespace

BENCHMARK_MAIN();
