// Experiment E10 — google-benchmark micro-benchmarks of the building
// blocks: the event kernel (its heap alone, and churn_faults' shape of
// periodic timers in lanes beside heap deliveries), RNG, MQ aggregation,
// member-table apply, member tables at two workload shapes (query_mix's
// cold snapshots, sorted and through the query path's kept guid order;
// join_surge's interleaved applies), the dedup sets at
// join_surge's uid shape and at their worst case (sparse ids), the
// GroupDirectory operations a probe tick or an op intake performs (at
// G = 1, 100 and 1000 groups; each should read flat in G), the kFull
// exchange's two halves per entry (one group's export, one fused
// import+diff) and their bucket-scoped counterparts with the bucket
// digests a large differing group reads, codec encode/decode in ns/byte,
// network send/deliver at churn_faults' shape, and an end-to-end
// Member-Join round on a small hierarchy.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "bench_util.hpp"
#include "common/bounded_id_set.hpp"
#include "wire/registry.hpp"
#include "workload/churn.hpp"

namespace {

using namespace rgb;  // NOLINT

/// The heap alone: schedule_at never joins a timer lane.
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

/// churn_faults' kernel shape: 2,000 heartbeat timers re-arm themselves
/// every 250 ms with schedule_after (one timer lane), and each tick sends
/// one message, a delivery scheduled by absolute time at a uniform 1-3 ms
/// latency (the heap), as net::Network::send does. One iteration is one
/// period: 2,000 timer fires and 2,000 deliveries.
void BM_SimulatorPeriodicTimers(benchmark::State& state) {
  constexpr int kTimers = 2000;
  constexpr sim::Duration kPeriod = sim::msec(250);
  struct Heartbeat {
    sim::Simulator* simulator;
    common::RngStream* rng;
    void tick() {
      const sim::Time at =
          simulator->now() + sim::usec(1000 + rng->next_below(2001));
      simulator->schedule_at(at, [] {});
      simulator->schedule_after(kPeriod, [this] { tick(); });
    }
  };
  sim::Simulator simulator;
  common::RngStream rng{7};
  std::vector<Heartbeat> timers(kTimers, Heartbeat{&simulator, &rng});
  for (std::size_t i = 0; i < timers.size(); ++i) {
    simulator.schedule_at(kPeriod * i / timers.size(),
                          [&timers, i] { timers[i].tick(); });
  }
  simulator.run_until(kPeriod);  // every timer armed, deliveries in flight
  for (auto _ : state) {
    simulator.run_until(simulator.now() + kPeriod);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          kTimers);
}
BENCHMARK(BM_SimulatorPeriodicTimers);

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

// --- member tables at workload shape ----------------------------------------

/// query_mix's reads: 30 NEs x 100 groups = 3,000 tables of 160 records,
/// filled round-robin as its joins arrive (guid g joins group g % 100 on
/// every NE), so each table's fill is interleaved with every other's. The
/// guids arrive in a seeded shuffle: on query_mix a table's records reach
/// it out of guid order, so a snapshot sorts them. Each iteration
/// snapshots a pseudo-random table, mostly cold in cache.
void BM_MemberTableSnapshotCold(benchmark::State& state) {
  constexpr std::uint64_t kGroups = 100;
  constexpr std::uint64_t kNes = 30;
  constexpr std::uint64_t kRecords = 160;
  std::vector<core::MemberTable> tables(kNes * kGroups);
  std::vector<std::uint64_t> guids(kGroups * kRecords);
  std::iota(guids.begin(), guids.end(), 1);
  common::RngStream rng{7};
  rng.shuffle(guids);
  for (const std::uint64_t guid : guids) {
    const core::MembershipOp op = directory_join(1, guid, guid);
    for (std::uint64_t ne = 0; ne < kNes; ++ne) {
      tables[ne * kGroups + guid % kGroups].apply(op);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tables[rng.next_below(tables.size())].snapshot());
  }
}
BENCHMARK(BM_MemberTableSnapshotCold);

/// The same 3,000 tables read as a group-scoped query reads them, through
/// GroupDirectory::group_snapshot: each table keeps its guid order, so a
/// read walks it instead of sorting. Before every fourth read a fresh guid
/// joins the table about to be read, and that read merges it into the
/// order first. Every order is built before timing starts.
void BM_MemberTableSnapshotServed(benchmark::State& state) {
  constexpr std::uint64_t kGroups = 100;
  constexpr std::uint64_t kNes = 30;
  constexpr std::uint64_t kRecords = 160;
  std::vector<core::GroupDirectory> dirs(kNes);
  std::vector<std::uint64_t> guids(kGroups * kRecords);
  std::iota(guids.begin(), guids.end(), 1);
  common::RngStream rng{7};
  rng.shuffle(guids);
  for (const std::uint64_t guid : guids) {
    const core::MembershipOp op =
        directory_join(1 + guid % kGroups, guid, guid);
    for (core::GroupDirectory& dir : dirs) dir.apply(op);
  }
  for (core::GroupDirectory& dir : dirs) {
    for (std::uint64_t gid = 1; gid <= kGroups; ++gid) {
      benchmark::DoNotOptimize(dir.group_snapshot(common::GroupId{gid}));
    }
  }
  std::uint64_t fresh = guids.size();
  std::uint64_t reads = 0;
  for (auto _ : state) {
    core::GroupDirectory& dir = dirs[rng.next_below(kNes)];
    const std::uint64_t gid = 1 + rng.next_below(kGroups);
    if (++reads % 4 == 0) {
      ++fresh;
      dir.apply(directory_join(gid, fresh, fresh));
    }
    benchmark::DoNotOptimize(dir.group_snapshot(common::GroupId{gid}));
  }
}
BENCHMARK(BM_MemberTableSnapshotServed);

/// join_surge's writes: the 30 NEs' tables of its one group, fed ascending
/// guids in 65-op batches (about a token round's worth) round-robin, up to
/// 200,000 records each. An iteration fills 30 newly built tables, so each
/// grows from no storage at all as on the workload; items are applies.
void BM_MemberTableApplyInterleaved(benchmark::State& state) {
  constexpr std::uint64_t kNes = 30;
  constexpr std::size_t kBatch = 65;
  constexpr std::uint64_t kRecords = 200'000;
  std::vector<core::MembershipOp> ops;
  ops.reserve(kRecords);
  for (std::uint64_t guid = 1; guid <= kRecords; ++guid) {
    ops.push_back(directory_join(1, guid, guid));
  }
  std::vector<core::MemberTable> tables;
  for (auto _ : state) {
    state.PauseTiming();
    tables.clear();
    tables.resize(kNes);
    state.ResumeTiming();
    for (std::size_t first = 0; first < ops.size(); first += kBatch) {
      const std::size_t last = std::min(first + kBatch, ops.size());
      for (core::MemberTable& table : tables) {
        for (std::size_t i = first; i < last; ++i) {
          benchmark::DoNotOptimize(table.apply(ops[i]));
        }
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kNes * kRecords));
}
BENCHMARK(BM_MemberTableApplyInterleaved)->Unit(benchmark::kMillisecond);

// --- dedup sets -------------------------------------------------------------

/// join_surge's dedup writes: a token round records each of its op uids in
/// the cap-8,192 dissemination set of every NE it visits (30 here). Uids
/// come in 13-op batches from 25 origins taken in turn, each counting up
/// as origin_scoped_id mints them. The sets start full, so every insert
/// also forgets the oldest uid; items are inserts.
void BM_BoundedIdSetJoinSurge(benchmark::State& state) {
  constexpr std::size_t kNes = 30;
  constexpr std::uint64_t kOrigins = 25;
  constexpr std::size_t kBatch = 13;
  constexpr std::size_t kCap = 8192;
  std::vector<common::BoundedIdSet> sets(kNes, common::BoundedIdSet{kCap});
  std::vector<std::uint64_t> counters(kOrigins, 0);
  std::vector<std::uint64_t> batch(kBatch);
  std::uint64_t origin = 0;
  const auto round = [&] {
    origin = (origin + 1) % kOrigins;
    for (std::uint64_t& uid : batch) {
      uid = core::origin_scoped_id(common::NodeId{origin + 1},
                                   ++counters[origin]);
    }
    for (common::BoundedIdSet& set : sets) {
      for (const std::uint64_t uid : batch) {
        benchmark::DoNotOptimize(set.insert(uid));
      }
    }
  };
  for (std::size_t filled = 0; filled < kCap; filled += kBatch) round();
  for (auto _ : state) round();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kNes * kBatch));
}
BENCHMARK(BM_BoundedIdSetJoinSurge);

/// The block index's worst case: uniform 64-bit ids, one per block, into
/// one full set of cap 65,536 (the tracer's join dedup cap). Every insert
/// adds a block and forgets one.
void BM_BoundedIdSetSparse(benchmark::State& state) {
  constexpr std::size_t kCap = 65536;
  common::RngStream rng{7};
  std::vector<std::uint64_t> ids(4 * kCap);
  for (std::uint64_t& id : ids) id = rng.next_u64();
  common::BoundedIdSet set{kCap};
  std::size_t next = 0;
  for (; next < kCap; ++next) set.insert(ids[next]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.insert(ids[next]));
    next = next + 1 == ids.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BoundedIdSetSparse);

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

// --- the bucket-level exchange of a large group ------------------------------

/// Every 12th of the 128 buckets: 11 buckets, about what ~11 differing
/// records (the churn_faults mean per exchange) spread over.
const std::vector<core::BucketScope> kElevenBuckets = [] {
  core::BucketScope scope{common::GroupId{1}, {}};
  for (std::uint32_t b = 0; b < core::kBucketCount; b += 12) {
    scope.buckets.push_back(b);
  }
  return std::vector<core::BucketScope>{scope};
}();

/// What a kDigest receiver reads for a large group that differs: its
/// bucket digests, kept by the table from its first bucket-level exchange.
void BM_GroupBucketDigests(benchmark::State& state) {
  core::GroupDirectory dir =
      one_group(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.bucket_digests(common::GroupId{1}));
  }
}
BENCHMARK(BM_GroupBucketDigests)->Arg(2000)->Arg(200000);

/// What a kBuckets receiver ships: the entries of 11 buckets. Items are
/// the table's entries, so the rate compares with BM_GroupExport's.
void BM_GroupExportBuckets(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  core::GroupDirectory dir = one_group(entries);
  dir.bucket_digests(common::GroupId{1});  // as the receiver does first
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.export_buckets(kElevenBuckets));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_GroupExportBuckets)->Arg(2000)->Arg(200000);

/// What a bucket-scoped kFull receiver does: the fused import+diff of 11
/// buckets' run, with BM_GroupImportAndDiff's 2% of older entries. Items
/// are the table's entries, as above.
void BM_GroupImportAndDiffBuckets(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  core::GroupDirectory dir = one_group(entries);
  dir.bucket_digests(common::GroupId{1});  // as the kBuckets sender did
  std::vector<core::TableEntry> run = dir.export_buckets(kElevenBuckets);
  for (core::TableEntry& entry : run) {
    if (entry.record.guid.value() % 50 == 0) --entry.last_seq;
  }
  std::vector<core::TableEntry> diff;
  for (auto _ : state) {
    diff.clear();
    benchmark::DoNotOptimize(
        dir.import_and_diff(run, {}, diff, kElevenBuckets));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_GroupImportAndDiffBuckets)->Arg(2000)->Arg(200000);

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

/// The size pass the metering hook runs on every send: the only codec pass
/// on any workload's hot path.
void BM_CodecSize(benchmark::State& state) {
  const CodecFrame frame = codec_frame(state.range(0));
  const auto& registry = wire::WireRegistry::global();
  const std::uint32_t size = registry.encoded_size(frame.kind, frame.payload);
  if (size == 0) {
    state.SkipWithError("frame does not size");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.encoded_size(frame.kind, frame.payload));
  }
  state.SetLabel(frame.label);
  report_time_per_byte(state, size);
}
BENCHMARK(BM_CodecSize)->DenseRange(0, 3);

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

/// churn_faults' network shape: 30 NEs with all 435 NE-NE link overrides
/// (2% loss, as the workload installs them) and 2,000 hosts (ids from
/// 100,000) on the default 1-3 ms link. One iteration is one heartbeat
/// period: every host sends to its NE and every NE to the next one on a
/// ring, then the deliveries run. Every other iteration runs with one NE
/// crashed, so half the messages see a crash in force. Reported per message.
void BM_NetworkSendDeliver(benchmark::State& state) {
  class Sink : public net::Endpoint {
   public:
    void deliver(const net::Envelope&) override {}
  };
  constexpr std::uint64_t kNes = 30;
  constexpr std::uint64_t kHosts = 2000;
  constexpr std::uint64_t kHostIds = 100'000;
  net::LinkConfig host_link;
  host_link.latency = net::LatencyModel::uniform(sim::msec(1), sim::msec(3));
  net::LinkConfig ne_link = host_link;
  ne_link.drop_probability = 0.02;
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{1}, host_link};
  Sink sink;
  for (std::uint64_t i = 1; i <= kNes; ++i) {
    network.attach(common::NodeId{i}, &sink);
    for (std::uint64_t j = 1; j < i; ++j) {
      network.set_link(common::NodeId{j}, common::NodeId{i}, ne_link);
    }
  }
  for (std::uint64_t h = 0; h < kHosts; ++h) {
    network.attach(common::NodeId{kHostIds + h}, &sink);
  }
  const common::NodeId crashed{1};
  bool crash = false;
  for (auto _ : state) {
    if (crash) network.crash(crashed);
    for (std::uint64_t h = 0; h < kHosts; ++h) {
      network.send(net::Envelope{common::NodeId{kHostIds + h},
                                 common::NodeId{1 + h % kNes}, 0, 64, 0});
    }
    for (std::uint64_t i = 1; i <= kNes; ++i) {
      network.send(net::Envelope{common::NodeId{i},
                                 common::NodeId{1 + i % kNes}, 0, 64, 0});
    }
    simulator.run();
    if (crash) network.recover(crashed);
    crash = !crash;
  }
  state.counters["per_msg"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * (kHosts + kNes),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
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
