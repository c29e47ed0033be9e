// Concurrent query throughput: QPS of the batch query engine over a shared
// immutable SE oracle as the worker count grows (1, 2, 4, 8, hw). Not a
// paper figure — this is the system-side benchmark backing the batch layer
// (query/batch.h): the oracle's O(h) probes are embarrassingly parallel, so
// QPS should scale near-linearly until memory bandwidth saturates. The same
// oracle, packed into 4 shards, is then served by a ServeEngine in process
// and by a tsod server over loopback TCP.
//
// Every measurement is emitted as one machine-readable line (schema in
// docs/bench-json.md; the CI gate tracks the workload sizes, exact counters
// and coarse floors):
//   BENCH {"bench":"throughput","workload":...,"threads":...,"qps":...}
//   BENCH {"bench":"serve","workload":"net_p2p","queries":...,"qps":...}
// The process exits non-zero if any answer over the wire differs from the
// in-process engine's.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>

#include "base/atomic_file.h"
#include "base/failpoint.h"
#include "base/histogram.h"
#include "base/probe_stats.h"
#include "bench/bench_common.h"
#include "dyn/dynamic_oracle.h"
#include "geodesic/dijkstra_solver.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle/pack_view.h"
#include "query/batch.h"
#include "query/knn.h"
#include "serve/engine.h"
#include "terrain/poi_generator.h"

namespace tso::bench {
namespace {

void EmitJson(const char* workload, uint32_t threads, size_t queries,
              double seconds, double qps, double speedup) {
  BenchJson("throughput")
      .Str("workload", workload)
      .Int("threads", threads)
      .Int("queries", queries)
      .Num("seconds", seconds, 6)
      .Num("qps", qps, 1)
      .Num("speedup", speedup, 3)
      .Emit();
}

std::vector<uint32_t> ThreadCounts() {
  std::vector<uint32_t> counts = {1, 2, 4, 8};
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (hw > counts.back()) counts.push_back(hw);
  return counts;
}

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One client connection to `engine` through its own loopback tsod server.
/// The client is declared last so it closes before the server drains.
struct LoopbackConnection {
  explicit LoopbackConnection(ServeEngine& engine) : server(&engine, {}) {
    TSO_CHECK_OK(server.Start());
    TSO_CHECK_OK(client.Connect("127.0.0.1", server.port()));
  }
  TsodServer server;
  TsodClient client;
};

/// The loopback wire workloads: the first 2,000 query pairs against `path`
/// served by a TsodServer, pipelined (net_p2p), as one Batch RPC
/// (net_batch), and as 500 blocking round trips (net_latency). Fixed sizes,
/// not Scaled: the gate pins them. Every answer is bit-compared against the
/// in-process engine; returns the number that differ or failed.
uint64_t RunNetWorkloads(
    const std::string& path,
    const std::vector<std::pair<uint32_t, uint32_t>>& all_pairs) {
  ServeEngine engine;
  TSO_CHECK_OK(engine.Load(path));
  const std::vector<std::pair<uint32_t, uint32_t>> pairs(
      all_pairs.begin(), all_pairs.begin() + 2000);
  StatusOr<std::vector<double>> expected = engine.Batch(pairs, 1);
  TSO_CHECK(expected.ok());
  LoopbackConnection wire(engine);

  // net_p2p: pipelined single-distance RPCs with a bounded outstanding
  // window. The server coalesces each pipelined run into one engine batch.
  constexpr size_t kWindow = 128;
  uint64_t p2p_mismatches = 0;
  WallTimer p2p_timer;
  size_t sent = 0;
  for (size_t received = 0; received < pairs.size(); ++received) {
    while (sent < pairs.size() && sent - received < kWindow) {
      TSO_CHECK_OK(
          wire.client.SendDistance(pairs[sent].first, pairs[sent].second));
      ++sent;
    }
    StatusOr<double> d = wire.client.RecvDistance();
    if (!d.ok() || !BitsEqual(*d, (*expected)[received])) ++p2p_mismatches;
  }
  const double p2p_qps = pairs.size() / p2p_timer.ElapsedSeconds();
  BenchJson("serve")
      .Str("workload", "net_p2p")
      .Int("queries", pairs.size())
      .Num("qps", p2p_qps, 1)
      .Int("mismatches", p2p_mismatches)
      .Emit();

  // net_batch: the same pairs as one Batch RPC, one frame each way.
  WallTimer batch_timer;
  StatusOr<std::vector<double>> got = wire.client.Batch(pairs);
  const double batch_qps = pairs.size() / batch_timer.ElapsedSeconds();
  uint64_t batch_mismatches = pairs.size();
  if (got.ok() && got->size() == pairs.size()) {
    batch_mismatches = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (!BitsEqual((*got)[i], (*expected)[i])) ++batch_mismatches;
    }
  }
  BenchJson("serve")
      .Str("workload", "net_batch")
      .Int("queries", pairs.size())
      .Num("qps", batch_qps, 1)
      .Int("mismatches", batch_mismatches)
      .Emit();

  // net_latency: blocking round trips, one at a time, each timed into the
  // HDR-style histogram: end-to-end wire latency including framing and the
  // kernel loopback, where net_p2p measures only throughput. Capped at 500:
  // round trips dominate, more adds no signal.
  constexpr size_t kLatencyQueries = 500;
  LatencyHistogram hist;
  uint64_t lat_mismatches = 0;
  for (size_t i = 0; i < kLatencyQueries; ++i) {
    WallTimer rt;
    StatusOr<double> d = wire.client.Distance(pairs[i].first, pairs[i].second);
    hist.Record(static_cast<uint64_t>(rt.ElapsedMicros()));
    if (!d.ok() || !BitsEqual(*d, (*expected)[i])) ++lat_mismatches;
  }
  BenchJson("serve")
      .Str("workload", "net_latency")
      .Int("queries", kLatencyQueries)
      .Int("p50_us", hist.Percentile(50.0))
      .Int("p95_us", hist.Percentile(95.0))
      .Int("p99_us", hist.Percentile(99.0))
      .Int("mismatches", lat_mismatches)
      .Emit();
  return p2p_mismatches + batch_mismatches + lat_mismatches;
}

/// The failpoint overload script, written once and run over each query
/// path. `connect(engine)` returns a callable `query(deadline_us)` (0 = no
/// deadline) that asks `engine` for d(0, 1) from one thread: directly, or
/// over one wire connection. The counts are exact rather than
/// timing-derived: a paused query wedges a max_inflight=1 engine and every
/// concurrent query sheds; a delay(1) injection blows a 100us deadline
/// every time; the disarmed engine then answers again. Every reply's status
/// is checked, so the emitted counts can only be the pinned ones whatever
/// the machine speed. Fixed-size (not Scaled): the workload is admission
/// arithmetic, not data-plane work.
template <typename Connect>
void RunOverloadScript(const char* bench, const char* workload,
                       const std::string& path, Connect connect) {
  ServeOptions shed_options;
  shed_options.max_inflight = 1;
  ServeEngine shed_engine(shed_options);
  TSO_CHECK_OK(shed_engine.Load(path));
  TSO_CHECK_OK(failpoint::Arm("serve.query", "pause"));
  // Holds the single admission slot, paused at the failpoint until the main
  // thread disarms it; its answer must still arrive.
  std::thread blocker([query = connect(shed_engine)]() {
    TSO_CHECK_OK(query(0).status());
  });
  while (shed_engine.stats().inflight == 0) std::this_thread::yield();
  constexpr uint64_t kShedQueries = 1000;
  {
    auto query = connect(shed_engine);
    for (uint64_t i = 0; i < kShedQueries; ++i) {
      TSO_CHECK(query(0).status().code() == StatusCode::kUnavailable);
    }
  }
  failpoint::Disarm("serve.query");
  blocker.join();

  ServeEngine deadline_engine;
  TSO_CHECK_OK(deadline_engine.Load(path));
  auto query = connect(deadline_engine);
  TSO_CHECK_OK(failpoint::Arm("serve.query", "delay(1)"));
  constexpr uint64_t kDeadlineQueries = 200;
  for (uint64_t i = 0; i < kDeadlineQueries; ++i) {
    TSO_CHECK(query(100).status().code() == StatusCode::kDeadlineExceeded);
  }
  failpoint::Disarm("serve.query");
  constexpr uint64_t kRecoveryQueries = 100;
  for (uint64_t i = 0; i < kRecoveryQueries; ++i) {
    TSO_CHECK_OK(query(0).status());
  }

  const ServeEngine::Stats shed_stats = shed_engine.stats();
  const ServeEngine::Stats deadline_stats = deadline_engine.stats();
  TSO_CHECK(shed_stats.shed == kShedQueries);
  TSO_CHECK(deadline_stats.deadline_exceeded == kDeadlineQueries);
  TSO_CHECK(deadline_stats.health == ServeHealth::kServing);
  BenchJson(bench)
      .Str("workload", workload)
      .Int("shed", shed_stats.shed)
      .Int("deadline_exceeded", deadline_stats.deadline_exceeded)
      .Int("recovered", kRecoveryQueries)
      .Str("health", ServeHealthName(deadline_stats.health))
      .Emit();
}

int Run() {
  const uint64_t seed = 42;
  // More POIs than the figure benches: the kNN workload shards its candidate
  // scan over POIs, and the engine only spawns a worker per 64 candidates.
  StatusOr<Dataset> ds = MakePaperDataset(PaperDataset::kSanFranciscoSmall,
                                          Scaled(1000), Scaled(400), seed);
  TSO_CHECK(ds.ok());

  MmpSolver solver(*ds->mesh);
  SeOracleOptions options = ParallelSeOptions(*ds->mesh, 0.1, seed);
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*ds->mesh, ds->pois, solver, options, nullptr);
  TSO_CHECK(oracle.ok());

  Rng qrng(seed + 7);
  const size_t num_queries = Scaled(200000);
  const auto pairs = MakeQueryPairs(ds->n(), num_queries, qrng);

  // --- Workload 1: P2P distance batches ---
  double base_qps = 0.0;
  for (uint32_t threads : ThreadCounts()) {
    WallTimer timer;
    StatusOr<std::vector<double>> answers =
        DistanceBatch(MakeSource(*oracle), pairs, threads);
    const double seconds = timer.ElapsedSeconds();
    TSO_CHECK(answers.ok());
    const double qps = pairs.size() / seconds;
    if (threads == 1) base_qps = qps;
    const double speedup = qps / base_qps;
    EmitJson("p2p", threads, pairs.size(), seconds, qps, speedup);
  }

  // --- Workload 1b: serial per-query latency distribution ---
  // One query at a time through a reused QueryScratch, each timed into the
  // HDR-style histogram (base/histogram.h, ~3% relative error). Aggregate
  // QPS hides the tail; the gated number here is the p99 ceiling.
  {
    const size_t lat_queries = std::min<size_t>(pairs.size(), Scaled(20000));
    const DistanceSource lat_source = MakeSource(*oracle);
    QueryScratch lat_scratch;
    LatencyHistogram hist;
    for (size_t i = 0; i < lat_queries; ++i) {
      const auto start = std::chrono::steady_clock::now();
      StatusOr<double> d =
          lat_source.Distance(pairs[i].first, pairs[i].second, lat_scratch);
      const auto stop = std::chrono::steady_clock::now();
      TSO_CHECK(d.ok());
      hist.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
              .count()));
    }
    BenchJson("throughput")
        .Str("workload", "p2p_latency")
        .Int("queries", lat_queries)
        .Int("p50_ns", hist.Percentile(50.0))
        .Int("p95_ns", hist.Percentile(95.0))
        .Int("p99_ns", hist.Percentile(99.0))
        .Int("max_ns", hist.max())
        .Emit();
  }

  // --- Workload 1c: deterministic probe counters ---
  // The same serial sweep under a ProbeCounterScope, then serial k = 10
  // kNN queries from the first POIs. Each P2P query probes its §3.4
  // candidates from the leaf layer up and stops at the first stored pair,
  // so the counts depend only on the oracle and the query prefixes — the
  // CI gate pins them with zero tolerance.
  {
    const size_t pc_queries = std::min<size_t>(pairs.size(), Scaled(20000));
    const uint32_t pc_knn_queries = std::min<uint32_t>(ds->n(), 20);
    const DistanceSource pc_source = MakeSource(*oracle);
    ProbeCounters counters;
    {
      ProbeCounterScope scope(&counters);
      QueryScratch pc_scratch;
      for (size_t i = 0; i < pc_queries; ++i) {
        TSO_CHECK(
            pc_source.Distance(pairs[i].first, pairs[i].second, pc_scratch)
                .ok());
      }
    }
    ProbeCounters knn_counters;
    {
      ProbeCounterScope scope(&knn_counters);
      for (uint32_t q = 0; q < pc_knn_queries; ++q) {
        TSO_CHECK(KnnQuery(pc_source, q, 10).ok());
      }
    }
    BenchJson("throughput")
        .Str("workload", "probe_counters")
        .Int("queries", pc_queries)
        .Int("probes", counters.probes)
        .Int("hits", counters.hits)
        .Int("prefetches", counters.prefetches)
        .Int("knn_queries", pc_knn_queries)
        .Int("knn_probes", knn_counters.probes)
        .Emit();
  }

  // --- Workload 2: kNN with the candidate scan sharded over POIs ---
  // Every POI queries its 10 nearest neighbours; repeated so each timed run
  // is long enough to measure.
  const size_t knn_repeats = std::max<size_t>(1, Scaled(200));
  base_qps = 0.0;
  for (uint32_t threads : ThreadCounts()) {
    WallTimer timer;
    for (size_t r = 0; r < knn_repeats; ++r) {
      for (uint32_t q = 0; q < ds->n(); ++q) {
        StatusOr<std::vector<KnnResult>> res =
            KnnQueryParallel(MakeSource(*oracle), q, 10, threads);
        TSO_CHECK(res.ok());
      }
    }
    const double seconds = timer.ElapsedSeconds();
    const size_t total = knn_repeats * ds->n();
    const double qps = total / seconds;
    if (threads == 1) base_qps = qps;
    const double speedup = qps / base_qps;
    EmitJson("knn10", threads, total, seconds, qps, speedup);
  }

  // --- Workload 3: multi-shard oracle pack serving ---
  // The serving-tier representation: the same oracle resharded into a
  // 4-shard pack. Open cost (full structural validation of the frame plus
  // every shard) and routed P2P throughput are both gated — sharding must
  // not tax the query path (the router adds one array index per probe).
  PackBuildOptions pack_options;
  pack_options.num_shards = 4;
  StatusOr<std::string> pack_bytes =
      SerializeOraclePack(*oracle, pack_options);
  TSO_CHECK(pack_bytes.ok());

  const size_t open_iters = std::max<size_t>(1, Scaled(200));
  WallTimer open_timer;
  for (size_t i = 0; i < open_iters; ++i) {
    StatusOr<PackView> reopened = PackView::FromBuffer(*pack_bytes);
    TSO_CHECK(reopened.ok());
  }
  const double open_seconds = open_timer.ElapsedSeconds() / open_iters;
  BenchJson("throughput")
      .Str("workload", "pack_open")
      .Int("shards", pack_options.num_shards)
      .Int("opens", open_iters)
      .Int("bytes", pack_bytes->size())
      .Num("open_seconds", open_seconds, 8)
      .Emit();

  StatusOr<PackView> pack = PackView::FromBuffer(*pack_bytes);
  TSO_CHECK(pack.ok());
  base_qps = 0.0;
  for (uint32_t threads : ThreadCounts()) {
    WallTimer timer;
    StatusOr<std::vector<double>> answers =
        DistanceBatch(MakeSource(*pack), pairs, threads);
    const double seconds = timer.ElapsedSeconds();
    TSO_CHECK(answers.ok());
    const double qps = pairs.size() / seconds;
    if (threads == 1) base_qps = qps;
    const double speedup = qps / base_qps;
    BenchJson("throughput")
        .Str("workload", "pack_p2p")
        .Int("shards", pack_options.num_shards)
        .Int("threads", threads)
        .Int("queries", pairs.size())
        .Num("seconds", seconds, 6)
        .Num("qps", qps, 1)
        .Num("speedup", speedup, 3)
        .Emit();
  }

  // --- Workload 4: mixed read/write over the dynamic oracle ---
  // A single writer drives a deterministic insert/remove script (every 4th
  // op tombstones the oldest live insert) through the log-structured
  // DynamicSeOracle while 4 readers sweep P2P distances through pinned
  // snapshots. The op script is single-writer, so the insert/remove/
  // compaction counters are exactly reproducible at a fixed scale — the CI
  // gate pins them with zero tolerance; only the read throughput gets a
  // loose wall-clock floor. Each reader reads until the writer's script
  // ends, and at least `reads_per_thread` times, so the reads price
  // sustained churn; each reader times itself, and `qps` divides all reads
  // by the slowest reader's time.
  const uint32_t dyn_base_n = std::min<uint32_t>(ds->n(), Scaled(200));
  std::vector<SurfacePoint> dyn_base(ds->pois.begin(),
                                     ds->pois.begin() + dyn_base_n);
  DijkstraSolver dyn_solver(*ds->mesh);
  DynamicOracleOptions dyn_options;
  dyn_options.base.epsilon = 0.25;
  dyn_options.max_delta = 16;
  StatusOr<std::unique_ptr<DynamicSeOracle>> dyn_built =
      DynamicSeOracle::Create(*ds->mesh, dyn_base, dyn_solver, dyn_options);
  TSO_CHECK(dyn_built.ok());
  DynamicSeOracle& dyn = **dyn_built;

  const size_t dyn_ops = Scaled(400);
  Rng drng(seed + 9);
  std::vector<SurfacePoint> dyn_pool =
      GenerateUniformPois(*ds->mesh, *ds->locator, dyn_ops, drng);

  constexpr uint32_t kDynReaders = 4;
  const size_t reads_per_thread = Scaled(40000);
  std::atomic<uint64_t> dyn_bad{0};
  std::atomic<bool> writer_done{false};
  std::vector<double> reader_seconds(kDynReaders);
  std::vector<size_t> reader_reads(kDynReaders);
  std::vector<std::thread> dyn_readers;
  dyn_readers.reserve(kDynReaders);
  for (uint32_t r = 0; r < kDynReaders; ++r) {
    dyn_readers.emplace_back([&dyn, &dyn_bad, &writer_done, &reader_seconds,
                              &reader_reads, reads_per_thread, r]() {
      WallTimer reader_timer;
      uint64_t lcg = 0x9e3779b97f4a7c15ull + r;
      size_t i = 0;
      for (; i < reads_per_thread ||
             !writer_done.load(std::memory_order_acquire);
           ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        DynamicSeOracle::PinnedSource pinned = dyn.Pin();
        const uint32_t n =
            static_cast<uint32_t>(pinned.snapshot().num_ids());
        const uint32_t s = static_cast<uint32_t>((lcg >> 33) % n);
        const uint32_t t = static_cast<uint32_t>((lcg >> 13) % n);
        StatusOr<double> d = pinned.source().Distance(s, t);
        // NotFound is a correct answer for a tombstoned id; anything else
        // failing is a real error.
        if (!d.ok() && d.status().code() != StatusCode::kNotFound) {
          dyn_bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
      reader_seconds[r] = reader_timer.ElapsedSeconds();
      reader_reads[r] = i;
    });
  }

  WallTimer writer_timer;
  size_t pool_next = 0;
  std::deque<uint32_t> dyn_live;
  for (size_t op = 0; op < dyn_ops; ++op) {
    if (op % 4 == 3 && !dyn_live.empty()) {
      TSO_CHECK_OK(dyn.Remove(dyn_live.front()));
      dyn_live.pop_front();
    } else {
      StatusOr<uint32_t> id = dyn.Insert(dyn_pool[pool_next++]);
      TSO_CHECK(id.ok());
      dyn_live.push_back(*id);
    }
  }
  const double writer_seconds = writer_timer.ElapsedSeconds();
  writer_done.store(true, std::memory_order_release);
  for (std::thread& reader : dyn_readers) reader.join();
  const double dyn_seconds =
      *std::max_element(reader_seconds.begin(), reader_seconds.end());
  TSO_CHECK(dyn_bad.load() == 0);

  const DynamicStats dyn_stats = dyn.stats();
  size_t dyn_reads = 0;
  for (size_t reads : reader_reads) dyn_reads += reads;
  const double dyn_qps = dyn_reads / dyn_seconds;
  BenchJson("throughput")
      .Str("workload", "dyn_mixed")
      .Int("threads", kDynReaders)
      .Int("queries", dyn_reads)
      .Int("ops", dyn_ops)
      .Int("inserts", dyn_stats.inserts)
      .Int("removes", dyn_stats.removes)
      .Int("compactions", dyn_stats.compactions)
      .Num("seconds", dyn_seconds, 6)
      .Num("qps", dyn_qps, 1)
      .Num("writer_seconds", writer_seconds, 6)
      .Emit();

  // The pack on disk, served by both workloads below.
  const std::string serve_path =
      (std::filesystem::temp_directory_path() / "tso_bench_serve.tsop")
          .string();
  TSO_CHECK_OK(WriteFileAtomic(serve_path, *pack_bytes));

  // --- Workload 5: the pack served over loopback TCP ---
  const uint64_t net_mismatches = RunNetWorkloads(serve_path, pairs);

  // --- Workload 6: overload shedding and deadline enforcement ---
  // The same script in process and over the wire.
  RunOverloadScript("throughput", "overload", serve_path,
                    [](ServeEngine& engine) {
                      return [&engine](uint64_t deadline_us) {
                        QueryOptions options;
                        options.deadline =
                            std::chrono::microseconds(deadline_us);
                        return engine.Distance(0, 1, options);
                      };
                    });
  RunOverloadScript("serve", "net_overload", serve_path,
                    [](ServeEngine& engine) {
                      auto wire = std::make_unique<LoopbackConnection>(engine);
                      return [wire = std::move(wire)](uint64_t deadline_us) {
                        return wire->client.Distance(0, 1, deadline_us);
                      };
                    });
  std::filesystem::remove(serve_path);

  if (net_mismatches != 0) {
    std::fprintf(stderr,
                 "bench_throughput: %llu answers over the wire differ from "
                 "the in-process engine\n",
                 static_cast<unsigned long long>(net_mismatches));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tso::bench

int main() { return tso::bench::Run(); }
