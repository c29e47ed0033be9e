// The serving tier: ServeEngine must route the full query surface through
// whichever oracle (flat file or multi-shard pack) is currently published,
// bit-identically to the monolithic oracle; a failed Load() must leave the
// previous generation serving; and — the tentpole — Load() under a
// multi-threaded query hammer must complete every query successfully with
// correct answers and no use-after-unmap. The hammer is the TSan target
// (CI runs this suite under -fsanitize=thread).

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/metrics.h"
#include "dyn/dynamic_oracle.h"
#include "geodesic/dijkstra_solver.h"
#include "oracle/oracle_serde.h"
#include "oracle/pack_view.h"
#include "serve/engine.h"
#include "terrain/dataset.h"
#include "terrain/poi_generator.h"

namespace tso {
namespace {

struct ServeFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<DijkstraSolver> solver;
  std::unique_ptr<SeOracle> oracle;
  std::string flat_path;
  std::string pack2_path;
  std::string pack4_path;

  ServeFixture()
      : ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 24, 7)) {
    TSO_CHECK(ds.ok());
    solver = std::make_unique<DijkstraSolver>(*ds->mesh);
    SeOracleOptions options;
    options.epsilon = 0.25;
    StatusOr<SeOracle> built =
        SeOracle::Build(*ds->mesh, ds->pois, *solver, options, nullptr);
    TSO_CHECK(built.ok());
    oracle = std::make_unique<SeOracle>(std::move(*built));

    flat_path = ::testing::TempDir() + "/serve_flat.tso";
    TSO_CHECK(SaveSeOracleFlat(*oracle, flat_path).ok());
    pack2_path = ::testing::TempDir() + "/serve_pack2.tsop";
    pack4_path = ::testing::TempDir() + "/serve_pack4.tsop";
    PackBuildOptions pack;
    pack.num_shards = 2;
    TSO_CHECK(SaveOraclePack(*oracle, pack, pack2_path).ok());
    pack.num_shards = 4;
    pack.policy = PackPolicy::kGeo;
    TSO_CHECK(SaveOraclePack(*oracle, pack, pack4_path).ok());
  }
};

ServeFixture& Fixture() {
  static ServeFixture* fx = new ServeFixture();
  return *fx;
}

TEST(ServeEngine, UnloadedEngineFailsCleanly) {
  ServeEngine engine;
  EXPECT_FALSE(engine.loaded());
  EXPECT_EQ(engine.Distance(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  const std::vector<std::pair<uint32_t, uint32_t>> queries = {{0, 1}};
  EXPECT_EQ(engine.Batch(queries).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Knn(0, 3).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Range(0, 1.0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.stats().num_shards, 0u);
}

TEST(ServeEngine, ServesFlatOracleBitIdentically) {
  const SeOracle& oracle = *Fixture().oracle;
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(Fixture().flat_path).ok());
  EXPECT_TRUE(engine.loaded());
  const uint32_t n = static_cast<uint32_t>(oracle.num_pois());
  for (uint32_t s = 0; s < n; s += 3) {
    for (uint32_t t = 0; t < n; t += 7) {
      ASSERT_EQ(*engine.Distance(s, t), *oracle.Distance(s, t));
    }
  }
  const ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.num_shards, 1u);
  EXPECT_EQ(stats.num_pois, oracle.num_pois());
  EXPECT_GT(stats.mapped_bytes, 0u);
}

TEST(ServeEngine, ServesPackAcrossFullQuerySurface) {
  const SeOracle& oracle = *Fixture().oracle;
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(Fixture().pack4_path).ok());
  EXPECT_EQ(engine.stats().num_shards, 4u);
  const uint32_t n = static_cast<uint32_t>(oracle.num_pois());

  for (uint32_t q = 0; q < n; q += 5) {
    StatusOr<std::vector<KnnResult>> mono = KnnQuery(MakeSource(oracle), q, 5);
    StatusOr<std::vector<KnnResult>> served = engine.Knn(q, 5);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(mono->size(), served->size());
    for (size_t i = 0; i < mono->size(); ++i) {
      EXPECT_EQ((*mono)[i].poi, (*served)[i].poi);
      EXPECT_EQ((*mono)[i].distance, (*served)[i].distance);
    }

    const double radius = *oracle.Distance(q, (q + 1) % n) * 1.5;
    StatusOr<std::vector<uint32_t>> range = engine.Range(q, radius);
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(*RangeQuery(MakeSource(oracle), q, radius), *range);
  }

  std::vector<std::pair<uint32_t, uint32_t>> queries;
  for (uint32_t i = 0; i < n; ++i) {
    queries.emplace_back(i, (i * 11 + 5) % n);
  }
  StatusOr<std::vector<double>> served = engine.Batch(queries, 4);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(*DistanceBatch(MakeSource(oracle), queries, 4), *served);
}

TEST(ServeEngine, FailedLoadKeepsPreviousGenerationServing) {
  ServeEngine engine;
  // A failed initial load leaves the engine unloaded.
  EXPECT_FALSE(engine.Load(::testing::TempDir() + "/does_not_exist").ok());
  EXPECT_FALSE(engine.loaded());

  ASSERT_TRUE(engine.Load(Fixture().pack2_path).ok());
  const double before = *engine.Distance(1, 2);

  // Missing file, garbage file, truncated pack: each fails with a clean
  // Status and the published generation keeps answering.
  EXPECT_FALSE(engine.Load(::testing::TempDir() + "/does_not_exist").ok());

  const std::string garbage_path = ::testing::TempDir() + "/serve_garbage";
  std::ofstream(garbage_path) << "not an oracle";
  EXPECT_FALSE(engine.Load(garbage_path).ok());

  std::ifstream in(Fixture().pack2_path, std::ios::binary);
  std::string pack_bytes((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string truncated_path = ::testing::TempDir() + "/serve_trunc";
  std::ofstream(truncated_path, std::ios::binary)
      << pack_bytes.substr(0, pack_bytes.size() / 2);
  EXPECT_FALSE(engine.Load(truncated_path).ok());

  EXPECT_TRUE(engine.loaded());
  EXPECT_EQ(*engine.Distance(1, 2), before);
  EXPECT_EQ(engine.stats().reloads, 1u);
  std::remove(garbage_path.c_str());
  std::remove(truncated_path.c_str());
}

// A failed load must tell the operator WHICH file failed and WHY — a bare
// "checksum mismatch" from a fleet reloading dozens of shards is
// undebuggable.
TEST(ServeEngine, LoadErrorsCarryPathAndRootCause) {
  ServeEngine engine;

  const std::string missing = ::testing::TempDir() + "/serve_path_missing";
  Status status = engine.Load(missing);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(missing), std::string::npos)
      << status.ToString();

  // A corrupt flat file: path plus the structural root cause.
  std::ifstream in(Fixture().flat_path, std::ios::binary);
  std::string flat_bytes((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  flat_bytes[sizeof(uint64_t)] ^= 0x7f;  // clobber the endian tag
  const std::string bad_flat = ::testing::TempDir() + "/serve_path_badflat";
  std::ofstream(bad_flat, std::ios::binary) << flat_bytes;
  status = engine.Load(bad_flat);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(bad_flat), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("flat oracle"), std::string::npos)
      << status.ToString();

  // A truncated pack: the pack-format error, again with the path.
  std::ifstream pin(Fixture().pack2_path, std::ios::binary);
  std::string pack_bytes((std::istreambuf_iterator<char>(pin)),
                         std::istreambuf_iterator<char>());
  const std::string bad_pack = ::testing::TempDir() + "/serve_path_badpack";
  std::ofstream(bad_pack, std::ios::binary)
      << pack_bytes.substr(0, pack_bytes.size() - 64);
  status = engine.Load(bad_pack);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(bad_pack), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("pack"), std::string::npos)
      << status.ToString();

  // The direct view opens annotate identically (the engine only forwards).
  EXPECT_NE(OracleView::Open(bad_flat).status().message().find(bad_flat),
            std::string::npos);
  EXPECT_NE(PackView::Open(bad_pack).status().message().find(bad_pack),
            std::string::npos);

  std::remove(bad_flat.c_str());
  std::remove(bad_pack.c_str());
}

TEST(ServeEngine, ReloadSwitchesGenerations) {
  const SeOracle& oracle = *Fixture().oracle;
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(Fixture().flat_path).ok());
  EXPECT_EQ(engine.stats().num_shards, 1u);
  ASSERT_TRUE(engine.Load(Fixture().pack2_path).ok());
  EXPECT_EQ(engine.stats().num_shards, 2u);
  ASSERT_TRUE(engine.Load(Fixture().pack4_path).ok());
  EXPECT_EQ(engine.stats().num_shards, 4u);
  EXPECT_EQ(engine.stats().reloads, 3u);
  // Answers are representation-independent.
  EXPECT_EQ(*engine.Distance(2, 9), *oracle.Distance(2, 9));
}

// The tentpole criterion: 8 reader threads hammer the query surface while
// the main thread republishes the mapping in a tight loop, alternating
// between a 2-shard and a 4-shard pack of the same oracle. Every query must
// succeed with the bit-exact monolithic answer — a reload is invisible to
// readers except through stats. Run under TSan, this also proves the epoch
// protocol publishes/reclaims correctly (no use-after-munmap).
TEST(ServeEngine, HotReloadHammerZeroFailedQueries) {
  const SeOracle& oracle = *Fixture().oracle;
  const uint32_t n = static_cast<uint32_t>(oracle.num_pois());

  // Precompute expected answers so readers don't serialize on the
  // monolithic oracle while hammering.
  std::vector<double> expected(static_cast<size_t>(n) * n);
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      expected[static_cast<size_t>(s) * n + t] = *oracle.Distance(s, t);
    }
  }

  ServeEngine engine;
  ASSERT_TRUE(engine.Load(Fixture().pack2_path).ok());

  constexpr int kReaders = 8;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> ok_queries{0};
  std::atomic<uint64_t> failed_queries{0};
  std::atomic<uint64_t> wrong_answers{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      uint32_t x = static_cast<uint32_t>(r) * 2654435761u + 1;
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        x = x * 1664525u + 1013904223u;  // LCG: cheap per-thread stream
        const uint32_t s = (x >> 16) % n;
        const uint32_t t = (x >> 4) % n;
        StatusOr<double> got = engine.Distance(s, t);
        if (!got.ok()) {
          failed_queries.fetch_add(1, std::memory_order_relaxed);
        } else if (*got != expected[static_cast<size_t>(s) * n + t]) {
          wrong_answers.fetch_add(1, std::memory_order_relaxed);
        } else {
          ok_queries.fetch_add(1, std::memory_order_relaxed);
        }
        // Every 256 queries, a small batch: exercises the guard spanning
        // worker threads during a reload.
        if ((x & 0xff) == 0) {
          const std::vector<std::pair<uint32_t, uint32_t>> queries = {
              {s, t}, {t, s}, {s, s}};
          StatusOr<std::vector<double>> batch = engine.Batch(queries, 2);
          if (!batch.ok()) {
            failed_queries.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (first) {
          first = false;
          started.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  // Don't start swapping until every reader has completed a query, so the
  // hammer genuinely overlaps reloads with in-flight reads.
  while (started.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  constexpr int kReloads = 200;
  for (int i = 0; i < kReloads; ++i) {
    const std::string& path =
        (i % 2 == 0) ? Fixture().pack4_path : Fixture().pack2_path;
    ASSERT_TRUE(engine.Load(path).ok()) << "reload " << i;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failed_queries.load(), 0u);
  EXPECT_EQ(wrong_answers.load(), 0u);
  EXPECT_GT(ok_queries.load(), 0u);
  const ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.reloads, 1u + kReloads);
  // Every retired generation either has been reclaimed already or is
  // pending (bounded garbage), never leaked silently.
  EXPECT_EQ(stats.epoch.retired, stats.epoch.reclaimed + stats.epoch.pending);
}

// A hosted mutable generation serves the full query surface and reports
// dynamic stats; a later Load() of a mapped file replaces it.
TEST(ServeEngine, HostsDynamicGeneration) {
  ServeFixture& fx = Fixture();
  const TerrainMesh& mesh = *fx.ds->mesh;
  DijkstraSolver solver(mesh);
  DynamicOracleOptions options;
  options.base.epsilon = 0.25;
  StatusOr<std::unique_ptr<DynamicSeOracle>> built =
      DynamicSeOracle::Create(mesh, fx.ds->pois, solver, options);
  ASSERT_TRUE(built.ok());
  std::shared_ptr<DynamicSeOracle> dyn = std::move(*built);

  ServeEngine engine;
  EXPECT_EQ(engine.Host(nullptr).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.Host(dyn).ok());
  EXPECT_TRUE(engine.loaded());
  EXPECT_EQ(*engine.Distance(1, 2), *fx.oracle->Distance(1, 2));
  ASSERT_TRUE(engine.Knn(3, 5).ok());
  ASSERT_TRUE(engine.Range(3, *fx.oracle->Distance(3, 4) * 1.5).ok());

  const ServeEngine::Stats stats = engine.stats();
  EXPECT_TRUE(stats.dynamic);
  EXPECT_EQ(stats.num_pois, fx.ds->n());
  EXPECT_EQ(stats.num_shards, 1u);
  EXPECT_EQ(stats.reloads, 1u);

  // A mutation through the owner is visible through the engine.
  Rng rng(11);
  std::vector<SurfacePoint> extra =
      GenerateUniformPois(mesh, *fx.ds->locator, 1, rng);
  StatusOr<uint32_t> id = dyn->Insert(extra[0]);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(engine.Distance(0, *id).ok());
  EXPECT_EQ(engine.stats().num_pois, fx.ds->n() + 1);

  // Swapping back to a mapped generation retires the hosted one; the owner's
  // handle keeps working.
  ASSERT_TRUE(engine.Load(fx.flat_path).ok());
  EXPECT_FALSE(engine.stats().dynamic);
  EXPECT_FALSE(engine.Distance(0, *id).ok());  // static gen: id out of range
  EXPECT_TRUE(dyn->Distance(0, *id).ok());
}

// The satellite criterion: Load() failures while a writer thread is actively
// mutating the hosted dynamic generation. Every failed load must leave the
// dynamic generation serving (and mutating) undisturbed; a successful load
// must swap it out without tripping the writer.
TEST(ServeEngine, LoadFailureWhileWriterActive) {
  ServeFixture& fx = Fixture();
  const TerrainMesh& mesh = *fx.ds->mesh;
  DijkstraSolver solver(mesh);
  DynamicOracleOptions options;
  options.base.epsilon = 0.25;
  options.max_delta = 4;
  options.solver_factory = [&mesh]() {
    return std::unique_ptr<GeodesicSolver>(new DijkstraSolver(mesh));
  };
  StatusOr<std::unique_ptr<DynamicSeOracle>> built =
      DynamicSeOracle::Create(mesh, fx.ds->pois, solver, options);
  ASSERT_TRUE(built.ok());
  std::shared_ptr<DynamicSeOracle> dyn = std::move(*built);

  ServeEngine engine;
  ASSERT_TRUE(engine.Host(dyn).ok());

  constexpr size_t kChurn = 60;
  Rng rng(23);
  std::vector<SurfacePoint> pool =
      GenerateUniformPois(mesh, *fx.ds->locator, kChurn, rng);
  std::atomic<bool> writer_done{false};
  std::atomic<size_t> writer_failures{0};
  std::thread writer([&]() {
    std::vector<uint32_t> own;
    for (const SurfacePoint& p : pool) {
      StatusOr<uint32_t> id = dyn->Insert(p);
      if (!id.ok()) {
        ++writer_failures;
        continue;
      }
      own.push_back(*id);
      if (own.size() > 4) {
        if (!dyn->Remove(own.front()).ok()) ++writer_failures;
        own.erase(own.begin());
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  const std::string garbage_path = ::testing::TempDir() + "/serve_dyn_garbage";
  std::ofstream(garbage_path) << "not an oracle";
  size_t failed_loads = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    // Both failure shapes: missing file and header-rejected garbage.
    EXPECT_FALSE(engine.Load(::testing::TempDir() + "/does_not_exist").ok());
    EXPECT_FALSE(engine.Load(garbage_path).ok());
    failed_loads += 2;
    // The dynamic generation still serves between failed swap attempts.
    ASSERT_TRUE(engine.Distance(1, 2).ok());
    EXPECT_TRUE(engine.stats().dynamic);
  }
  writer.join();
  std::remove(garbage_path.c_str());

  EXPECT_EQ(writer_failures.load(), 0u);
  EXPECT_GE(failed_loads, 2u);
  EXPECT_EQ(engine.stats().reloads, 1u);  // failed loads don't count

  // A successful load after the churn swaps the writer's generation out
  // cleanly; the owner handle still answers with the churned POI set.
  ASSERT_TRUE(engine.Load(fx.flat_path).ok());
  EXPECT_FALSE(engine.stats().dynamic);
  EXPECT_EQ(engine.stats().reloads, 2u);
  EXPECT_EQ(*engine.Distance(1, 2), *fx.oracle->Distance(1, 2));
  DynamicStats ds = dyn->stats();
  EXPECT_EQ(ds.inserts, kChurn);
  EXPECT_EQ(ds.live_pois, fx.ds->n() + 4);
  EXPECT_TRUE(dyn->Compact().ok());
}

// Per-query counters are per-thread shards summed when read: under
// concurrency every increment must land exactly once, and a decrement on
// the same thread must cancel its increment even though the cell wraps.
TEST(ShardedCounter, SumsAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr uint64_t kAdds = 100000;
  ShardedCounter counter;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&counter]() {
      for (uint64_t j = 0; j < kAdds; ++j) {
        counter.Add();
        // A balanced +1/-1 pair, as an admission slot is taken and given
        // back, leaves the sum unchanged.
        counter.Add();
        counter.Sub();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Sum(), kThreads * kAdds);
  // A decrement with no matching increment on its thread still sums
  // exactly: the cell wraps modulo 2^64 and the sum wraps back.
  std::thread([&counter]() { counter.Sub(5); }).join();
  EXPECT_EQ(counter.Sum(), kThreads * kAdds - 5);
  counter.Add(5);
  EXPECT_EQ(counter.Sum(), kThreads * kAdds);
}

TEST(ServeEngine, StatsCountEveryQueryAcrossThreads) {
  const ServeFixture& fx = Fixture();
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(fx.flat_path).ok());
  const uint64_t before = engine.stats().queries;
  constexpr int kThreads = 4;
  constexpr uint32_t kQueries = 10000;
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i]() {
      for (uint32_t q = 0; q < kQueries; ++q) {
        if (!engine.Distance((q + i) % n, (q * 7 + 1) % n).ok()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(stats.queries - before, uint64_t{kThreads} * kQueries);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

}  // namespace
}  // namespace tso
