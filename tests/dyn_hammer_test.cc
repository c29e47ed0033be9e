// The dynamic-oracle hammer (the TSan CI target for the mutable stack):
// 6 reader threads sweep random stable-id pairs through pinned snapshots
// while 2 writer threads churn inserts/removes hard enough to force
// hundreds of publishes and >100 background compactions. Readers must
// never observe a failed or torn answer; after the writers quiesce, a final
// compaction must leave the oracle bit-identical to a from-scratch static
// build over the surviving POI set.

#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "dyn/dynamic_oracle.h"
#include "geodesic/dijkstra_solver.h"
#include "terrain/dataset.h"
#include "terrain/poi_generator.h"

namespace tso {
namespace {

constexpr uint32_t kReaders = 6;
constexpr uint32_t kWriters = 2;
constexpr size_t kInsertsPerWriter = 500;
constexpr size_t kLivePerWriter = 6;  // sliding window of own inserts

TEST(DynHammer, ReadWriteCompactHammer) {
  StatusOr<Dataset> ds =
      MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 24, 37);
  ASSERT_TRUE(ds.ok());
  const TerrainMesh& mesh = *ds->mesh;
  DijkstraSolver solver(mesh);

  DynamicOracleOptions options;
  options.base.epsilon = 0.2;
  options.max_delta = 4;  // compact roughly every 5 inserts
  options.solver_factory = [&mesh]() {
    return std::unique_ptr<GeodesicSolver>(new DijkstraSolver(mesh));
  };
  StatusOr<std::unique_ptr<DynamicSeOracle>> built =
      DynamicSeOracle::Create(mesh, ds->pois, solver, options);
  ASSERT_TRUE(built.ok());
  DynamicSeOracle& dyn = **built;

  // Pre-generate each writer's insert pool so worker threads never touch
  // the (non-thread-safe) point locator.
  std::vector<std::vector<SurfacePoint>> pools(kWriters);
  for (uint32_t w = 0; w < kWriters; ++w) {
    Rng rng(100 + w);
    pools[w] =
        GenerateUniformPois(mesh, *ds->locator, kInsertsPerWriter, rng);
  }

  std::atomic<uint32_t> writers_running{kWriters};
  std::atomic<size_t> write_failures{0};
  std::atomic<size_t> read_failures{0};
  std::atomic<size_t> wrong_answers{0};
  std::atomic<size_t> reads_done{0};

  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w]() {
      std::deque<uint32_t> own;
      size_t ops = 0;
      for (const SurfacePoint& p : pools[w]) {
        StatusOr<uint32_t> id = dyn.Insert(p);
        if (!id.ok()) {
          ++write_failures;
          continue;
        }
        own.push_back(*id);
        if (own.size() > kLivePerWriter) {
          if (!dyn.Remove(own.front()).ok()) ++write_failures;
          own.pop_front();
        }
        // Force a blocking compaction every 5th insert so the hammer always
        // crosses the >=100 compaction bar, however the automatic
        // (try-lock, best-effort) trigger is scheduled.
        if (++ops % 5 == 0 && !dyn.Compact().ok()) ++write_failures;
      }
      writers_running.fetch_sub(1);
    });
  }

  for (uint32_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r]() {
      uint64_t lcg = 0x9e3779b97f4a7c15ull + r;
      auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
      };
      while (writers_running.load(std::memory_order_acquire) > 0) {
        // The strong consistency probe: everything below runs against ONE
        // pinned immutable snapshot, so liveness seen through the pin must
        // agree exactly with the answer from the pin's source.
        DynamicSeOracle::PinnedSource pinned = dyn.Pin();
        const DynamicSnapshot& snap = pinned.snapshot();
        const uint32_t n = static_cast<uint32_t>(snap.num_ids());
        const uint32_t s = static_cast<uint32_t>(next() % n);
        const uint32_t t = static_cast<uint32_t>(next() % n);
        StatusOr<double> d = pinned.source().Distance(s, t);
        if (snap.IsLive(s) && snap.IsLive(t)) {
          if (!d.ok()) {
            ++read_failures;
          } else if (!(std::isfinite(*d) && *d >= 0.0)) {
            ++wrong_answers;
          }
        } else if (d.ok() || d.status().code() != StatusCode::kNotFound) {
          ++wrong_answers;  // dead id must answer NotFound, nothing else
        }
        // Base POIs are never removed by the writers: kNN from one must
        // always succeed, whatever generation is current.
        if (reads_done.fetch_add(1, std::memory_order_relaxed) % 64 == 0) {
          StatusOr<std::vector<KnnResult>> knn =
              KnnQuery(pinned.source(), 3, 5);
          if (!knn.ok() || knn->size() != 5u) ++read_failures;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(write_failures.load(), 0u);
  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_EQ(wrong_answers.load(), 0u);
  EXPECT_GT(reads_done.load(), 0u);

  DynamicStats mid = dyn.stats();
  EXPECT_GE(mid.compactions, 100u) << "churn did not exercise compaction";
  EXPECT_EQ(mid.inserts, kWriters * kInsertsPerWriter);
  // Each writer keeps exactly its last kLivePerWriter inserts live.
  EXPECT_EQ(mid.live_pois, ds->n() + kWriters * kLivePerWriter);

  // Quiesce + final compaction, then the bit-identical sweep: the dynamic
  // oracle must answer exactly like a from-scratch static build over the
  // survivors (ascending stable id — the canonical order Compact uses).
  ASSERT_TRUE(dyn.Compact().ok());
  std::vector<uint32_t> live;
  std::vector<SurfacePoint> survivors;
  for (uint32_t id = 0; id < dyn.num_ids(); ++id) {
    if (!dyn.IsLive(id)) continue;
    live.push_back(id);
    survivors.push_back(dyn.poi(id));
  }
  EXPECT_EQ(live.size(), ds->n() + kWriters * kLivePerWriter);
  DijkstraSolver fresh_solver(mesh);
  StatusOr<SeOracle> fresh =
      SeOracle::Build(mesh, survivors, fresh_solver, options.base);
  ASSERT_TRUE(fresh.ok());
  for (uint32_t i = 0; i < live.size(); ++i) {
    for (uint32_t j = 0; j < live.size(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(*dyn.Distance(live[i], live[j]), *fresh->Distance(i, j))
          << live[i] << "," << live[j];
    }
  }

  // Every retired generation is accounted for: nothing leaks, nothing is
  // reclaimed twice.
  DynamicStats fin = dyn.stats();
  EXPECT_EQ(fin.epoch.retired, fin.epoch.reclaimed + fin.epoch.pending);
  EXPECT_EQ(fin.live_pois, live.size());
}

// The fault-injection variant: while readers run the same pinned-snapshot
// consistency probe, error failpoints are pulsed on the write fold and the
// compaction publish paths. An injected failure may fail a WRITE, and a
// failed write is determinate — it changed nothing: a failed insert's id
// never goes live and a failed remove leaves its POI live. It must never
// fail a READ, tear a snapshot, or leave a successfully removed stable id
// answering: the failed fold publishes nothing and the failed compaction
// discards only its aside-built base.
TEST(DynHammer, InjectedMergeAndCompactFailuresAreInvisibleToReaders) {
  failpoint::DisarmAll();
  StatusOr<Dataset> ds =
      MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 20, 53);
  ASSERT_TRUE(ds.ok());
  const TerrainMesh& mesh = *ds->mesh;
  DijkstraSolver solver(mesh);

  DynamicOracleOptions options;
  options.base.epsilon = 0.25;
  options.max_delta = 4;
  options.solver_factory = [&mesh]() {
    return std::unique_ptr<GeodesicSolver>(new DijkstraSolver(mesh));
  };
  StatusOr<std::unique_ptr<DynamicSeOracle>> built =
      DynamicSeOracle::Create(mesh, ds->pois, solver, options);
  ASSERT_TRUE(built.ok());
  DynamicSeOracle& dyn = **built;

  constexpr size_t kInserts = 240;
  Rng rng(77);
  std::vector<SurfacePoint> pool =
      GenerateUniformPois(mesh, *ds->locator, kInserts, rng);

  std::atomic<bool> writer_done{false};
  std::atomic<size_t> injected_write_errors{0};
  std::atomic<size_t> unexpected_write_errors{0};
  std::atomic<size_t> stale_after_remove{0};
  std::atomic<size_t> read_failures{0};
  std::atomic<size_t> wrong_answers{0};
  std::vector<uint32_t> expect_live;  // writer-owned; read after join
  std::vector<uint32_t> expect_dead;
  size_t inserts_ok = 0;  // successful writes; writer-owned
  size_t removes_ok = 0;

  auto injected = [](const Status& status) {
    return status.message().find("failpoint") != std::string::npos;
  };

  std::thread writer([&]() {
    std::deque<uint32_t> window;
    size_t ops = 0;
    for (const SurfacePoint& p : pool) {
      StatusOr<uint32_t> id = dyn.Insert(p);
      if (!id.ok()) {
        // A failed insert publishes nothing. Only unexpected (non-injected)
        // errors count against the test.
        if (!injected(id.status())) ++unexpected_write_errors;
        continue;
      }
      ++inserts_ok;
      window.push_back(*id);
      if (window.size() > 5) {
        const uint32_t victim = window.front();
        window.pop_front();
        const Status removed = dyn.Remove(victim);
        if (removed.ok()) {
          ++removes_ok;
          expect_dead.push_back(victim);
          // The stale-id probe: a successful Remove must be immediately
          // visible — the id answers NotFound from this moment on.
          StatusOr<double> gone = dyn.Distance(victim, 0);
          if (gone.ok() || gone.status().code() != StatusCode::kNotFound) {
            ++stale_after_remove;
          }
        } else {
          // A failed remove leaves the POI live for good (never retried).
          expect_live.push_back(victim);
          if (!injected(removed)) ++unexpected_write_errors;
        }
      }
      if (++ops % 7 == 0) {
        const Status compacted = dyn.Compact();
        if (!compacted.ok()) {
          if (injected(compacted)) {
            injected_write_errors.fetch_add(1, std::memory_order_relaxed);
          } else {
            ++unexpected_write_errors;
          }
        }
      }
    }
    expect_live.insert(expect_live.end(), window.begin(), window.end());
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < 4; ++r) {
    readers.emplace_back([&, r]() {
      uint64_t lcg = 0x9e3779b97f4a7c15ull + r;
      auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
      };
      while (!writer_done.load(std::memory_order_acquire)) {
        DynamicSeOracle::PinnedSource pinned = dyn.Pin();
        const DynamicSnapshot& snap = pinned.snapshot();
        const uint32_t n = static_cast<uint32_t>(snap.num_ids());
        const uint32_t s = static_cast<uint32_t>(next() % n);
        const uint32_t t = static_cast<uint32_t>(next() % n);
        StatusOr<double> d = pinned.source().Distance(s, t);
        if (snap.IsLive(s) && snap.IsLive(t)) {
          if (!d.ok()) {
            ++read_failures;  // reads must never see an injected failure
          } else if (!(std::isfinite(*d) && *d >= 0.0)) {
            ++wrong_answers;
          }
        } else if (d.ok() || d.status().code() != StatusCode::kNotFound) {
          ++wrong_answers;
        }
      }
    });
  }

  // Pulse the two write-path seams with single-shot errors while the churn
  // runs. Each pulse fails exactly one merge or one compaction publish.
  size_t pulses = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    ASSERT_TRUE(failpoint::Arm("dyn.merge", "1*error").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(failpoint::Arm("dyn.compact.publish", "1*error").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ++pulses;
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  const uint64_t merge_faults = failpoint::Triggered("dyn.merge");
  const uint64_t compact_faults = failpoint::Triggered("dyn.compact.publish");
  failpoint::DisarmAll();

  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_EQ(wrong_answers.load(), 0u);
  EXPECT_EQ(stale_after_remove.load(), 0u);
  EXPECT_EQ(unexpected_write_errors.load(), 0u);
  EXPECT_GT(pulses, 0u);
  EXPECT_GT(merge_faults + compact_faults, 0u)
      << "the pulses never landed: the run was vacuous";

  // With the seams disarmed a compaction succeeds, every successful write
  // is visible, no failed one is, and removed ids stay dead.
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(dyn.num_live(), ds->n() + inserts_ok - removes_ok);
  EXPECT_EQ(expect_live.size(), inserts_ok - removes_ok);
  for (const uint32_t id : expect_live) {
    EXPECT_TRUE(dyn.IsLive(id)) << id;
    EXPECT_TRUE(dyn.Distance(id, 0).ok()) << id;
  }
  for (const uint32_t id : expect_dead) {
    EXPECT_FALSE(dyn.IsLive(id)) << id;
    EXPECT_EQ(dyn.Distance(id, 0).status().code(), StatusCode::kNotFound)
        << id;
  }
  DynamicStats fin = dyn.stats();
  EXPECT_EQ(fin.epoch.retired, fin.epoch.reclaimed + fin.epoch.pending);
}

}  // namespace
}  // namespace tso
