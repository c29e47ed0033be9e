// Thread-safety of the query stack: a single immutable SeOracle probed from
// many threads must give bitwise-identical answers to the serial path, with
// no data races (this suite is the target of the ThreadSanitizer CI job).

#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dyn/dynamic_oracle.h"
#include "geodesic/dijkstra_solver.h"
#include "geodesic/mmp_solver.h"
#include "oracle/se_oracle.h"
#include "query/batch.h"
#include "terrain/dataset.h"

namespace tso {
namespace {

constexpr uint32_t kThreads = 8;

// One oracle shared by every test in the suite: queries are read-only, so
// building it once keeps the suite (and the TSan job) fast.
struct SharedOracle {
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<MmpSolver> solver;
  std::unique_ptr<SeOracle> oracle;

  SharedOracle() {
    StatusOr<Dataset> built =
        MakePaperDataset(PaperDataset::kSanFranciscoSmall, 400, 25, 19);
    TSO_CHECK(built.ok());
    ds = std::make_unique<Dataset>(std::move(*built));
    solver = std::make_unique<MmpSolver>(*ds->mesh);
    SeOracleOptions options;
    options.epsilon = 0.1;
    StatusOr<SeOracle> oc =
        SeOracle::Build(*ds->mesh, ds->pois, *solver, options, nullptr);
    TSO_CHECK(oc.ok());
    oracle = std::make_unique<SeOracle>(std::move(*oc));
  }
};

const SharedOracle& Fx() {
  static SharedOracle* fx = new SharedOracle();
  return *fx;
}

std::vector<std::pair<uint32_t, uint32_t>> AllPairs(size_t n) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) pairs.emplace_back(s, t);
  }
  return pairs;
}

// The hammer: 8 threads sweep every POI pair against answers computed
// serially, half of them through the thread_local overload and half through
// caller-owned scratches. Any shared mutable query state shows up either as
// a mismatch here or as a TSan report.
TEST(Concurrency, EightThreadsMatchSerial) {
  const SharedOracle& fx = Fx();
  const auto pairs = AllPairs(fx.oracle->num_pois());

  std::vector<double> serial(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    serial[i] = fx.oracle->Distance(pairs[i].first, pairs[i].second).value();
  }

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> errors{0};
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      QueryScratch scratch;
      const bool own_scratch = t % 2 == 0;
      // Start at a per-thread offset so threads collide on different pairs.
      for (size_t j = 0; j < pairs.size(); ++j) {
        const size_t i = (j + t * pairs.size() / kThreads) % pairs.size();
        StatusOr<double> d =
            own_scratch
                ? fx.oracle->Distance(pairs[i].first, pairs[i].second, scratch)
                : fx.oracle->Distance(pairs[i].first, pairs[i].second);
        if (!d.ok()) {
          ++errors;
        } else if (*d != serial[i]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(Concurrency, NaiveQueryMatchesSerialAcrossThreads) {
  const SharedOracle& fx = Fx();
  const auto pairs = AllPairs(fx.oracle->num_pois());
  std::vector<double> serial(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    serial[i] =
        fx.oracle->DistanceNaive(pairs[i].first, pairs[i].second).value();
  }
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&]() {
      QueryScratch scratch;
      for (size_t i = 0; i < pairs.size(); ++i) {
        StatusOr<double> d =
            fx.oracle->DistanceNaive(pairs[i].first, pairs[i].second, scratch);
        if (!d.ok() || *d != serial[i]) ++mismatches;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(Concurrency, DistanceBatchMatchesSerial) {
  const SharedOracle& fx = Fx();
  Rng rng(23);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t i = 0; i < 5000; ++i) {
    pairs.emplace_back(
        static_cast<uint32_t>(rng.Uniform(fx.oracle->num_pois())),
        static_cast<uint32_t>(rng.Uniform(fx.oracle->num_pois())));
  }
  StatusOr<std::vector<double>> serial = DistanceBatch(MakeSource(*fx.oracle), pairs, 1);
  ASSERT_TRUE(serial.ok());
  StatusOr<std::vector<double>> parallel =
      DistanceBatch(MakeSource(*fx.oracle), pairs, kThreads);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*parallel)[i], (*serial)[i]) << i;
  }
}

TEST(Concurrency, DistanceBatchRejectsBadIds) {
  const SharedOracle& fx = Fx();
  std::vector<std::pair<uint32_t, uint32_t>> pairs(500, {0u, 1u});
  pairs[250] = {0u, 9999u};
  EXPECT_FALSE(DistanceBatch(MakeSource(*fx.oracle), pairs, kThreads).ok());
  EXPECT_FALSE(DistanceBatch(MakeSource(*fx.oracle), pairs, 1).ok());
}

TEST(Concurrency, DistanceBatchEmpty) {
  const SharedOracle& fx = Fx();
  StatusOr<std::vector<double>> out = DistanceBatch(MakeSource(*fx.oracle), {}, kThreads);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(Concurrency, ParallelKnnMatchesSerial) {
  const SharedOracle& fx = Fx();
  const size_t n = fx.oracle->num_pois();
  for (uint32_t q : {0u, 7u, 21u}) {
    for (size_t k : {size_t{0}, size_t{1}, size_t{5}, n - 1, n + 10}) {
      StatusOr<std::vector<KnnResult>> serial = KnnQuery(MakeSource(*fx.oracle), q, k);
      StatusOr<std::vector<KnnResult>> parallel =
          KnnQueryParallel(MakeSource(*fx.oracle), q, k, kThreads);
      ASSERT_TRUE(serial.ok() && parallel.ok());
      ASSERT_EQ(parallel->size(), serial->size()) << "q=" << q << " k=" << k;
      for (size_t i = 0; i < serial->size(); ++i) {
        EXPECT_EQ((*parallel)[i].poi, (*serial)[i].poi);
        EXPECT_EQ((*parallel)[i].distance, (*serial)[i].distance);
      }
    }
  }
  EXPECT_FALSE(KnnQueryParallel(MakeSource(*fx.oracle), 9999, 3, kThreads).ok());
}

TEST(Concurrency, ParallelRangeMatchesSerial) {
  const SharedOracle& fx = Fx();
  for (double radius :
       {0.0, 300.0, 1000.0, 1e12, std::numeric_limits<double>::infinity()}) {
    StatusOr<std::vector<uint32_t>> serial =
        RangeQuery(MakeSource(*fx.oracle), 3, radius);
    StatusOr<std::vector<uint32_t>> parallel =
        RangeQueryParallel(MakeSource(*fx.oracle), 3, radius, kThreads);
    ASSERT_TRUE(serial.ok() && parallel.ok());
    EXPECT_EQ(*parallel, *serial) << "radius=" << radius;
  }
  EXPECT_FALSE(RangeQueryParallel(MakeSource(*fx.oracle), 0, -1.0, kThreads).ok());
  // NaN fails every comparison, so it must be rejected, not read as empty.
  EXPECT_EQ(RangeQueryParallel(MakeSource(*fx.oracle), 0,
                               std::numeric_limits<double>::quiet_NaN(), 4)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(RangeQueryParallel(MakeSource(*fx.oracle), 9999, 1.0, kThreads).ok());
}

// kNN and range queries issue many oracle probes internally; running them
// concurrently with plain distance probes exercises every query path at
// once on the shared oracle.
TEST(Concurrency, MixedWorkloadHammer) {
  const SharedOracle& fx = Fx();
  const size_t n = fx.oracle->num_pois();
  const std::vector<KnnResult> knn_truth =
      KnnQueryPruned(MakeSource(*fx.oracle), 3, 5).value();
  const std::vector<uint32_t> range_truth =
      RangeQuery(MakeSource(*fx.oracle), 3, 800.0).value();
  const double d_truth = fx.oracle->Distance(1, n - 1).value();

  std::atomic<size_t> failures{0};
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int round = 0; round < 20; ++round) {
        switch ((t + round) % 3) {
          case 0: {
            StatusOr<std::vector<KnnResult>> knn =
                KnnQueryPruned(MakeSource(*fx.oracle), 3, 5);
            if (!knn.ok() || knn->size() != knn_truth.size() ||
                (*knn)[0].poi != knn_truth[0].poi) {
              ++failures;
            }
            break;
          }
          case 1: {
            StatusOr<std::vector<uint32_t>> hits =
                RangeQuery(MakeSource(*fx.oracle), 3, 800.0);
            if (!hits.ok() || *hits != range_truth) ++failures;
            break;
          }
          default: {
            StatusOr<double> d = fx.oracle->Distance(1, n - 1);
            if (!d.ok() || *d != d_truth) ++failures;
            break;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0u);
}

// DynamicSeOracle many-reader consistency: after mutation quiesces, every
// thread sees bitwise-identical answers on both the base and delta paths
// (the heavier read/write/compact hammer lives in dyn_hammer_test.cc).
TEST(Concurrency, DynamicOracleConcurrentReads) {
  const SharedOracle& fx = Fx();
  std::vector<SurfacePoint> base(fx.ds->pois.begin(),
                                 fx.ds->pois.begin() + 20);
  DynamicOracleOptions options;
  options.base.epsilon = 0.1;
  options.max_delta = 1024;
  options.compaction_ratio = 1.0;  // keep the inserts in the delta
  StatusOr<std::unique_ptr<DynamicSeOracle>> built =
      DynamicSeOracle::Create(*fx.ds->mesh, base, *fx.solver, options);
  ASSERT_TRUE(built.ok());
  DynamicSeOracle& dyn = **built;
  for (size_t i = 20; i < 23; ++i) {
    ASSERT_TRUE(dyn.Insert(fx.ds->pois[i]).ok());
  }

  const size_t n = dyn.num_ids();
  std::vector<double> serial;
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      serial.push_back(dyn.Distance(s, t).value());
    }
  }
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> workers;
  for (uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&]() {
      size_t i = 0;
      for (uint32_t s = 0; s < n; ++s) {
        for (uint32_t t = 0; t < n; ++t, ++i) {
          StatusOr<double> d = dyn.Distance(s, t);
          if (!d.ok() || *d != serial[i]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// The parallel build phases (speculative partition-tree SSADs, sharded WSPD
// recursion, enhanced edges) under the race detector: this suite is the TSan
// CI target, so the whole multi-threaded construction path runs here. The
// result must also match the serial build bit-for-bit.
TEST(Concurrency, ParallelOracleBuildRaceFreeAndDeterministic) {
  const SharedOracle& fx = Fx();
  const TerrainMesh& mesh = *fx.ds->mesh;
  DijkstraSolver serial_solver(mesh);
  DijkstraSolver parallel_solver(mesh);
  SeOracleOptions sequential;
  sequential.epsilon = 0.2;
  sequential.seed = 31;
  SeOracleOptions parallel = sequential;
  parallel.parallel_solver_factory = [&mesh]() {
    return std::unique_ptr<GeodesicSolver>(new DijkstraSolver(mesh));
  };
  parallel.num_threads = kThreads;
  SeBuildStats par_stats;
  StatusOr<SeOracle> a =
      SeOracle::Build(mesh, fx.ds->pois, serial_solver, sequential, nullptr);
  StatusOr<SeOracle> b =
      SeOracle::Build(mesh, fx.ds->pois, parallel_solver, parallel,
                      &par_stats);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(par_stats.threads_used, kThreads);
  const size_t n = fx.ds->pois.size();
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      EXPECT_EQ(*a->Distance(s, t), *b->Distance(s, t)) << s << "," << t;
    }
  }
}

}  // namespace
}  // namespace tso
