// Google-benchmark micro suite: the primitive operations underlying the
// oracle — SSAD solvers at several radii, oracle probes, perfect-hash
// lookups, and partition-tree construction.

#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "geodesic/dijkstra_solver.h"
#include "geodesic/mmp_solver.h"
#include "geodesic/steiner_graph.h"
#include "geodesic/steiner_solver.h"
#include "oracle/se_oracle.h"
#include "terrain/dataset.h"

namespace tso {
namespace {

const Dataset& SharedDataset() {
  static const Dataset* ds = [] {
    StatusOr<Dataset> built =
        MakePaperDataset(PaperDataset::kBearHead, 3000, 150, 42);
    TSO_CHECK(built.ok());
    return new Dataset(std::move(*built));
  }();
  return *ds;
}

const SeOracle& SharedOracle() {
  static const SeOracle* oracle = [] {
    const Dataset& ds = SharedDataset();
    MmpSolver solver(*ds.mesh);
    SeOracleOptions options;
    options.epsilon = 0.1;
    StatusOr<SeOracle> built =
        SeOracle::Build(*ds.mesh, ds.pois, solver, options, nullptr);
    TSO_CHECK(built.ok());
    return new SeOracle(std::move(*built));
  }();
  return *oracle;
}

void BM_MmpSsadRadius(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  MmpSolver solver(*ds.mesh);
  const double radius = static_cast<double>(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    const uint32_t v =
        static_cast<uint32_t>(rng.Uniform(ds.mesh->num_vertices()));
    SsadOptions opts;
    opts.radius_bound = radius;
    TSO_CHECK_OK(solver.Run(SurfacePoint::AtVertex(*ds.mesh, v), opts));
    benchmark::DoNotOptimize(solver.frontier());
  }
}
BENCHMARK(BM_MmpSsadRadius)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000);

void BM_DijkstraSsadFull(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  DijkstraSolver solver(*ds.mesh);
  Rng rng(8);
  for (auto _ : state) {
    const uint32_t v =
        static_cast<uint32_t>(rng.Uniform(ds.mesh->num_vertices()));
    TSO_CHECK_OK(solver.Run(SurfacePoint::AtVertex(*ds.mesh, v), {}));
    benchmark::DoNotOptimize(solver.frontier());
  }
}
BENCHMARK(BM_DijkstraSsadFull);

void BM_MmpPointToPoint(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  MmpSolver solver(*ds.mesh);
  Rng rng(9);
  for (auto _ : state) {
    const uint32_t s = static_cast<uint32_t>(rng.Uniform(ds.pois.size()));
    const uint32_t t = static_cast<uint32_t>(rng.Uniform(ds.pois.size()));
    benchmark::DoNotOptimize(
        solver.PointToPoint(ds.pois[s], ds.pois[t]).value());
  }
}
BENCHMARK(BM_MmpPointToPoint);

void BM_SteinerDijkstraPointToPoint(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  static const SteinerGraph* graph = [&] {
    StatusOr<SteinerGraph> g = SteinerGraph::Build(*ds.mesh, 3);
    TSO_CHECK(g.ok());
    return new SteinerGraph(std::move(*g));
  }();
  SteinerSolver solver(*graph);
  Rng rng(10);
  for (auto _ : state) {
    const uint32_t s = static_cast<uint32_t>(rng.Uniform(ds.pois.size()));
    const uint32_t t = static_cast<uint32_t>(rng.Uniform(ds.pois.size()));
    benchmark::DoNotOptimize(
        solver.PointToPoint(ds.pois[s], ds.pois[t]).value());
  }
}
BENCHMARK(BM_SteinerDijkstraPointToPoint);

void BM_OracleQueryEfficient(benchmark::State& state) {
  const SeOracle& oracle = SharedOracle();
  Rng rng(11);
  for (auto _ : state) {
    const uint32_t s = static_cast<uint32_t>(rng.Uniform(oracle.num_pois()));
    const uint32_t t = static_cast<uint32_t>(rng.Uniform(oracle.num_pois()));
    benchmark::DoNotOptimize(oracle.Distance(s, t).value());
  }
}
BENCHMARK(BM_OracleQueryEfficient);

void BM_OracleQueryNaive(benchmark::State& state) {
  const SeOracle& oracle = SharedOracle();
  Rng rng(12);
  for (auto _ : state) {
    const uint32_t s = static_cast<uint32_t>(rng.Uniform(oracle.num_pois()));
    const uint32_t t = static_cast<uint32_t>(rng.Uniform(oracle.num_pois()));
    benchmark::DoNotOptimize(oracle.DistanceNaive(s, t).value());
  }
}
BENCHMARK(BM_OracleQueryNaive);

void BM_NodePairLookup(benchmark::State& state) {
  // 100k pairs; probes hit and miss about equally (random b).
  static const NodePairSet* set = [] {
    std::vector<NodePair> pairs;
    Rng rng(13);
    for (uint32_t a = 0; a < 100000; ++a) {
      pairs.push_back({a, static_cast<uint32_t>(rng.Uniform(2)), 1.0 * a});
    }
    StatusOr<NodePairSet> built = NodePairSet::FromPairs(pairs);
    TSO_CHECK(built.ok());
    return new NodePairSet(std::move(*built));
  }();
  Rng rng(14);
  uint64_t sink = 0;
  for (auto _ : state) {
    double d;
    sink += set->Lookup(static_cast<uint32_t>(rng.Uniform(100000)),
                        static_cast<uint32_t>(rng.Uniform(2)), &d);
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_NodePairLookup);

}  // namespace
}  // namespace tso

BENCHMARK_MAIN();
