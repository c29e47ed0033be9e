#include "oracle/se_oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "base/crc32.h"
#include "baselines/full_materialization.h"
#include "baselines/kalgo.h"
#include "dyn/dynamic_oracle.h"
#include "geodesic/dijkstra_solver.h"
#include "geodesic/mmp_solver.h"
#include "geodesic/ssad_kernel.h"
#include "oracle/node_pair_set.h"
#include "oracle/oracle_serde.h"
#include "oracle/partition_tree.h"
#include "terrain/dataset.h"
#include "terrain/poi_generator.h"

namespace tso {
namespace {

struct OracleFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<MmpSolver> solver;
  std::unique_ptr<FullMaterialization> exact;

  OracleFixture(size_t n_pois, uint64_t seed, uint32_t vertices = 400)
      : ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, vertices,
                            n_pois, seed)) {
    TSO_CHECK(ds.ok());
    solver = std::make_unique<MmpSolver>(*ds->mesh);
    StatusOr<FullMaterialization> fm =
        FullMaterialization::Build(ds->pois, *solver);
    TSO_CHECK(fm.ok());
    exact = std::make_unique<FullMaterialization>(std::move(*fm));
  }

  SeOracle BuildOracle(const SeOracleOptions& options,
                       SeBuildStats* stats = nullptr) {
    StatusOr<SeOracle> oracle =
        SeOracle::Build(*ds->mesh, ds->pois, *solver, options, stats);
    TSO_CHECK(oracle.ok());
    return std::move(*oracle);
  }
};

// The central property-style sweep: the ε guarantee must hold for EVERY
// pair, over ε values, seeds, and both selection strategies.
class SeEpsilonSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(SeEpsilonSweep, AllPairsWithinEpsilon) {
  const double eps = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  OracleFixture fx(18, seed);
  SeOracleOptions options;
  options.epsilon = eps;
  options.seed = seed * 7 + 1;
  SeBuildStats stats;
  SeOracle oracle = fx.BuildOracle(options, &stats);
  EXPECT_EQ(stats.distance_fallbacks, 0u)
      << "enhanced-edge lookups must never miss (Lemma 4)";
  const size_t n = fx.ds->pois.size();
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      StatusOr<double> approx = oracle.Distance(s, t);
      ASSERT_TRUE(approx.ok()) << approx.status().ToString();
      const double truth = fx.exact->Distance(s, t);
      EXPECT_LE(std::abs(*approx - truth), eps * truth + 1e-9)
          << "eps=" << eps << " seed=" << seed << " pair " << s << "," << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EpsAndSeeds, SeEpsilonSweep,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.25),
                       ::testing::Values(1, 2, 3)));

TEST(SeOracle, GreedySelectionAlsoWithinEpsilon) {
  OracleFixture fx(16, 21);
  SeOracleOptions options;
  options.epsilon = 0.1;
  options.selection = SelectionStrategy::kGreedy;
  SeOracle oracle = fx.BuildOracle(options);
  const size_t n = fx.ds->pois.size();
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = s + 1; t < n; ++t) {
      const double truth = fx.exact->Distance(s, t);
      EXPECT_LE(std::abs(*oracle.Distance(s, t) - truth),
                options.epsilon * truth + 1e-9);
    }
  }
}

TEST(SeOracle, NaiveAndEfficientQueryAgree) {
  OracleFixture fx(20, 23);
  SeOracleOptions options;
  options.epsilon = 0.1;
  SeOracle oracle = fx.BuildOracle(options);
  const size_t n = fx.ds->pois.size();
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      StatusOr<double> fast = oracle.Distance(s, t);
      StatusOr<double> naive = oracle.DistanceNaive(s, t);
      ASSERT_TRUE(fast.ok() && naive.ok());
      EXPECT_EQ(*fast, *naive) << s << "," << t;
    }
  }
}

TEST(SeOracle, NaiveAndEfficientConstructionAgree) {
  // Same seed => same tree; the enhanced-edge distances must equal the
  // per-pair SSAD distances, so the resulting oracles answer identically.
  OracleFixture fx(14, 29);
  SeOracleOptions eff;
  eff.epsilon = 0.15;
  eff.seed = 5;
  SeOracleOptions naive = eff;
  naive.construction = ConstructionMethod::kNaive;
  SeOracle a = fx.BuildOracle(eff);
  SeOracle b = fx.BuildOracle(naive);
  const size_t n = fx.ds->pois.size();
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      EXPECT_NEAR(*a.Distance(s, t), *b.Distance(s, t),
                  1e-6 * (1.0 + *a.Distance(s, t)))
          << s << "," << t;
    }
  }
}

TEST(SeOracle, SymmetricAnswers) {
  OracleFixture fx(15, 31);
  SeOracleOptions options;
  options.epsilon = 0.1;
  SeOracle oracle = fx.BuildOracle(options);
  // (s, t) and (t, s) match the same unordered pair, stored once.
  const size_t n = fx.ds->pois.size();
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = s + 1; t < n; ++t) {
      EXPECT_EQ(*oracle.Distance(s, t), *oracle.Distance(t, s));
    }
  }
}

TEST(SeOracle, SelfDistanceZero) {
  OracleFixture fx(10, 37);
  SeOracleOptions options;
  SeOracle oracle = fx.BuildOracle(options);
  for (uint32_t p = 0; p < fx.ds->pois.size(); ++p) {
    EXPECT_EQ(*oracle.Distance(p, p), 0.0);
  }
}

TEST(SeOracle, OutOfRangeRejected) {
  OracleFixture fx(8, 41);
  SeOracleOptions options;
  SeOracle oracle = fx.BuildOracle(options);
  EXPECT_FALSE(oracle.Distance(0, 99).ok());
  EXPECT_FALSE(oracle.Distance(99, 0).ok());
  EXPECT_FALSE(oracle.DistanceNaive(99, 0).ok());
}

TEST(SeOracle, InvalidOptionsRejected) {
  OracleFixture fx(8, 43);
  SeOracleOptions options;
  options.epsilon = 0.0;
  EXPECT_FALSE(
      SeOracle::Build(*fx.ds->mesh, fx.ds->pois, *fx.solver, options, nullptr)
          .ok());
  std::vector<SurfacePoint> empty;
  options.epsilon = 0.1;
  EXPECT_FALSE(
      SeOracle::Build(*fx.ds->mesh, empty, *fx.solver, options, nullptr).ok());
}

TEST(SeOracle, NonFiniteOrNonPositiveEpsilonRejectedBeforeAnySsad) {
  // NaN passes an `epsilon <= 0` test, so every entry point checks
  // finiteness too, and rejects before it runs a single SSAD.
  OracleFixture fx(8, 43);
  DijkstraSolver dijkstra(*fx.ds->mesh);
  Rng rng(3);
  StatusOr<PartitionTree> tree =
      PartitionTree::Build(*fx.ds->mesh, fx.ds->pois, *fx.solver,
                           SelectionStrategy::kRandom, rng, nullptr);
  ASSERT_TRUE(tree.ok());
  const CompressedTree compressed = CompressedTree::FromPartitionTree(*tree);
  size_t center_dist_calls = 0;
  const std::function<double(uint32_t, uint32_t)> center_dist =
      [&](uint32_t, uint32_t) {
        ++center_dist_calls;
        return 1.0;
      };
  const std::vector<double> radii(compressed.num_nodes(), 1.0);
  NodePairParallelOptions parallel;
  parallel.num_threads = 2;
  parallel.make_center_dist = [&](uint32_t) { return center_dist; };
  for (double eps : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), 0.0, -1.0}) {
    const SsadCounterSnapshot before = SsadCounterSnapshot::Take();
    SeOracleOptions options;
    options.epsilon = eps;
    const auto expect_invalid = [eps](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << eps;
    };
    expect_invalid(
        SeOracle::Build(*fx.ds->mesh, fx.ds->pois, dijkstra, options, nullptr)
            .status());
    expect_invalid(
        NodePairSet::Generate(compressed, eps, radii, center_dist, nullptr)
            .status());
    expect_invalid(
        NodePairSet::Generate(compressed, eps, radii, parallel, nullptr)
            .status());
    DynamicOracleOptions dyn_options;
    dyn_options.base = options;
    expect_invalid(
        DynamicSeOracle::Create(*fx.ds->mesh, fx.ds->pois, dijkstra,
                                dyn_options)
            .status());
    expect_invalid(KAlgo::Create(*fx.ds->mesh, eps).status());
    EXPECT_EQ(SsadCounterSnapshot::Take().Delta(before).runs, 0u) << eps;
    EXPECT_EQ(center_dist_calls, 0u) << eps;
  }
}

TEST(SeOracle, WorksWithDijkstraMetric) {
  // The ε guarantee is relative to the injected solver's metric.
  OracleFixture fx(15, 47);
  DijkstraSolver dijkstra(*fx.ds->mesh);
  SeOracleOptions options;
  options.epsilon = 0.1;
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*fx.ds->mesh, fx.ds->pois, dijkstra, options, nullptr);
  ASSERT_TRUE(oracle.ok());
  const size_t n = fx.ds->pois.size();
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = s + 1; t < n; ++t) {
      const double truth =
          dijkstra.PointToPoint(fx.ds->pois[s], fx.ds->pois[t]).value();
      EXPECT_LE(std::abs(*oracle->Distance(s, t) - truth),
                options.epsilon * truth + 1e-9);
    }
  }
}

TEST(SeOracle, V2VMode) {
  // All POIs are vertices (the paper's V2V query setting).
  OracleFixture fx(5, 53);
  Rng rng(4);
  std::vector<SurfacePoint> pois =
      PoisFromRandomVertices(*fx.ds->mesh, 24, rng);
  SeOracleOptions options;
  options.epsilon = 0.1;
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*fx.ds->mesh, pois, *fx.solver, options, nullptr);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  for (uint32_t s = 0; s < pois.size(); ++s) {
    for (uint32_t t = s + 1; t < pois.size(); ++t) {
      const double truth = fx.solver->PointToPoint(pois[s], pois[t]).value();
      EXPECT_LE(std::abs(*oracle->Distance(s, t) - truth),
                options.epsilon * truth + 1e-9);
    }
  }
}

TEST(SeOracle, StatsPopulated) {
  OracleFixture fx(15, 59);
  SeOracleOptions options;
  options.epsilon = 0.1;
  SeBuildStats stats;
  SeOracle oracle = fx.BuildOracle(options, &stats);
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.ssad_runs, 0u);
  EXPECT_GT(stats.enhanced_edges, 0u);
  EXPECT_GT(stats.node_pairs, 0u);
  EXPECT_GE(stats.pairs_considered, stats.node_pairs);
  EXPECT_EQ(stats.height, oracle.height());
  EXPECT_GT(oracle.SizeBytes(), 0u);
}

TEST(SeOracle, SizeScalesWithEpsilon) {
  OracleFixture fx(20, 61);
  SeOracleOptions coarse;
  coarse.epsilon = 0.5;
  SeOracleOptions fine;
  fine.epsilon = 0.05;
  SeOracle a = fx.BuildOracle(coarse);
  SeOracle b = fx.BuildOracle(fine);
  EXPECT_LE(a.pair_set().size(), b.pair_set().size());
}

TEST(SeOracle, ParallelBuildMatchesSequential) {
  OracleFixture fx(20, 83);
  SeOracleOptions sequential;
  sequential.epsilon = 0.1;
  sequential.seed = 9;
  SeOracleOptions parallel = sequential;
  const TerrainMesh& mesh = *fx.ds->mesh;
  parallel.parallel_solver_factory = [&mesh]() {
    return std::unique_ptr<GeodesicSolver>(new MmpSolver(mesh));
  };
  parallel.num_threads = 4;
  SeBuildStats seq_stats, par_stats;
  SeOracle a = fx.BuildOracle(sequential, &seq_stats);
  SeOracle b = fx.BuildOracle(parallel, &par_stats);
  EXPECT_EQ(par_stats.distance_fallbacks, 0u);
  EXPECT_EQ(seq_stats.node_pairs, par_stats.node_pairs);
  const size_t n = fx.ds->pois.size();
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      EXPECT_EQ(*a.Distance(s, t), *b.Distance(s, t)) << s << "," << t;
    }
  }
}

TEST(SeOracle, EightThreadBuildIsDeterministic) {
  // Acceptance gate: the T=8 build (parallel partition tree + WSPD + enhanced
  // edges) must answer every query identically to the T=1 build, with the
  // same node-pair count. The cheap Dijkstra metric keeps this fast.
  OracleFixture fx(40, 89, 600);
  DijkstraSolver serial_solver(*fx.ds->mesh);
  DijkstraSolver parallel_solver(*fx.ds->mesh);
  SeOracleOptions sequential;
  sequential.epsilon = 0.2;
  sequential.seed = 17;
  SeOracleOptions parallel = sequential;
  const TerrainMesh& mesh = *fx.ds->mesh;
  parallel.parallel_solver_factory = [&mesh]() {
    return std::unique_ptr<GeodesicSolver>(new DijkstraSolver(mesh));
  };
  parallel.num_threads = 8;
  SeBuildStats seq_stats, par_stats;
  StatusOr<SeOracle> a = SeOracle::Build(mesh, fx.ds->pois, serial_solver,
                                         sequential, &seq_stats);
  StatusOr<SeOracle> b = SeOracle::Build(mesh, fx.ds->pois, parallel_solver,
                                         parallel, &par_stats);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(seq_stats.threads_used, 1u);
  EXPECT_EQ(par_stats.threads_used, 8u);
  EXPECT_EQ(par_stats.distance_fallbacks, 0u);
  EXPECT_EQ(seq_stats.node_pairs, par_stats.node_pairs);
  EXPECT_EQ(seq_stats.height, par_stats.height);
  EXPECT_GT(par_stats.tree_speculative_ssads, 0u);
  const size_t n = fx.ds->pois.size();
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      EXPECT_EQ(*a->Distance(s, t), *b->Distance(s, t)) << s << "," << t;
    }
  }
}

TEST(SeOracle, BatchedParallelBuildMatchesSerialUnbatched) {
  // Acceptance gate for multi-source batching: T=8 with 4-source group
  // sweeps must answer every query identically to the plain T=1 build with
  // batching disabled (batch=1 sweeps one distinct center at a time, rerun
  // at each layer's reach since Dijkstra cannot resume), with the same
  // node-pair count and no enhanced-edge misses.
  OracleFixture fx(40, 97, 600);
  DijkstraSolver serial_solver(*fx.ds->mesh);
  DijkstraSolver parallel_solver(*fx.ds->mesh);
  SeOracleOptions serial;
  serial.epsilon = 0.2;
  serial.seed = 23;
  serial.ssad_batch = 1;
  SeOracleOptions batched = serial;
  const TerrainMesh& mesh = *fx.ds->mesh;
  batched.parallel_solver_factory = [&mesh]() {
    return std::unique_ptr<GeodesicSolver>(new DijkstraSolver(mesh));
  };
  batched.num_threads = 8;
  batched.ssad_batch = 4;
  SeBuildStats serial_stats, batched_stats;
  StatusOr<SeOracle> a = SeOracle::Build(mesh, fx.ds->pois, serial_solver,
                                         serial, &serial_stats);
  StatusOr<SeOracle> b = SeOracle::Build(mesh, fx.ds->pois, parallel_solver,
                                         batched, &batched_stats);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(serial_stats.ssad_batch_used, 1u);
  EXPECT_EQ(batched_stats.ssad_batch_used, 4u);
  EXPECT_EQ(batched_stats.threads_used, 8u);
  EXPECT_EQ(batched_stats.distance_fallbacks, 0u);
  EXPECT_EQ(serial_stats.node_pairs, batched_stats.node_pairs);
  EXPECT_EQ(serial_stats.enhanced_edges, batched_stats.enhanced_edges);
  // Both pipelines sweep each distinct center once; batching then shares
  // one kernel sweep between several centers.
  EXPECT_LT(batched_stats.enhanced_sweeps, serial_stats.enhanced_sweeps);
  const size_t n = fx.ds->pois.size();
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      EXPECT_EQ(*a->Distance(s, t), *b->Distance(s, t)) << s << "," << t;
    }
  }
}

/// CRC-32 of an oracle's format-independent content: the POIs, the tree
/// nodes, and the canonical (a <= b) node-pair records sorted by (a, b). It
/// does not depend on how the file hashes or lays out the pairs, nor on
/// whether it also stores the reverse orientations, so it pins a build
/// across format versions.
uint32_t ContentCrc(const OracleView& view) {
  std::vector<NodePair> pairs;
  for (const NodePair& p : view.pair_set().pairs()) {
    if (p.a <= p.b) pairs.push_back(p);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const NodePair& x, const NodePair& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  uint32_t crc = Crc32(view.pois().data(), view.pois().size_bytes());
  crc = Crc32(view.tree().nodes().data(), view.tree().nodes().size_bytes(),
              crc);
  return Crc32(pairs.data(), pairs.size() * sizeof(NodePair), crc);
}

TEST(SeOracle, MmpBuildMatchesRecordedBytes) {
  // Pins the exact MMP build at 1 and 4 threads. How the enhanced-edge
  // phase schedules its SSADs (one resumable sweep per distinct center,
  // extended layer by layer) must never show in the artifact. At ε = 0.1
  // every layer's reach is capped at 2·r_0, so no sweep grows; at ε = 0.25
  // the deepest layers' reaches are not, so sweeps are extended, and an
  // extension that lost labels would miss enhanced edges.
  //
  // Two pins: the content CRC over the canonical (a <= b) records
  // (format-independent) and the size and CRC of the TSOFLAT 4.0 bytes.
  // Both were re-recorded when the separation test moved from the layer
  // radii to the measured covering radii, which stores fewer pairs
  // (33,216 -> 27,328 bytes at ε = 0.1, 32,576 -> 20,992 at ε = 0.25).
  OracleFixture fx(60, 37);
  const TerrainMesh& mesh = *fx.ds->mesh;
  struct Recorded {
    double epsilon;
    uint32_t content_crc32;
    size_t bytes;
    uint32_t crc32;
  };
  for (const Recorded& want :
       {Recorded{0.1, 2786625109u, 27328, 903682617u},
        Recorded{0.25, 3135335288u, 20992, 2140547177u}}) {
    for (uint32_t threads : {1u, 4u}) {
      SeOracleOptions options;
      options.epsilon = want.epsilon;
      options.seed = 13;
      if (threads > 1) {
        options.parallel_solver_factory = [&mesh]() {
          return std::unique_ptr<GeodesicSolver>(new MmpSolver(mesh));
        };
        options.num_threads = threads;
      }
      SeBuildStats stats;
      const SeOracle oracle = fx.BuildOracle(options, &stats);
      const std::string blob = SerializeSeOracleFlat(oracle);
      EXPECT_EQ(stats.distance_fallbacks, 0u)
          << "eps=" << want.epsilon << " threads=" << threads;
      EXPECT_EQ(ContentCrc(oracle), want.content_crc32)
          << "eps=" << want.epsilon << " threads=" << threads;
      EXPECT_EQ(blob.size(), want.bytes)
          << "eps=" << want.epsilon << " threads=" << threads;
      EXPECT_EQ(Crc32(blob.data(), blob.size()), want.crc32)
          << "eps=" << want.epsilon << " threads=" << threads;
    }
  }
}

TEST(SeOracle, SsadBatchClampedForSolversWithoutNativeBatching) {
  OracleFixture fx(12, 101);
  SeOracleOptions options;
  options.epsilon = 0.25;
  options.ssad_batch = 8;  // MMP has no native batching: clamps to 1
  SeBuildStats stats;
  SeOracle oracle = fx.BuildOracle(options, &stats);
  EXPECT_EQ(stats.ssad_batch_used, 1u);
  EXPECT_GT(stats.enhanced_sweeps, 0u);
  EXPECT_EQ(*oracle.Distance(0, 0), 0.0);
}

TEST(SeOracle, OwnsItsBytes) {
  // A built oracle is an OracleView over its own TSOFLAT bytes: moves hand
  // the bytes over, and answers survive the destruction of the source.
  OracleFixture fx(12, 83);
  SeOracleOptions options;
  options.epsilon = 0.25;
  SeOracle reference = fx.BuildOracle(options);
  const size_t n = reference.num_pois();
  std::vector<double> expected;
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      expected.push_back(*reference.Distance(s, t));
    }
  }
  auto expect_answers = [&](const SeOracle& oracle) {
    size_t i = 0;
    for (uint32_t s = 0; s < n; ++s) {
      for (uint32_t t = 0; t < n; ++t) {
        EXPECT_EQ(*oracle.Distance(s, t), expected[i++]) << s << "," << t;
      }
    }
  };

  auto source = std::make_unique<SeOracle>(fx.BuildOracle(options));
  SeOracle moved(std::move(*source));
  source.reset();
  expect_answers(moved);

  auto second = std::make_unique<SeOracle>(fx.BuildOracle(options));
  moved = std::move(*second);
  second.reset();
  expect_answers(moved);

  EXPECT_EQ(moved.SizeBytes(), SerializeSeOracleFlat(moved).size());
  EXPECT_TRUE(moved.tree().has_ancestor_table());
}

TEST(SeOracleSerde, RoundTripAnswersIdentical) {
  OracleFixture fx(16, 67);
  SeOracleOptions options;
  options.epsilon = 0.1;
  SeOracle oracle = fx.BuildOracle(options);
  const std::string blob = SerializeSeOracleFlat(oracle);
  StatusOr<OracleView> back =
      OracleView::FromBytes(blob, {.verify_checksums = true});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_pois(), oracle.num_pois());
  EXPECT_EQ(back->epsilon(), oracle.epsilon());
  EXPECT_EQ(back->height(), oracle.height());
  const size_t n = oracle.num_pois();
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      EXPECT_EQ(*back->Distance(s, t), *oracle.Distance(s, t));
    }
  }
}

TEST(SeOracleSerde, FileRoundTrip) {
  OracleFixture fx(10, 71);
  SeOracleOptions options;
  SeOracle oracle = fx.BuildOracle(options);
  const std::string path = testing::TempDir() + "/oracle.bin";
  ASSERT_TRUE(SaveSeOracleFlat(oracle, path).ok());
  StatusOr<OracleView> back =
      OracleView::Open(path, {.verify_checksums = true});
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back->Distance(1, 2), *oracle.Distance(1, 2));
}

TEST(SeOracleSerde, CorruptInputRejected) {
  OracleFixture fx(8, 73);
  SeOracleOptions options;
  SeOracle oracle = fx.BuildOracle(options);
  std::string blob = SerializeSeOracleFlat(oracle);
  // Bad magic.
  std::string bad = blob;
  bad[0] = 'X';
  const OracleView::Options verify{.verify_checksums = true};
  EXPECT_FALSE(OracleView::FromBytes(bad, verify).ok());
  // Truncations at many offsets must fail, never crash.
  for (size_t cut : {0ul, 1ul, 8ul, blob.size() / 2, blob.size() - 1}) {
    EXPECT_FALSE(OracleView::FromBytes(blob.substr(0, cut), verify).ok())
        << cut;
  }
  // Trailing garbage.
  EXPECT_FALSE(OracleView::FromBytes(blob + "zz", verify).ok());
}

}  // namespace
}  // namespace tso
