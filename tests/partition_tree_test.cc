#include "oracle/partition_tree.h"

#include <cmath>

#include <gtest/gtest.h>

#include "geodesic/mmp_solver.h"
#include "terrain/dataset.h"

namespace tso {
namespace {

struct TreeFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<MmpSolver> solver;

  explicit TreeFixture(size_t n_pois = 20, uint64_t seed = 3) :
      ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, 400, n_pois,
                          seed)) {
    TSO_CHECK(ds.ok());
    solver = std::make_unique<MmpSolver>(*ds->mesh);
  }
};

TEST(PartitionTree, SatisfiesLemma1Properties) {
  TreeFixture fx(14);
  Rng rng(1);
  PartitionTreeStats stats;
  StatusOr<PartitionTree> tree =
      PartitionTree::Build(*fx.ds->mesh, fx.ds->pois, *fx.solver,
                           SelectionStrategy::kRandom, rng, &stats);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE(tree->CheckProperties(fx.ds->pois, *fx.solver).ok());
  EXPECT_GT(stats.ssad_runs, 0u);
  EXPECT_GT(stats.num_nodes, fx.ds->pois.size());
}

TEST(PartitionTree, GreedySatisfiesLemma1Properties) {
  TreeFixture fx(14, 5);
  Rng rng(2);
  StatusOr<PartitionTree> tree =
      PartitionTree::Build(*fx.ds->mesh, fx.ds->pois, *fx.solver,
                           SelectionStrategy::kGreedy, rng, nullptr);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE(tree->CheckProperties(fx.ds->pois, *fx.solver).ok());
}

TEST(PartitionTree, HeightBoundLemma2) {
  TreeFixture fx(25, 7);
  Rng rng(3);
  StatusOr<PartitionTree> tree =
      PartitionTree::Build(*fx.ds->mesh, fx.ds->pois, *fx.solver,
                           SelectionStrategy::kRandom, rng, nullptr);
  ASSERT_TRUE(tree.ok());
  // Lemma 2: h <= log2(dmax/dmin) + 1. Compute the POI distance extremes.
  double dmax = 0.0, dmin = kInfDist;
  for (size_t i = 0; i < fx.ds->pois.size(); ++i) {
    SsadOptions opts;
    opts.cover_targets = &fx.ds->pois;
    TSO_CHECK_OK(fx.solver->Run(fx.ds->pois[i], opts));
    for (size_t j = 0; j < fx.ds->pois.size(); ++j) {
      if (i == j) continue;
      const double d = fx.solver->PointDistance(fx.ds->pois[j]);
      dmax = std::max(dmax, d);
      dmin = std::min(dmin, d);
    }
  }
  EXPECT_LE(tree->height(), std::log2(dmax / dmin) + 1.0 + 1e-9);
  EXPECT_LT(tree->height(), 30);  // the paper's empirical bound
}

TEST(PartitionTree, StructureInvariants) {
  TreeFixture fx(18, 9);
  Rng rng(4);
  StatusOr<PartitionTree> tree =
      PartitionTree::Build(*fx.ds->mesh, fx.ds->pois, *fx.solver,
                           SelectionStrategy::kRandom, rng, nullptr);
  ASSERT_TRUE(tree.ok());
  const size_t n = fx.ds->pois.size();
  // Leaf layer has exactly n nodes, one per POI.
  EXPECT_EQ(tree->layer_nodes(tree->height()).size(), n);
  std::vector<bool> seen(n, false);
  for (uint32_t id : tree->layer_nodes(tree->height())) {
    const PartitionTree::Node& node = tree->node(id);
    EXPECT_EQ(node.layer, tree->height());
    EXPECT_FALSE(seen[node.center]);
    seen[node.center] = true;
    EXPECT_TRUE(node.children.empty());
    EXPECT_EQ(tree->leaf_of_poi(node.center), id);
  }
  // Parent-child layer relation and radius halving.
  for (uint32_t id = 0; id < tree->num_nodes(); ++id) {
    const PartitionTree::Node& node = tree->node(id);
    if (node.parent != kInvalidId) {
      EXPECT_EQ(tree->node(node.parent).layer, node.layer - 1);
      EXPECT_NEAR(node.radius, tree->node(node.parent).radius / 2.0, 1e-9);
    } else {
      EXPECT_EQ(id, tree->root());
      EXPECT_EQ(node.layer, 0);
    }
    for (uint32_t c : node.children) {
      EXPECT_EQ(tree->node(c).parent, id);
    }
  }
}

TEST(PartitionTree, DeterministicBySeed) {
  TreeFixture fx(12, 13);
  Rng rng_a(99), rng_b(99);
  StatusOr<PartitionTree> a =
      PartitionTree::Build(*fx.ds->mesh, fx.ds->pois, *fx.solver,
                           SelectionStrategy::kRandom, rng_a, nullptr);
  StatusOr<PartitionTree> b =
      PartitionTree::Build(*fx.ds->mesh, fx.ds->pois, *fx.solver,
                           SelectionStrategy::kRandom, rng_b, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_nodes(), b->num_nodes());
  for (uint32_t id = 0; id < a->num_nodes(); ++id) {
    EXPECT_EQ(a->node(id).center, b->node(id).center);
    EXPECT_EQ(a->node(id).parent, b->node(id).parent);
  }
}

TEST(PartitionTree, ParallelSpeculativeBuildIsIdentical) {
  // The speculative batched SSADs must produce the exact tree of the serial
  // build (same centers, parents, layers) for both selection strategies.
  TreeFixture fx(24, 23);
  const TerrainMesh& mesh = *fx.ds->mesh;
  PartitionTreeOptions options;
  options.solver_factory = [&mesh]() {
    return std::unique_ptr<GeodesicSolver>(new MmpSolver(mesh));
  };
  options.num_threads = 4;
  for (SelectionStrategy strategy :
       {SelectionStrategy::kRandom, SelectionStrategy::kGreedy}) {
    Rng rng_serial(77), rng_parallel(77);
    PartitionTreeStats serial_stats, parallel_stats;
    StatusOr<PartitionTree> serial =
        PartitionTree::Build(mesh, fx.ds->pois, *fx.solver, strategy,
                             rng_serial, &serial_stats);
    StatusOr<PartitionTree> parallel =
        PartitionTree::Build(mesh, fx.ds->pois, *fx.solver, strategy,
                             rng_parallel, &parallel_stats, options);
    ASSERT_TRUE(serial.ok() && parallel.ok());
    ASSERT_EQ(serial->num_nodes(), parallel->num_nodes());
    EXPECT_EQ(serial->height(), parallel->height());
    for (uint32_t id = 0; id < serial->num_nodes(); ++id) {
      EXPECT_EQ(serial->node(id).center, parallel->node(id).center);
      EXPECT_EQ(serial->node(id).parent, parallel->node(id).parent);
      EXPECT_EQ(serial->node(id).layer, parallel->node(id).layer);
    }
    if (strategy == SelectionStrategy::kRandom) {
      EXPECT_GT(parallel_stats.speculative_ssads, 0u);
    }
    EXPECT_EQ(serial_stats.speculative_ssads, 0u);
  }
}

TEST(PartitionTree, GreedyBuildMatchesRecordedTree) {
  // Pins greedy selection output across refactors of its cell index: the
  // node centers, parents and layers below were recorded from this exact
  // build, and any change to the pick order shows up as a mismatch.
  TreeFixture fx(16, 11);
  Rng rng(21);
  StatusOr<PartitionTree> tree =
      PartitionTree::Build(*fx.ds->mesh, fx.ds->pois, *fx.solver,
                           SelectionStrategy::kGreedy, rng, nullptr);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const std::vector<uint32_t> centers = {
      0,  0, 3,  7,  9, 1, 1, 7, 3, 9, 0,  8, 2, 11, 10, 11, 8, 2, 1, 3, 0, 9, 7,
      10, 12, 13, 14, 6, 4, 4, 6, 13, 1, 0, 3, 12, 8, 9, 14, 7, 2, 10, 11, 15, 5};
  const std::vector<uint32_t> parents = {
      kInvalidId, 0, 0, 0, 0, 0, 5, 3, 2, 4, 1, 4, 2, 2, 3, 13, 11, 12, 6, 8,
      10, 9, 7, 14, 11, 11, 11, 6, 7, 28, 27, 25, 18, 20, 19, 24, 16, 21, 26,
      22, 17, 23, 15, 18, 18};
  const std::vector<int> layers = {0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2,
                                   3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4,
                                   4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4};
  ASSERT_EQ(tree->num_nodes(), centers.size());
  EXPECT_EQ(tree->height(), 4);
  for (uint32_t id = 0; id < tree->num_nodes(); ++id) {
    EXPECT_EQ(tree->node(id).center, centers[id]) << id;
    EXPECT_EQ(tree->node(id).parent, parents[id]) << id;
    EXPECT_EQ(tree->node(id).layer, layers[id]) << id;
  }
}

TEST(PartitionTree, SinglePoi) {
  TreeFixture fx(1, 15);
  Rng rng(5);
  StatusOr<PartitionTree> tree =
      PartitionTree::Build(*fx.ds->mesh, fx.ds->pois, *fx.solver,
                           SelectionStrategy::kRandom, rng, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->height(), 0);
  EXPECT_EQ(tree->num_nodes(), 1u);
  EXPECT_EQ(tree->leaf_of_poi(0), tree->root());
}

TEST(PartitionTree, EmptyPoisRejected) {
  TreeFixture fx(5, 17);
  Rng rng(6);
  std::vector<SurfacePoint> empty;
  EXPECT_FALSE(PartitionTree::Build(*fx.ds->mesh, empty, *fx.solver,
                                    SelectionStrategy::kRandom, rng, nullptr)
                   .ok());
}

TEST(PartitionTree, VertexPois) {
  // V2V setting: POIs are mesh vertices.
  TreeFixture fx(5, 19);
  std::vector<SurfacePoint> pois;
  for (uint32_t v = 0; v < 30; ++v) {
    pois.push_back(SurfacePoint::AtVertex(*fx.ds->mesh, v * 9));
  }
  Rng rng(7);
  StatusOr<PartitionTree> tree =
      PartitionTree::Build(*fx.ds->mesh, pois, *fx.solver,
                           SelectionStrategy::kRandom, rng, nullptr);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->layer_nodes(tree->height()).size(), pois.size());
}

}  // namespace
}  // namespace tso
