#include "oracle/node_pair_set.h"

#include <gtest/gtest.h>

#include "baselines/full_materialization.h"
#include "geodesic/mmp_solver.h"
#include "terrain/dataset.h"

namespace tso {
namespace {

struct Fixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<MmpSolver> solver;
  std::unique_ptr<FullMaterialization> exact;
  StatusOr<PartitionTree> tree{Status::Internal("unset")};
  CompressedTree ct;

  Fixture(size_t n_pois, uint64_t seed)
      : ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, 400, n_pois,
                            seed)) {
    TSO_CHECK(ds.ok());
    solver = std::make_unique<MmpSolver>(*ds->mesh);
    StatusOr<FullMaterialization> fm =
        FullMaterialization::Build(ds->pois, *solver);
    TSO_CHECK(fm.ok());
    exact = std::make_unique<FullMaterialization>(std::move(*fm));
    Rng rng(seed + 1);
    tree = PartitionTree::Build(*ds->mesh, ds->pois, *solver,
                                SelectionStrategy::kRandom, rng, nullptr);
    TSO_CHECK(tree.ok());
    ct = CompressedTree::FromPartitionTree(*tree);
  }

  std::function<double(uint32_t, uint32_t)> DistFn() {
    return [this](uint32_t a, uint32_t b) { return exact->Distance(a, b); };
  }
};

TEST(NodePairSet, AllPairsWellSeparated) {
  Fixture fx(15, 31);
  const double eps = 0.2;
  StatusOr<NodePairSet> set =
      NodePairSet::Generate(fx.ct, eps, fx.DistFn(), nullptr);
  ASSERT_TRUE(set.ok());
  const double sep = 2.0 / eps + 2.0;
  for (const NodePair& pair : set->pairs()) {
    const auto& na = fx.ct.node(pair.a);
    const auto& nb = fx.ct.node(pair.b);
    const double enlarged = 2.0 * std::max(na.radius, nb.radius);
    EXPECT_GE(pair.distance, sep * enlarged - 1e-9);
    EXPECT_NEAR(pair.distance, fx.exact->Distance(na.center, nb.center),
                1e-9 * (1.0 + pair.distance));
  }
}

// Theorem 1: for every POI pair (p, q) exactly one node pair in the set
// contains (p, q). The set stores each unordered pair once (a <= b), so a
// stored <A, B> contains (p, q) in either orientation. Exhaustive check on
// a small instance.
TEST(NodePairSet, UniqueNodePairMatchProperty) {
  for (uint64_t seed : {41u, 43u}) {
    Fixture fx(12, seed);
    StatusOr<NodePairSet> set =
        NodePairSet::Generate(fx.ct, 0.25, fx.DistFn(), nullptr);
    ASSERT_TRUE(set.ok());

    // Ancestor sets (node -> is ancestor-or-self of leaf).
    auto ancestors = [&](uint32_t poi) {
      std::vector<bool> anc(fx.ct.num_nodes(), false);
      for (uint32_t cur = fx.ct.leaf_of_poi(poi); cur != kInvalidId;
           cur = fx.ct.node(cur).parent) {
        anc[cur] = true;
      }
      return anc;
    };
    const size_t n = fx.ds->pois.size();
    for (uint32_t p = 0; p < n; ++p) {
      const std::vector<bool> ap = ancestors(p);
      for (uint32_t q = 0; q < n; ++q) {
        const std::vector<bool> aq = ancestors(q);
        int matches = 0;
        for (const NodePair& pair : set->pairs()) {
          EXPECT_LE(pair.a, pair.b);
          if ((ap[pair.a] && aq[pair.b]) || (aq[pair.a] && ap[pair.b])) {
            ++matches;
          }
        }
        EXPECT_EQ(matches, 1) << "POI pair (" << p << "," << q << ")";
      }
    }
  }
}

// The matched pair's distance is an ε-approximation (Theorem 1, part 2).
TEST(NodePairSet, MatchedDistanceIsEpsApprox) {
  Fixture fx(14, 47);
  const double eps = 0.15;
  StatusOr<NodePairSet> set =
      NodePairSet::Generate(fx.ct, eps, fx.DistFn(), nullptr);
  ASSERT_TRUE(set.ok());
  auto ancestors = [&](uint32_t poi) {
    std::vector<bool> anc(fx.ct.num_nodes(), false);
    for (uint32_t cur = fx.ct.leaf_of_poi(poi); cur != kInvalidId;
         cur = fx.ct.node(cur).parent) {
      anc[cur] = true;
    }
    return anc;
  };
  const size_t n = fx.ds->pois.size();
  for (uint32_t p = 0; p < n; ++p) {
    const std::vector<bool> ap = ancestors(p);
    for (uint32_t q = 0; q < n; ++q) {
      if (p == q) continue;
      const std::vector<bool> aq = ancestors(q);
      for (const NodePair& pair : set->pairs()) {
        if (ap[pair.a] && aq[pair.b]) {
          const double exact = fx.exact->Distance(p, q);
          EXPECT_LE(std::abs(pair.distance - exact), eps * exact + 1e-9);
        }
      }
    }
  }
}

TEST(NodePairSet, LookupMatchesPairs) {
  Fixture fx(13, 53);
  StatusOr<NodePairSet> set =
      NodePairSet::Generate(fx.ct, 0.2, fx.DistFn(), nullptr);
  ASSERT_TRUE(set.ok());
  for (const NodePair& pair : set->pairs()) {
    double d;
    ASSERT_TRUE(set->Lookup(pair.a, pair.b, &d));
    EXPECT_EQ(d, pair.distance);
  }
  // A pair not in the set must miss.
  double d;
  uint32_t a = fx.ct.leaf_of_poi(0);
  // (leaf, leaf-of-different-subtree) at mismatched combination is unlikely
  // to be in the set together with its own reverse at all levels; probe a
  // definitely-absent id pair.
  EXPECT_FALSE(set->Lookup(a, static_cast<uint32_t>(fx.ct.num_nodes() + 5),
                           &d));
}

TEST(NodePairSet, SmallerEpsMorePairs) {
  Fixture fx(16, 59);
  NodePairSetStats coarse_stats, fine_stats;
  StatusOr<NodePairSet> coarse =
      NodePairSet::Generate(fx.ct, 0.5, fx.DistFn(), &coarse_stats);
  StatusOr<NodePairSet> fine =
      NodePairSet::Generate(fx.ct, 0.05, fx.DistFn(), &fine_stats);
  ASSERT_TRUE(coarse.ok() && fine.ok());
  EXPECT_GE(fine->size(), coarse->size());
  EXPECT_GE(fine_stats.pairs_considered, coarse_stats.pairs_considered);
  // Lower bound: at least one pair per ordered POI pair partition; upper
  // bound sanity: considered pairs bounded by O(n h / eps^2beta) — loose
  // numeric guard against blowup.
  EXPECT_LT(fine_stats.pairs_considered, 200000u);
}

TEST(NodePairSet, InvalidEpsilonRejected) {
  Fixture fx(6, 61);
  EXPECT_FALSE(NodePairSet::Generate(fx.ct, 0.0, fx.DistFn(), nullptr).ok());
  EXPECT_FALSE(NodePairSet::Generate(fx.ct, -1.0, fx.DistFn(), nullptr).ok());
}

TEST(NodePairSet, SelfPairsHaveZeroDistance) {
  Fixture fx(10, 67);
  StatusOr<NodePairSet> set =
      NodePairSet::Generate(fx.ct, 0.3, fx.DistFn(), nullptr);
  ASSERT_TRUE(set.ok());
  for (uint32_t p = 0; p < fx.ds->pois.size(); ++p) {
    const uint32_t leaf = fx.ct.leaf_of_poi(p);
    double d;
    ASSERT_TRUE(set->Lookup(leaf, leaf, &d)) << "poi " << p;
    EXPECT_EQ(d, 0.0);
  }
}

}  // namespace
}  // namespace tso
