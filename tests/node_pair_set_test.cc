#include "oracle/node_pair_set.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

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

  StatusOr<NodePairSet> Generate(double eps,
                                 NodePairSetStats* stats = nullptr) {
    return NodePairSet::Generate(ct, eps, CoveringRadii(ct, DistFn()),
                                 DistFn(), stats);
  }
};

TEST(NodePairSet, AllPairsWellSeparated) {
  // Every stored pair passes the covering-radius separation test.
  Fixture fx(15, 31);
  const double eps = 0.2;
  const std::vector<double> radii = CoveringRadii(fx.ct, fx.DistFn());
  StatusOr<NodePairSet> set = fx.Generate(eps);
  ASSERT_TRUE(set.ok());
  const double sep = 1.0 / eps + 1.0;
  for (const NodePair& pair : set->pairs()) {
    const auto& na = fx.ct.node(pair.a);
    const auto& nb = fx.ct.node(pair.b);
    EXPECT_GE(pair.distance, sep * (radii[pair.a] + radii[pair.b]));
    EXPECT_NEAR(pair.distance, fx.exact->Distance(na.center, nb.center),
                1e-9 * (1.0 + pair.distance));
  }
}

TEST(NodePairSet, CoveringRadiiAreMeasuredCenterDistances) {
  // ρ(O) is the largest distance from O's center to a POI under O: within
  // the Distance-property bound 2·r_O, 0 at the leaves, and attained.
  Fixture fx(15, 31);
  const std::vector<double> radii = CoveringRadii(fx.ct, fx.DistFn());
  ASSERT_EQ(radii.size(), fx.ct.num_nodes());
  std::vector<double> farthest(fx.ct.num_nodes(), 0.0);
  for (uint32_t p = 0; p < fx.ds->pois.size(); ++p) {
    for (uint32_t o = fx.ct.leaf_of_poi(p); o != kInvalidId;
         o = fx.ct.node(o).parent) {
      farthest[o] = std::max(farthest[o],
                             fx.exact->Distance(fx.ct.node(o).center, p));
    }
  }
  for (uint32_t o = 0; o < fx.ct.num_nodes(); ++o) {
    const auto& node = fx.ct.node(o);
    EXPECT_EQ(radii[o], farthest[o]) << o;
    EXPECT_LE(radii[o], 2.0 * node.radius + 1e-9) << o;
    if (node.num_children == 0) {
      EXPECT_EQ(radii[o], 0.0) << o;
    }
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
        fx.Generate(0.25);
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
      fx.Generate(eps);
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
      fx.Generate(0.2);
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
      fx.Generate(0.5, &coarse_stats);
  StatusOr<NodePairSet> fine =
      fx.Generate(0.05, &fine_stats);
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
  EXPECT_FALSE(fx.Generate(0.0).ok());
  EXPECT_FALSE(fx.Generate(-1.0).ok());
}

TEST(NodePairSet, RadiiMustCoverEveryNode) {
  Fixture fx(6, 61);
  const std::vector<double> short_radii(fx.ct.num_nodes() - 1, 0.0);
  EXPECT_EQ(NodePairSet::Generate(fx.ct, 0.25, short_radii, fx.DistFn())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(NodePairSet, SelfPairsHaveZeroDistance) {
  Fixture fx(10, 67);
  StatusOr<NodePairSet> set =
      fx.Generate(0.3);
  ASSERT_TRUE(set.ok());
  for (uint32_t p = 0; p < fx.ds->pois.size(); ++p) {
    const uint32_t leaf = fx.ct.leaf_of_poi(p);
    double d;
    ASSERT_TRUE(set->Lookup(leaf, leaf, &d)) << "poi " << p;
    EXPECT_EQ(d, 0.0);
  }
}

TEST(NodePairSet, KeyWidthBoundary) {
  // One pair set over 65,535 ids (4-byte keys) and over 65,536 (8-byte
  // keys): the hash is computed on the 64-bit key either way, so the pilots
  // and the slot order agree, and the exact 16-bit compare answers every
  // probe as the 64-bit compare does, including ids >= 2^16 that a
  // truncated shift would alias onto a stored key.
  std::vector<NodePair> pairs = {{0, 0, 0.0},
                                 {1, 0, 1.5},
                                 {1, 5, 2.5},
                                 {0, 0xFFFE, 3.5},
                                 {0xFFFE, 0xFFFE, 4.5}};
  Rng rng(71);
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (const NodePair& p : pairs) seen.emplace(p.a, p.b);
  while (pairs.size() < 5000) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(0xFFFF));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(0xFFFF));
    if (seen.emplace(a, b).second) pairs.push_back({a, b, 0.25 * a + b});
  }
  StatusOr<NodePairSet> narrow = NodePairSet::FromPairs(pairs, 0xFFFF);
  StatusOr<NodePairSet> wide = NodePairSet::FromPairs(pairs, 0x10000);
  ASSERT_TRUE(narrow.ok() && wide.ok());
  const NodePairSetView nv = narrow->view();
  const NodePairSetView wv = wide->view();
  EXPECT_EQ(nv.key_width(), 4u);
  EXPECT_EQ(wv.key_width(), 8u);
  EXPECT_EQ(nv.keys().size(), 4 * nv.num_slots());
  EXPECT_EQ(wv.keys().size(), 8 * wv.num_slots());

  EXPECT_EQ(nv.hash().seed(), wv.hash().seed());
  EXPECT_EQ(nv.num_slots(), wv.num_slots());
  EXPECT_TRUE(std::ranges::equal(nv.hash().pilots(), wv.hash().pilots()));
  EXPECT_TRUE(std::ranges::equal(nv.distances(), wv.distances()));
  std::vector<std::pair<uint32_t, uint32_t>> narrow_order, wide_order;
  for (const NodePair& p : nv.pairs()) narrow_order.emplace_back(p.a, p.b);
  for (const NodePair& p : wv.pairs()) wide_order.emplace_back(p.a, p.b);
  EXPECT_EQ(narrow_order.size(), pairs.size());
  EXPECT_EQ(narrow_order, wide_order);

  const auto same_answer = [&](uint32_t a, uint32_t b) {
    double dn = -1.0, dw = -1.0;
    const bool hn = nv.Lookup(a, b, &dn);
    const bool hw = wv.Lookup(a, b, &dw);
    EXPECT_EQ(hn, hw) << a << "," << b;
    EXPECT_EQ(dn, dw) << a << "," << b;
    return hn;
  };
  for (const NodePair& p : pairs) {
    EXPECT_TRUE(same_answer(p.a, p.b)) << p.a << "," << p.b;
    EXPECT_FALSE(same_answer(p.a + 0x10000, p.b));
    EXPECT_FALSE(same_answer(p.a, p.b + 0x10000));
  }
  for (const auto& [a, b] : {std::pair<uint32_t, uint32_t>{0xFFFF, 0xFFFF},
                             {0x10000, 5},
                             {0x10001, 0},
                             {1, 0x10000},
                             {0, 0x10005},
                             {kInvalidId, kInvalidId}}) {
    EXPECT_FALSE(same_answer(a, b)) << a << "," << b;
  }

  // An empty set has one slot, and it is empty: every probe reads the
  // all-ones key, which must match nothing at either width.
  StatusOr<NodePairSet> empty_narrow = NodePairSet::FromPairs({}, 0xFFFF);
  StatusOr<NodePairSet> empty_wide = NodePairSet::FromPairs({}, 0x10000);
  ASSERT_TRUE(empty_narrow.ok() && empty_wide.ok());
  double d;
  for (const NodePairSetView& v :
       {empty_narrow->view(), empty_wide->view(), NodePairSetView()}) {
    EXPECT_FALSE(v.Lookup(0xFFFF, 0xFFFF, &d));
    EXPECT_FALSE(v.Lookup(kInvalidId, kInvalidId, &d));
    EXPECT_FALSE(v.Lookup(0, 0, &d));
  }

  // Every id must be below num_ids.
  const NodePair last[] = {{0xFFFE, 0xFFFF, 1.0}};
  const NodePair first[] = {{0xFFFF, 0, 1.0}};
  const NodePair past[] = {{0, 0x10000, 1.0}};
  EXPECT_EQ(NodePairSet::FromPairs(last, 0xFFFF).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(NodePairSet::FromPairs(first, 0xFFFF).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(NodePairSet::FromPairs(last, 0x10000).ok());
  EXPECT_EQ(NodePairSet::FromPairs(past, 0x10000).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tso
