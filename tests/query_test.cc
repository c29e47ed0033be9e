#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "geodesic/mmp_solver.h"
#include "oracle/se_oracle.h"
#include "query/knn.h"
#include "query/range_query.h"
#include "terrain/dataset.h"

namespace tso {
namespace {

struct QueryFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<MmpSolver> solver;
  std::unique_ptr<SeOracle> oracle;

  explicit QueryFixture(double epsilon = 0.1)
      : ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, 400, 25, 19)) {
    TSO_CHECK(ds.ok());
    solver = std::make_unique<MmpSolver>(*ds->mesh);
    SeOracleOptions options;
    options.epsilon = epsilon;
    StatusOr<SeOracle> built =
        SeOracle::Build(*ds->mesh, ds->pois, *solver, options, nullptr);
    TSO_CHECK(built.ok());
    oracle = std::make_unique<SeOracle>(std::move(*built));
  }
};

TEST(Knn, MatchesBruteForceOverOracleMetric) {
  QueryFixture fx;
  const uint32_t q = 3;
  StatusOr<std::vector<KnnResult>> knn = KnnQuery(MakeSource(*fx.oracle), q, 5);
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn->size(), 5u);
  // Brute force over the same oracle distances.
  std::vector<KnnResult> brute;
  for (uint32_t p = 0; p < fx.oracle->num_pois(); ++p) {
    if (p == q) continue;
    brute.push_back({p, *fx.oracle->Distance(q, p)});
  }
  std::sort(brute.begin(), brute.end(), [](const auto& a, const auto& b) {
    return a.distance != b.distance ? a.distance < b.distance
                                    : a.poi < b.poi;
  });
  for (size_t i = 0; i < knn->size(); ++i) {
    EXPECT_EQ((*knn)[i].poi, brute[i].poi);
    EXPECT_EQ((*knn)[i].distance, brute[i].distance);
  }
  // Sorted ascending.
  for (size_t i = 1; i < knn->size(); ++i) {
    EXPECT_GE((*knn)[i].distance, (*knn)[i - 1].distance);
  }
}

TEST(Knn, PrunedMatchesLinearScan) {
  QueryFixture fx;
  for (uint32_t q : {0u, 5u, 11u, 20u}) {
    for (size_t k : {1ul, 3ul, 8ul}) {
      StatusOr<std::vector<KnnResult>> linear = KnnQuery(MakeSource(*fx.oracle), q, k);
      StatusOr<std::vector<KnnResult>> pruned =
          KnnQueryPruned(MakeSource(*fx.oracle), q, k);
      ASSERT_TRUE(linear.ok() && pruned.ok());
      ASSERT_EQ(pruned->size(), linear->size());
      for (size_t i = 0; i < linear->size(); ++i) {
        EXPECT_EQ((*pruned)[i].poi, (*linear)[i].poi)
            << "q=" << q << " k=" << k;
        EXPECT_EQ((*pruned)[i].distance, (*linear)[i].distance);
      }
    }
  }
}

TEST(Knn, PrunedHandlesKLargerThanN) {
  QueryFixture fx;
  StatusOr<std::vector<KnnResult>> pruned = KnnQueryPruned(MakeSource(*fx.oracle), 0, 999);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->size(), fx.oracle->num_pois() - 1);
}

TEST(Knn, PrunedInvalidQueryRejected) {
  QueryFixture fx;
  EXPECT_FALSE(KnnQueryPruned(MakeSource(*fx.oracle), 999, 3).ok());
}

TEST(Knn, KLargerThanNReturnsAll) {
  QueryFixture fx;
  StatusOr<std::vector<KnnResult>> knn = KnnQuery(MakeSource(*fx.oracle), 0, 999);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->size(), fx.oracle->num_pois() - 1);
}

TEST(Knn, InvalidQueryRejected) {
  QueryFixture fx;
  EXPECT_FALSE(KnnQuery(MakeSource(*fx.oracle), 999, 3).ok());
}

TEST(Knn, KZeroReturnsEmptyInBothVariants) {
  QueryFixture fx;
  StatusOr<std::vector<KnnResult>> linear = KnnQuery(MakeSource(*fx.oracle), 3, 0);
  ASSERT_TRUE(linear.ok());
  EXPECT_TRUE(linear->empty());
  // Regression: the pruned variant used to call best.front() on an empty
  // candidate heap when k == 0.
  StatusOr<std::vector<KnnResult>> pruned = KnnQueryPruned(MakeSource(*fx.oracle), 3, 0);
  ASSERT_TRUE(pruned.ok());
  EXPECT_TRUE(pruned->empty());
  // Out-of-range query ids are rejected even for k == 0.
  EXPECT_FALSE(KnnQuery(MakeSource(*fx.oracle), 999, 0).ok());
  EXPECT_FALSE(KnnQueryPruned(MakeSource(*fx.oracle), 999, 0).ok());
}

TEST(Knn, DistanceTiesBrokenIdenticallyInBothVariants) {
  // A coarse ε makes node pairs coarse: every POI of a far-away subtree is
  // answered from the same (ancestor, ancestor) center distance, so exact
  // oracle-distance ties are common. Both kNN variants must break them the
  // same way (by POI id) at every k, including ks that split a tie group.
  QueryFixture fx(0.5);
  const size_t n = fx.oracle->num_pois();
  size_t ties = 0;
  for (uint32_t q = 0; q < n; ++q) {
    std::vector<double> dists;
    for (uint32_t p = 0; p < n; ++p) {
      if (p != q) dists.push_back(*fx.oracle->Distance(q, p));
    }
    std::sort(dists.begin(), dists.end());
    for (size_t i = 1; i < dists.size(); ++i) {
      if (dists[i] == dists[i - 1]) ++ties;
    }
  }
  ASSERT_GT(ties, 0u) << "fixture produced no exact distance ties; "
                         "coarsen epsilon to restore the tie coverage";
  for (uint32_t q = 0; q < n; ++q) {
    for (size_t k = 1; k < n; ++k) {
      StatusOr<std::vector<KnnResult>> linear = KnnQuery(MakeSource(*fx.oracle), q, k);
      StatusOr<std::vector<KnnResult>> pruned =
          KnnQueryPruned(MakeSource(*fx.oracle), q, k);
      ASSERT_TRUE(linear.ok() && pruned.ok());
      ASSERT_EQ(pruned->size(), linear->size());
      for (size_t i = 0; i < linear->size(); ++i) {
        ASSERT_EQ((*pruned)[i].poi, (*linear)[i].poi)
            << "q=" << q << " k=" << k << " i=" << i;
        ASSERT_EQ((*pruned)[i].distance, (*linear)[i].distance);
      }
    }
  }
}

TEST(Range, MatchesPredicate) {
  QueryFixture fx;
  const uint32_t q = 7;
  const double radius = 500.0;
  StatusOr<std::vector<uint32_t>> hits = RangeQuery(MakeSource(*fx.oracle), q, radius);
  ASSERT_TRUE(hits.ok());
  std::set<uint32_t> hit_set(hits->begin(), hits->end());
  for (uint32_t p = 0; p < fx.oracle->num_pois(); ++p) {
    if (p == q) continue;
    const bool inside = *fx.oracle->Distance(q, p) <= radius;
    EXPECT_EQ(hit_set.count(p) > 0, inside) << p;
  }
}

TEST(Range, ZeroRadiusEmpty) {
  QueryFixture fx;
  StatusOr<std::vector<uint32_t>> hits = RangeQuery(MakeSource(*fx.oracle), 0, 0.0);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(Range, NegativeRadiusRejected) {
  QueryFixture fx;
  EXPECT_FALSE(RangeQuery(MakeSource(*fx.oracle), 0, -1.0).ok());
  // NaN fails every comparison, so it must be rejected, not read as empty.
  EXPECT_EQ(RangeQuery(MakeSource(*fx.oracle), 0,
                       std::numeric_limits<double>::quiet_NaN())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Range, HugeRadiusReturnsAll) {
  QueryFixture fx;
  for (double radius : {1e12, std::numeric_limits<double>::infinity()}) {
    StatusOr<std::vector<uint32_t>> hits =
        RangeQuery(MakeSource(*fx.oracle), 0, radius);
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(hits->size(), fx.oracle->num_pois() - 1) << radius;
  }
}

}  // namespace
}  // namespace tso
