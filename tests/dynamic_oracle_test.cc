#include "dyn/dynamic_oracle.h"

#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "geodesic/mmp_solver.h"
#include "oracle/oracle_serde.h"
#include "terrain/dataset.h"
#include "terrain/poi_generator.h"

namespace tso {
namespace {

struct DynFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<MmpSolver> solver;

  explicit DynFixture(uint64_t seed = 5)
      : ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, 400, 15,
                            seed)) {
    TSO_CHECK(ds.ok());
    solver = std::make_unique<MmpSolver>(*ds->mesh);
  }

  std::unique_ptr<DynamicSeOracle> BuildDyn(double eps = 0.1,
                                            double ratio = 0.25) {
    DynamicOracleOptions options;
    options.base.epsilon = eps;
    options.compaction_ratio = ratio;
    StatusOr<std::unique_ptr<DynamicSeOracle>> oracle =
        DynamicSeOracle::Create(*ds->mesh, ds->pois, *solver, options);
    TSO_CHECK(oracle.ok());
    return std::move(*oracle);
  }
};

TEST(DynamicOracle, BaseQueriesWithinEpsilon) {
  DynFixture fx;
  std::unique_ptr<DynamicSeOracle> oracle = fx.BuildDyn(0.1);
  for (uint32_t s = 0; s < fx.ds->n(); ++s) {
    for (uint32_t t = s + 1; t < fx.ds->n(); ++t) {
      const double truth =
          fx.solver->PointToPoint(fx.ds->pois[s], fx.ds->pois[t]).value();
      EXPECT_LE(std::abs(*oracle->Distance(s, t) - truth),
                0.1 * truth + 1e-9);
    }
  }
}

TEST(DynamicOracle, InsertedPoiQueriesAreExact) {
  DynFixture fx(7);
  std::unique_ptr<DynamicSeOracle> oracle =
      fx.BuildDyn(0.1, /*ratio=*/10.0);  // no compaction
  Rng rng(3);
  std::vector<SurfacePoint> extra =
      GenerateUniformPois(*fx.ds->mesh, *fx.ds->locator, 5, rng);
  std::vector<uint32_t> ids;
  for (const SurfacePoint& p : extra) {
    StatusOr<uint32_t> id = oracle->Insert(p);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_EQ(oracle->stats().compactions, 0u);
  // Delta-to-base: exact.
  for (uint32_t id : ids) {
    for (uint32_t b = 0; b < fx.ds->n(); ++b) {
      const double truth =
          fx.solver->PointToPoint(oracle->poi(id), fx.ds->pois[b]).value();
      EXPECT_NEAR(*oracle->Distance(id, b), truth, 1e-6 * (1.0 + truth));
      EXPECT_NEAR(*oracle->Distance(b, id), truth, 1e-6 * (1.0 + truth));
    }
  }
  // Delta-to-delta (younger row covers older id): exact.
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      const double truth =
          fx.solver->PointToPoint(oracle->poi(ids[i]), oracle->poi(ids[j]))
              .value();
      EXPECT_NEAR(*oracle->Distance(ids[i], ids[j]), truth,
                  1e-6 * (1.0 + truth));
    }
  }
}

TEST(DynamicOracle, RemoveTombstones) {
  DynFixture fx(9);
  std::unique_ptr<DynamicSeOracle> oracle = fx.BuildDyn();
  ASSERT_TRUE(oracle->Remove(3).ok());
  EXPECT_FALSE(oracle->IsLive(3));
  EXPECT_EQ(oracle->num_live(), fx.ds->n() - 1);
  StatusOr<double> dead = oracle->Distance(3, 1);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(oracle->Distance(1, 3).ok());
  Status again = oracle->Remove(3);  // double-remove rejected, as NotFound
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kNotFound);
  // Other pairs unaffected.
  EXPECT_TRUE(oracle->Distance(1, 2).ok());
}

// The satellite regression: stable ids are never reused across
// Remove+Compact, and a tombstoned id keeps answering NotFound (never a
// stale distance) even after the id's slot has been through a compaction.
TEST(DynamicOracle, StableIdsNeverReusedAcrossRemoveAndCompact) {
  DynFixture fx(19);
  std::unique_ptr<DynamicSeOracle> oracle = fx.BuildDyn(0.1, /*ratio=*/10.0);
  Rng rng(23);
  std::vector<SurfacePoint> extra =
      GenerateUniformPois(*fx.ds->mesh, *fx.ds->locator, 8, rng);

  std::vector<uint32_t> seen;
  for (uint32_t i = 0; i < fx.ds->n(); ++i) seen.push_back(i);
  size_t next = 0;
  auto insert_one = [&]() {
    StatusOr<uint32_t> id = oracle->Insert(extra[next++]);
    ASSERT_TRUE(id.ok());
    // Never an id we have seen before — not a base id, not a removed id.
    for (uint32_t old : seen) ASSERT_NE(*id, old);
    seen.push_back(*id);
  };

  insert_one();
  const uint32_t first = seen.back();
  ASSERT_TRUE(oracle->Remove(first).ok());
  insert_one();  // must not resurrect `first`
  ASSERT_TRUE(oracle->Compact().ok());
  insert_one();  // compaction must not reset the id allocator
  ASSERT_TRUE(oracle->Remove(2).ok());
  ASSERT_TRUE(oracle->Compact().ok());
  insert_one();

  // Tombstoned ids answer NotFound, not a stale (or remapped) distance.
  for (uint32_t dead : {first, 2u}) {
    EXPECT_FALSE(oracle->IsLive(dead));
    StatusOr<double> d = oracle->Distance(dead, seen.back());
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kNotFound);
  }
  // Live ids all answer.
  for (uint32_t id : seen) {
    if (!oracle->IsLive(id)) continue;
    if (id == seen.back()) continue;
    EXPECT_TRUE(oracle->Distance(id, seen.back()).ok()) << id;
  }
}

TEST(DynamicOracle, CompactionPreservesAnswers) {
  DynFixture fx(11);
  std::unique_ptr<DynamicSeOracle> oracle = fx.BuildDyn(0.1, /*ratio=*/10.0);
  Rng rng(5);
  std::vector<SurfacePoint> extra =
      GenerateUniformPois(*fx.ds->mesh, *fx.ds->locator, 6, rng);
  std::vector<uint32_t> ids;
  for (const SurfacePoint& p : extra) ids.push_back(*oracle->Insert(p));
  ASSERT_TRUE(oracle->Remove(0).ok());
  ASSERT_TRUE(oracle->Remove(ids[1]).ok());

  // Snapshot all live ids, then force a compaction.
  std::vector<uint32_t> live;
  for (uint32_t id = 0; id < oracle->num_ids(); ++id) {
    if (oracle->IsLive(id)) live.push_back(id);
  }
  ASSERT_TRUE(oracle->Compact().ok());
  EXPECT_EQ(oracle->stats().compactions, 1u);
  EXPECT_EQ(oracle->stats().delta_size, 0u);
  for (uint32_t s : live) {
    for (uint32_t t : live) {
      if (s == t) continue;
      const double truth =
          fx.solver->PointToPoint(oracle->poi(s), oracle->poi(t)).value();
      StatusOr<double> d = oracle->Distance(s, t);
      ASSERT_TRUE(d.ok()) << s << "," << t;
      EXPECT_LE(std::abs(*d - truth), 0.1 * truth + 1e-9) << s << "," << t;
    }
  }
  // Tombstoned ids stay dead across compaction.
  EXPECT_FALSE(oracle->Distance(0, live[0]).ok());
}

// The tentpole consistency contract: after a quiesced compaction, every
// answer is bit-identical to a from-scratch static SeOracle::Build over the
// surviving POIs in ascending stable-id order.
TEST(DynamicOracle, QuiescedCompactionBitIdenticalToStaticBuild) {
  DynFixture fx(21);
  std::unique_ptr<DynamicSeOracle> oracle = fx.BuildDyn(0.1, /*ratio=*/10.0);
  Rng rng(29);
  std::vector<SurfacePoint> extra =
      GenerateUniformPois(*fx.ds->mesh, *fx.ds->locator, 5, rng);
  for (const SurfacePoint& p : extra) ASSERT_TRUE(oracle->Insert(p).ok());
  ASSERT_TRUE(oracle->Remove(1).ok());
  ASSERT_TRUE(oracle->Remove(4).ok());
  ASSERT_TRUE(oracle->Compact().ok());

  std::vector<uint32_t> live;
  std::vector<SurfacePoint> survivors;
  for (uint32_t id = 0; id < oracle->num_ids(); ++id) {
    if (!oracle->IsLive(id)) continue;
    live.push_back(id);
    survivors.push_back(oracle->poi(id));
  }
  DynamicOracleOptions options;
  options.base.epsilon = 0.1;
  StatusOr<SeOracle> fresh =
      SeOracle::Build(*fx.ds->mesh, survivors, *fx.solver, options.base);
  ASSERT_TRUE(fresh.ok());
  for (size_t i = 0; i < live.size(); ++i) {
    for (size_t j = 0; j < live.size(); ++j) {
      if (i == j) continue;
      const double expect =
          fresh->Distance(static_cast<uint32_t>(i), static_cast<uint32_t>(j))
              .value();
      EXPECT_EQ(*oracle->Distance(live[i], live[j]), expect)
          << live[i] << "," << live[j];
    }
  }
}

TEST(DynamicOracle, AutomaticCompactionTriggers) {
  DynFixture fx(13);
  std::unique_ptr<DynamicSeOracle> oracle = fx.BuildDyn(0.15, /*ratio=*/0.25);
  Rng rng(7);
  std::vector<SurfacePoint> extra =
      GenerateUniformPois(*fx.ds->mesh, *fx.ds->locator, 10, rng);
  for (const SurfacePoint& p : extra) ASSERT_TRUE(oracle->Insert(p).ok());
  EXPECT_GE(oracle->stats().compactions, 1u);
  // All 25 live POIs answer within epsilon after the rebuild(s).
  Rng qrng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t s = static_cast<uint32_t>(qrng.Uniform(oracle->num_ids()));
    const uint32_t t = static_cast<uint32_t>(qrng.Uniform(oracle->num_ids()));
    if (s == t || !oracle->IsLive(s) || !oracle->IsLive(t)) continue;
    const double truth =
        fx.solver->PointToPoint(oracle->poi(s), oracle->poi(t)).value();
    EXPECT_LE(std::abs(*oracle->Distance(s, t) - truth),
              0.15 * truth + 1e-9);
  }
}

// The dynamic oracle flattens to the unified query interface: engines see
// stable ids, skip tombstones, and report dead query ids as NotFound.
TEST(DynamicOracle, QueryEnginesRunOverPinnedSnapshot) {
  DynFixture fx(23);
  std::unique_ptr<DynamicSeOracle> oracle = fx.BuildDyn(0.1, /*ratio=*/10.0);
  Rng rng(31);
  std::vector<SurfacePoint> extra =
      GenerateUniformPois(*fx.ds->mesh, *fx.ds->locator, 3, rng);
  std::vector<uint32_t> ids;
  for (const SurfacePoint& p : extra) ids.push_back(*oracle->Insert(p));
  ASSERT_TRUE(oracle->Remove(2).ok());

  DynamicSeOracle::PinnedSource pinned = MakeSource(*oracle);
  const DistanceSource& source = pinned.source();
  EXPECT_TRUE(source.has_overlay());

  StatusOr<std::vector<KnnResult>> knn = KnnQuery(source, ids[0], 5);
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn->size(), 5u);
  for (const KnnResult& r : *knn) {
    EXPECT_NE(r.poi, 2u);  // tombstone skipped
    EXPECT_TRUE(oracle->IsLive(r.poi));
  }
  // Pruned kNN falls back to the linear scan for overlay sources; results
  // must match exactly.
  StatusOr<std::vector<KnnResult>> pruned = KnnQueryPruned(source, ids[0], 5);
  ASSERT_TRUE(pruned.ok());
  ASSERT_EQ(pruned->size(), knn->size());
  for (size_t i = 0; i < knn->size(); ++i) {
    EXPECT_EQ((*pruned)[i].poi, (*knn)[i].poi);
    EXPECT_EQ((*pruned)[i].distance, (*knn)[i].distance);
  }

  StatusOr<std::vector<uint32_t>> range = RangeQuery(source, ids[0], 1e12);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), oracle->num_live() - 1);

  // Dead query id: NotFound from every engine.
  EXPECT_EQ(KnnQuery(source, 2, 3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(RangeQuery(source, 2, 10.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(source.Distance(2, ids[0]).status().code(),
            StatusCode::kNotFound);

  // A fresh pin per call answers like the held one.
  StatusOr<std::vector<KnnResult>> knn2 =
      KnnQuery(MakeSource(*oracle), ids[0], 5);
  ASSERT_TRUE(knn2.ok());
  EXPECT_EQ((*knn2)[0].poi, (*knn)[0].poi);
  std::vector<std::pair<uint32_t, uint32_t>> pairs = {{0, 1}, {ids[0], 3}};
  StatusOr<std::vector<double>> batch =
      DistanceBatch(MakeSource(*oracle), pairs, 2);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)[0], *oracle->Distance(0, 1));
  EXPECT_EQ((*batch)[1], *oracle->Distance(ids[0], 3));
}

// Mounting the dynamic layer on a mapped flat oracle (FromView). Without a
// mesh/solver the layer is remove-only: removes work, inserts and
// compactions report FailedPrecondition.
TEST(DynamicOracle, FromViewMountIsRemoveOnlyWithoutSolver) {
  DynFixture fx(25);
  StatusOr<SeOracle> base = SeOracle::Build(*fx.ds->mesh, fx.ds->pois,
                                            *fx.solver, {.epsilon = 0.1});
  ASSERT_TRUE(base.ok());
  const std::string path =
      testing::TempDir() + "/dyn_from_view_test.tsoflat";
  ASSERT_TRUE(SaveSeOracleFlat(*base, path).ok());
  StatusOr<OracleView> view = OracleView::Open(path);
  ASSERT_TRUE(view.ok());

  DynamicOracleOptions options;
  options.base.epsilon = 0.1;
  StatusOr<std::unique_ptr<DynamicSeOracle>> dyn = DynamicSeOracle::FromView(
      std::move(*view), /*mesh=*/nullptr, /*solver=*/nullptr, options);
  ASSERT_TRUE(dyn.ok());

  // Base answers are bit-identical to the in-memory oracle.
  for (uint32_t s = 0; s < 5; ++s) {
    for (uint32_t t = s + 1; t < 5; ++t) {
      EXPECT_EQ(*(*dyn)->Distance(s, t), *base->Distance(s, t));
    }
  }
  ASSERT_TRUE((*dyn)->Remove(0).ok());
  EXPECT_FALSE((*dyn)->IsLive(0));
  EXPECT_EQ((*dyn)->Distance(0, 1).status().code(), StatusCode::kNotFound);

  SurfacePoint p = (*dyn)->poi(1);
  StatusOr<uint32_t> ins = (*dyn)->Insert(p);
  ASSERT_FALSE(ins.ok());
  EXPECT_EQ(ins.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*dyn)->Compact().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// Mounting on an arbitrary DistanceSource (here: another oracle's) with a
// full mesh+solver keeps the whole mutation surface.
TEST(DynamicOracle, FromSourceMountSupportsChurn) {
  DynFixture fx(27);
  StatusOr<SeOracle> base = SeOracle::Build(*fx.ds->mesh, fx.ds->pois,
                                            *fx.solver, {.epsilon = 0.1});
  ASSERT_TRUE(base.ok());
  DistanceSource source = MakeSource(*base);

  DynamicOracleOptions options;
  options.base.epsilon = 0.1;
  options.compaction_ratio = 10.0;
  StatusOr<std::unique_ptr<DynamicSeOracle>> dyn = DynamicSeOracle::FromSource(
      source, fx.ds->mesh.get(), fx.solver.get(), options);
  ASSERT_TRUE(dyn.ok());

  Rng rng(33);
  std::vector<SurfacePoint> extra =
      GenerateUniformPois(*fx.ds->mesh, *fx.ds->locator, 2, rng);
  StatusOr<uint32_t> id = (*dyn)->Insert(extra[0]);
  ASSERT_TRUE(id.ok());
  const double truth =
      fx.solver->PointToPoint(extra[0], fx.ds->pois[3]).value();
  EXPECT_NEAR(*(*dyn)->Distance(*id, 3), truth, 1e-6 * (1.0 + truth));
  ASSERT_TRUE((*dyn)->Remove(0).ok());
  // Compaction re-bases onto a built SeOracle; the borrowed source is no
  // longer referenced afterwards.
  ASSERT_TRUE((*dyn)->Compact().ok());
  EXPECT_TRUE((*dyn)->Distance(*id, 3).ok());
}

// A failed write changes nothing: the "dyn.merge" failpoint fires before
// the fold, so a failed Insert burns its id without ever making it live,
// and a failed Remove leaves its POI live for a retry.
TEST(DynamicOracle, FailedWritesAreDeterminate) {
  failpoint::DisarmAll();
  DynFixture fx(29);
  std::unique_ptr<DynamicSeOracle> oracle = fx.BuildDyn(0.1, /*ratio=*/10.0);
  Rng rng(41);
  std::vector<SurfacePoint> extra =
      GenerateUniformPois(*fx.ds->mesh, *fx.ds->locator, 2, rng);
  const size_t base = fx.ds->n();
  const uint32_t burned = static_cast<uint32_t>(oracle->num_ids());

  ASSERT_TRUE(failpoint::Arm("dyn.merge", "1*error").ok());
  StatusOr<uint32_t> failed = oracle->Insert(extra[0]);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("dyn.merge"), std::string::npos);
  EXPECT_FALSE(oracle->IsLive(burned));
  EXPECT_EQ(oracle->num_live(), base);

  StatusOr<uint32_t> inserted = oracle->Insert(extra[1]);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, burned + 1);  // the burned id is never reused
  EXPECT_FALSE(oracle->IsLive(burned));
  EXPECT_EQ(oracle->Distance(burned, 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(oracle->num_live(), base + 1);
  ASSERT_TRUE(oracle->Compact().ok());
  EXPECT_FALSE(oracle->IsLive(burned));
  EXPECT_EQ(oracle->num_live(), base + 1);

  ASSERT_TRUE(failpoint::Arm("dyn.merge", "1*error").ok());
  EXPECT_FALSE(oracle->Remove(*inserted).ok());
  EXPECT_TRUE(oracle->IsLive(*inserted));
  EXPECT_TRUE(oracle->Distance(*inserted, 0).ok());
  EXPECT_EQ(oracle->num_live(), base + 1);
  ASSERT_TRUE(oracle->Remove(*inserted).ok());
  EXPECT_FALSE(oracle->IsLive(*inserted));
  EXPECT_EQ(oracle->num_live(), base);
  EXPECT_EQ(failpoint::Triggered("dyn.merge"), 2u);
  failpoint::DisarmAll();
}

TEST(DynamicOracle, InvalidIdsRejected) {
  DynFixture fx(15);
  std::unique_ptr<DynamicSeOracle> oracle = fx.BuildDyn();
  EXPECT_FALSE(oracle->Distance(0, 999).ok());
  Status rm = oracle->Remove(999);
  ASSERT_FALSE(rm.ok());
  EXPECT_EQ(rm.code(), StatusCode::kNotFound);
}

TEST(DynamicOracle, SizeAccountsForDelta) {
  DynFixture fx(17);
  std::unique_ptr<DynamicSeOracle> oracle = fx.BuildDyn(0.1, /*ratio=*/10.0);
  const size_t before = oracle->SizeBytes();
  Rng rng(11);
  std::vector<SurfacePoint> extra =
      GenerateUniformPois(*fx.ds->mesh, *fx.ds->locator, 3, rng);
  for (const SurfacePoint& p : extra) ASSERT_TRUE(oracle->Insert(p).ok());
  EXPECT_GT(oracle->SizeBytes(), before);
  const DynamicStats stats = oracle->stats();
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.delta_size, 3u);
  EXPECT_EQ(stats.num_ids, fx.ds->n() + 3);  // every allocated id published
  EXPECT_EQ(stats.live_pois, fx.ds->n() + 3);
  EXPECT_GE(stats.publishes, 3u);
}

}  // namespace
}  // namespace tso
