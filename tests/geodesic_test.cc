// Correctness tests for the geodesic solvers. The strongest checks run on a
// flat plane, where the exact geodesic distance equals the Euclidean
// distance; ordering properties (Euclid <= MMP <= Steiner <= Dijkstra) are
// checked on rugged synthetic terrain.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "geodesic/dijkstra_solver.h"
#include "geodesic/mmp_solver.h"
#include "geodesic/solver_factory.h"
#include "geodesic/steiner_graph.h"
#include "geodesic/steiner_solver.h"
#include "mesh/mesh_builder.h"
#include "mesh/point_locator.h"
#include "terrain/poi_generator.h"
#include "terrain/terrain_synth.h"

namespace tso {
namespace {

TerrainMesh FlatMesh(uint32_t side = 12, double cell = 1.0) {
  StatusOr<TerrainMesh> mesh =
      MeshFromFunction(side, side, cell, [](double, double) { return 0.0; });
  TSO_CHECK(mesh.ok());
  return std::move(*mesh);
}

TerrainMesh RuggedMesh(uint32_t target_vertices = 600, uint64_t seed = 5) {
  SynthSpec spec;
  spec.extent_x = 1000.0;
  spec.extent_y = 800.0;
  spec.amplitude = 250.0;
  spec.feature_size = 260.0;
  spec.seed = seed;
  StatusOr<TerrainMesh> mesh = SynthesizeMesh(spec, target_vertices);
  TSO_CHECK(mesh.ok());
  return std::move(*mesh);
}

// --- Flat-plane exactness ---

TEST(MmpFlat, VertexToVertexEqualsEuclidean) {
  TerrainMesh mesh = FlatMesh();
  MmpSolver solver(mesh);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t s = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const uint32_t t = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const SurfacePoint sp = SurfacePoint::AtVertex(mesh, s);
    const SurfacePoint tp = SurfacePoint::AtVertex(mesh, t);
    StatusOr<double> d = solver.PointToPoint(sp, tp);
    ASSERT_TRUE(d.ok());
    const double expect = Distance(mesh.vertex(s), mesh.vertex(t));
    EXPECT_NEAR(*d, expect, 1e-9 * (1.0 + expect)) << "pair " << s << " " << t;
  }
}

TEST(MmpFlat, FacePointsEqualEuclidean) {
  TerrainMesh mesh = FlatMesh();
  PointLocator locator(mesh);
  MmpSolver solver(mesh);
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    const double x0 = rng.UniformDouble(0.3, 10.7);
    const double y0 = rng.UniformDouble(0.3, 10.7);
    const double x1 = rng.UniformDouble(0.3, 10.7);
    const double y1 = rng.UniformDouble(0.3, 10.7);
    StatusOr<SurfacePoint> s = locator.Locate(x0, y0);
    StatusOr<SurfacePoint> t = locator.Locate(x1, y1);
    ASSERT_TRUE(s.ok() && t.ok());
    const SurfacePoint sn = NudgeInsideFace(mesh, *s, 1e-4);
    const SurfacePoint tn = NudgeInsideFace(mesh, *t, 1e-4);
    StatusOr<double> d = solver.PointToPoint(sn, tn);
    ASSERT_TRUE(d.ok());
    const double expect = Distance(sn.pos, tn.pos);
    EXPECT_NEAR(*d, expect, 1e-6 * (1.0 + expect));
  }
}

TEST(MmpFlat, FullSsadAllVerticesExact) {
  TerrainMesh mesh = FlatMesh(9);
  MmpSolver solver(mesh);
  const SurfacePoint src = SurfacePoint::AtVertex(mesh, 0);
  ASSERT_TRUE(solver.Run(src, {}).ok());
  EXPECT_EQ(solver.frontier(), kInfDist);
  for (uint32_t v = 0; v < mesh.num_vertices(); ++v) {
    const double expect = Distance(mesh.vertex(0), mesh.vertex(v));
    EXPECT_NEAR(solver.VertexDistance(v), expect, 1e-9 * (1.0 + expect));
  }
}

// A 4-sided pyramid: the geodesic between two base corners across the apex
// flank is computable by hand via unfolding.
TEST(MmpShape, PyramidOverTheTop) {
  // Base 2x2 centered at origin, apex height 2 at the center.
  std::vector<Vec3> vertices = {
      {-1, -1, 0}, {1, -1, 0}, {1, 1, 0}, {-1, 1, 0}, {0, 0, 2}};
  std::vector<std::array<uint32_t, 3>> faces = {
      {0, 1, 4}, {1, 2, 4}, {2, 3, 4}, {3, 0, 4}};
  StatusOr<TerrainMesh> mesh =
      TerrainMesh::FromSoup(std::move(vertices), std::move(faces));
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  MmpSolver solver(*mesh);
  // Distance from base corner 0 to base corner 2 (diagonal) over the
  // surface: unfold the two faces sharing edge (1,4) [or by symmetry
  // (3,4)]. Flank edge length a = |corner->apex| = sqrt(1+1+4) = sqrt(6),
  // base edge b = 2. The unfolded angle at vertex 4... instead of deriving
  // in closed form, exploit symmetry: the geodesic must cross edge (1,4) at
  // its... we simply verify against a dense Steiner approximation.
  StatusOr<SteinerGraph> graph = SteinerGraph::Build(*mesh, 60);
  ASSERT_TRUE(graph.ok());
  SteinerSolver approx(*graph);
  const SurfacePoint s = SurfacePoint::AtVertex(*mesh, 0);
  const SurfacePoint t = SurfacePoint::AtVertex(*mesh, 2);
  StatusOr<double> exact = solver.PointToPoint(s, t);
  StatusOr<double> bound = approx.PointToPoint(s, t);
  ASSERT_TRUE(exact.ok() && bound.ok());
  EXPECT_LE(*exact, *bound + 1e-9);
  EXPECT_GE(*exact, *bound * 0.999);  // dense graph is within 0.1%
  // And the straight-line lower bound must be strictly exceeded (the path
  // must climb the flank).
  EXPECT_GT(*exact, Distance(mesh->vertex(0), mesh->vertex(2)) + 0.1);
}

// Unfolding a unit cube: the shortest path between opposite corners of a
// cube surface is sqrt(5) * edge (classic result).
TEST(MmpShape, CubeOppositeCorners) {
  std::vector<Vec3> v = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
                         {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}};
  // 12 triangles, outward orientation not required by TerrainMesh.
  std::vector<std::array<uint32_t, 3>> f = {
      {0, 1, 2}, {0, 2, 3},  // bottom
      {4, 5, 6}, {4, 6, 7},  // top
      {0, 1, 5}, {0, 5, 4},  // front
      {1, 2, 6}, {1, 6, 5},  // right
      {2, 3, 7}, {2, 7, 6},  // back
      {3, 0, 4}, {3, 4, 7},  // left
  };
  StatusOr<TerrainMesh> mesh = TerrainMesh::FromSoup(std::move(v),
                                                     std::move(f));
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  MmpSolver solver(*mesh);
  const SurfacePoint s = SurfacePoint::AtVertex(*mesh, 0);
  const SurfacePoint t = SurfacePoint::AtVertex(*mesh, 6);
  StatusOr<double> d = solver.PointToPoint(s, t);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(*d, std::sqrt(5.0), 1e-9);
}

// --- Metric ordering on rugged terrain ---

TEST(SolverOrdering, EuclidLeMmpLeSteinerLeDijkstra) {
  TerrainMesh mesh = RuggedMesh();
  MmpSolver mmp(mesh);
  DijkstraSolver dijkstra(mesh);
  StatusOr<SteinerGraph> graph = SteinerGraph::Build(mesh, 3);
  ASSERT_TRUE(graph.ok());
  SteinerSolver steiner(*graph);

  Rng rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    if (a == b) continue;
    const SurfacePoint s = SurfacePoint::AtVertex(mesh, a);
    const SurfacePoint t = SurfacePoint::AtVertex(mesh, b);
    const double de = Distance(mesh.vertex(a), mesh.vertex(b));
    const double dm = mmp.PointToPoint(s, t).value();
    const double ds = steiner.PointToPoint(s, t).value();
    const double dd = dijkstra.PointToPoint(s, t).value();
    EXPECT_LE(de, dm * (1.0 + 1e-9));
    EXPECT_LE(dm, ds * (1.0 + 1e-9));
    EXPECT_LE(ds, dd * (1.0 + 1e-9));
  }
}

TEST(SolverOrdering, DenserSteinerIsTighter) {
  TerrainMesh mesh = RuggedMesh(400, 9);
  StatusOr<SteinerGraph> g1 = SteinerGraph::Build(mesh, 1);
  StatusOr<SteinerGraph> g5 = SteinerGraph::Build(mesh, 5);
  ASSERT_TRUE(g1.ok() && g5.ok());
  SteinerSolver s1(*g1), s5(*g5);
  Rng rng(22);
  for (int trial = 0; trial < 6; ++trial) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    if (a == b) continue;
    const SurfacePoint s = SurfacePoint::AtVertex(mesh, a);
    const SurfacePoint t = SurfacePoint::AtVertex(mesh, b);
    EXPECT_LE(s5.PointToPoint(s, t).value(),
              s1.PointToPoint(s, t).value() * (1.0 + 1e-9));
  }
}

TEST(MmpVsSteiner, DenseSteinerConvergesToMmp) {
  TerrainMesh mesh = RuggedMesh(300, 13);
  MmpSolver mmp(mesh);
  StatusOr<SteinerGraph> graph = SteinerGraph::Build(mesh, 12);
  ASSERT_TRUE(graph.ok());
  SteinerSolver steiner(*graph);
  Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    if (a == b) continue;
    const SurfacePoint s = SurfacePoint::AtVertex(mesh, a);
    const SurfacePoint t = SurfacePoint::AtVertex(mesh, b);
    const double dm = mmp.PointToPoint(s, t).value();
    const double ds = steiner.PointToPoint(s, t).value();
    EXPECT_GE(ds, dm * (1.0 - 1e-9));
    EXPECT_LE(ds, dm * 1.02) << "Steiner should be within 2% at density 12";
  }
}

// --- Stopping criteria semantics ---

TEST(SsadStopping, RadiusBoundSettlesEverythingInside) {
  TerrainMesh mesh = RuggedMesh(500, 31);
  MmpSolver bounded(mesh);
  MmpSolver full(mesh);
  const SurfacePoint src = SurfacePoint::AtVertex(mesh, 7);
  ASSERT_TRUE(full.Run(src, {}).ok());

  SsadOptions opts;
  opts.radius_bound = 250.0;
  ASSERT_TRUE(bounded.Run(src, opts).ok());
  EXPECT_GE(bounded.frontier(), 250.0);
  for (uint32_t v = 0; v < mesh.num_vertices(); ++v) {
    const double exact = full.VertexDistance(v);
    if (exact <= 250.0) {
      EXPECT_NEAR(bounded.VertexDistance(v), exact, 1e-6 * (1.0 + exact))
          << "vertex " << v;
    }
  }
}

TEST(SsadStopping, StopTargetIsExact) {
  TerrainMesh mesh = RuggedMesh(500, 33);
  MmpSolver early(mesh);
  MmpSolver full(mesh);
  const SurfacePoint src = SurfacePoint::AtVertex(mesh, 3);
  const SurfacePoint dst = SurfacePoint::AtVertex(
      mesh, static_cast<uint32_t>(mesh.num_vertices() / 2));
  ASSERT_TRUE(full.Run(src, {}).ok());
  SsadOptions opts;
  opts.stop_target = &dst;
  ASSERT_TRUE(early.Run(src, opts).ok());
  EXPECT_NEAR(early.PointDistance(dst), full.PointDistance(dst),
              1e-6 * (1.0 + full.PointDistance(dst)));
}

TEST(SsadStopping, CoverTargetsAllExact) {
  TerrainMesh mesh = RuggedMesh(500, 35);
  PointLocator locator(mesh);
  Rng rng(4);
  std::vector<SurfacePoint> targets =
      GenerateUniformPois(mesh, locator, 12, rng);
  MmpSolver covering(mesh);
  MmpSolver full(mesh);
  const SurfacePoint src = SurfacePoint::AtVertex(mesh, 0);
  ASSERT_TRUE(full.Run(src, {}).ok());
  SsadOptions opts;
  opts.cover_targets = &targets;
  ASSERT_TRUE(covering.Run(src, opts).ok());
  for (const SurfacePoint& t : targets) {
    const double exact = full.PointDistance(t);
    EXPECT_NEAR(covering.PointDistance(t), exact, 1e-6 * (1.0 + exact));
  }
}

TEST(SsadStopping, DijkstraRadiusSemantics) {
  TerrainMesh mesh = RuggedMesh(500, 37);
  DijkstraSolver bounded(mesh);
  DijkstraSolver full(mesh);
  const SurfacePoint src = SurfacePoint::AtVertex(mesh, 11);
  ASSERT_TRUE(full.Run(src, {}).ok());
  SsadOptions opts;
  opts.radius_bound = 300.0;
  ASSERT_TRUE(bounded.Run(src, opts).ok());
  for (uint32_t v = 0; v < mesh.num_vertices(); ++v) {
    const double exact = full.VertexDistance(v);
    if (exact <= 300.0) {
      EXPECT_DOUBLE_EQ(bounded.VertexDistance(v), exact);
    }
  }
}

// --- Resumable sweeps ---

// `got` and `want` hold bit-identical results: every vertex label, the
// sample's point distances, frontier() and the run statistics.
void ExpectSameState(const TerrainMesh& mesh, const MmpSolver& got,
                     const MmpSolver& want,
                     const std::vector<SurfacePoint>& sample,
                     const std::string& what) {
  for (uint32_t v = 0; v < mesh.num_vertices(); ++v) {
    EXPECT_EQ(got.VertexDistance(v), want.VertexDistance(v))
        << what << " vertex " << v;
  }
  for (size_t i = 0; i < sample.size(); ++i) {
    EXPECT_EQ(got.PointDistance(sample[i]), want.PointDistance(sample[i]))
        << what << " sample " << i;
  }
  EXPECT_EQ(got.frontier(), want.frontier()) << what;
  EXPECT_EQ(got.stats().windows_created, want.stats().windows_created)
      << what;
  EXPECT_EQ(got.stats().windows_propagated, want.stats().windows_propagated)
      << what;
  EXPECT_EQ(got.stats().vertices_processed, want.stats().vertices_processed)
      << what;
}

TEST(MmpExtend, MatchesFreshRunAtEveryBound) {
  TerrainMesh mesh = RuggedMesh(500, 45);
  PointLocator locator(mesh);
  Rng rng(9);
  const std::vector<SurfacePoint> sample =
      GenerateUniformPois(mesh, locator, 25, rng);
  // A vertex source and a face-interior source.
  ASSERT_FALSE(sample[0].is_vertex());
  const std::vector<SurfacePoint> sources = {SurfacePoint::AtVertex(mesh, 17),
                                             sample[0]};
  const std::vector<double> bounds = {150.0, 400.0, 700.0, kInfDist};
  for (size_t si = 0; si < sources.size(); ++si) {
    const SurfacePoint& src = sources[si];
    MmpSolver extended(mesh);
    MmpSolver fresh(mesh);
    SsadOptions first;
    first.radius_bound = bounds[0];
    ASSERT_TRUE(extended.Run(src, first).ok());
    for (size_t bi = 0; bi < bounds.size(); ++bi) {
      const std::string what =
          "source " + std::to_string(si) + " bound " + std::to_string(bi);
      if (bi > 0) {
        ASSERT_TRUE(extended.Extend(src, bounds[bi]).ok());
      }
      SsadOptions opts;
      opts.radius_bound = bounds[bi];
      ASSERT_TRUE(fresh.Run(src, opts).ok());
      if (bounds[bi] < kInfDist) {
        EXPECT_LT(fresh.frontier(), kInfDist) << what << ": bound too loose";
      }
      ExpectSameState(mesh, extended, fresh, sample, what);
      // Extending to an equal or smaller bound changes nothing.
      ASSERT_TRUE(extended.Extend(src, bounds[bi]).ok());
      ASSERT_TRUE(extended.Extend(src, 0.5 * bounds[0]).ok());
      ExpectSameState(mesh, extended, fresh, sample, what + " (no-op)");
    }
  }

  // Extend from another source, or after a run with targets, is a fresh run.
  MmpSolver extended(mesh);
  MmpSolver fresh(mesh);
  SsadOptions opts;
  opts.radius_bound = bounds[0];
  ASSERT_TRUE(extended.Run(sources[0], opts).ok());
  ASSERT_TRUE(extended.Extend(sources[1], bounds[1]).ok());
  opts.radius_bound = bounds[1];
  ASSERT_TRUE(fresh.Run(sources[1], opts).ok());
  ExpectSameState(mesh, extended, fresh, sample, "other source");
  SsadOptions targeted;
  targeted.stop_target = &sample[5];
  ASSERT_TRUE(extended.Run(sources[1], targeted).ok());
  ASSERT_TRUE(extended.Extend(sources[1], bounds[1]).ok());
  ExpectSameState(mesh, extended, fresh, sample, "after a targeted run");
}

TEST(MmpSolver, OutOfRangePointsAreInfinite) {
  TerrainMesh mesh = FlatMesh(6);
  MmpSolver solver(mesh);
  ASSERT_TRUE(solver.Run(SurfacePoint::AtVertex(mesh, 0), {}).ok());
  const uint32_t nv = static_cast<uint32_t>(mesh.num_vertices());
  const uint32_t nf = static_cast<uint32_t>(mesh.num_faces());
  EXPECT_EQ(solver.VertexDistance(nv), kInfDist);
  EXPECT_EQ(solver.VertexDistance(kInvalidId - 1), kInfDist);
  SurfacePoint bad_vertex = SurfacePoint::AtVertex(mesh, 1);
  bad_vertex.vertex = nv + 3;
  EXPECT_EQ(solver.PointDistance(bad_vertex), kInfDist);
  const SurfacePoint bad_face = SurfacePoint::OnFace(nf, mesh.vertex(1));
  EXPECT_EQ(solver.PointDistance(bad_face), kInfDist);
  // As a stop target the point never settles: the run sweeps the whole mesh
  // and still reports it unreachable.
  SsadOptions opts;
  opts.stop_target = &bad_face;
  ASSERT_TRUE(solver.Run(SurfacePoint::AtVertex(mesh, 0), opts).ok());
  EXPECT_EQ(solver.PointDistance(bad_face), kInfDist);
  EXPECT_EQ(solver.frontier(), kInfDist);
}

// --- Symmetry (metric property) ---

TEST(MmpMetric, Symmetry) {
  TerrainMesh mesh = RuggedMesh(400, 41);
  MmpSolver solver(mesh);
  Rng rng(6);
  for (int trial = 0; trial < 6; ++trial) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const SurfacePoint s = SurfacePoint::AtVertex(mesh, a);
    const SurfacePoint t = SurfacePoint::AtVertex(mesh, b);
    const double ab = solver.PointToPoint(s, t).value();
    const double ba = solver.PointToPoint(t, s).value();
    EXPECT_NEAR(ab, ba, 1e-6 * (1.0 + ab));
  }
}

TEST(MmpMetric, TriangleInequality) {
  TerrainMesh mesh = RuggedMesh(300, 43);
  MmpSolver solver(mesh);
  Rng rng(8);
  for (int trial = 0; trial < 6; ++trial) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const uint32_t c = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const SurfacePoint pa = SurfacePoint::AtVertex(mesh, a);
    const SurfacePoint pb = SurfacePoint::AtVertex(mesh, b);
    const SurfacePoint pc = SurfacePoint::AtVertex(mesh, c);
    const double ab = solver.PointToPoint(pa, pb).value();
    const double bc = solver.PointToPoint(pb, pc).value();
    const double ac = solver.PointToPoint(pa, pc).value();
    EXPECT_LE(ac, ab + bc + 1e-6 * (1.0 + ac));
  }
}

// --- Solver factory ---

TEST(SolverFactory, CreatesAllKinds) {
  TerrainMesh mesh = FlatMesh(6);
  for (SolverKind kind :
       {SolverKind::kMmpExact, SolverKind::kDijkstra, SolverKind::kSteiner}) {
    StatusOr<std::unique_ptr<GeodesicSolver>> solver = MakeSolver(kind, mesh);
    ASSERT_TRUE(solver.ok());
    const SurfacePoint s = SurfacePoint::AtVertex(mesh, 0);
    const SurfacePoint t = SurfacePoint::AtVertex(mesh, 5);
    StatusOr<double> d = (*solver)->PointToPoint(s, t);
    ASSERT_TRUE(d.ok());
    EXPECT_GT(*d, 0.0);
    EXPECT_TRUE(std::isfinite(*d));
  }
}

TEST(SolverFactory, InvalidSourceRejected) {
  TerrainMesh mesh = FlatMesh(4);
  MmpSolver solver(mesh);
  SurfacePoint bogus;  // no face, no vertex
  EXPECT_FALSE(solver.Run(bogus, {}).ok());
}

// Regression: SteinerSolver used to index FaceNodes out of bounds for a
// non-vertex source with face >= num_faces (DijkstraSolver already checked).
TEST(SteinerSolverRegression, OutOfRangeSourceFaceRejected) {
  TerrainMesh mesh = FlatMesh(4);
  StatusOr<SteinerGraph> graph = SteinerGraph::Build(mesh, 2);
  ASSERT_TRUE(graph.ok());
  SteinerSolver solver(*graph);
  const SurfacePoint bad = SurfacePoint::OnFace(
      static_cast<uint32_t>(mesh.num_faces()), {0.5, 0.5, 0.0});
  EXPECT_FALSE(solver.Run(bad, {}).ok());
  SurfacePoint none;  // face == kInvalidId
  EXPECT_FALSE(solver.Run(none, {}).ok());
  DijkstraSolver dijkstra(mesh);
  EXPECT_FALSE(dijkstra.Run(bad, {}).ok());
  // A valid run still works after the rejected ones.
  const SurfacePoint ok = SurfacePoint::AtVertex(mesh, 0);
  EXPECT_TRUE(solver.Run(ok, {}).ok());
  EXPECT_EQ(solver.VertexDistance(0), 0.0);
  // Out-of-range vertex ids (e.g. stale ids from another mesh) read as
  // unreachable rather than indexing past the kernel arrays.
  const uint32_t bogus_vertex = static_cast<uint32_t>(mesh.num_vertices());
  EXPECT_EQ(solver.VertexDistance(bogus_vertex), kInfDist);
  EXPECT_EQ(dijkstra.VertexDistance(bogus_vertex), kInfDist);
}

}  // namespace
}  // namespace tso
