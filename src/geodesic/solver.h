#ifndef TSO_GEODESIC_SOLVER_H_
#define TSO_GEODESIC_SOLVER_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "base/status.h"
#include "mesh/terrain_mesh.h"

namespace tso {

inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// Stopping criteria for a single-source all-destination (SSAD) run — the
/// paper's two SSAD variants (§3.2 Implementation Detail 2) plus the
/// point-to-point early exit used when computing individual distances.
///
/// Semantics after Run(source, opts) returns:
///  * every surface point p with d(source, p) <= frontier() has its exact
///    (per-solver-metric) distance available via PointDistance(p);
///  * `radius_bound`: the run stops once frontier() > radius_bound;
///  * `cover_targets`: the run stops once every target's distance is final
///    (paper §3.2 Step 1(c)) — combine with radius_bound to stop at
///    whichever comes first (paper §3.2 Step 2(b)(ii));
///  * `stop_target`: the run stops once this point's distance is final.
struct SsadOptions {
  double radius_bound = kInfDist;
  const std::vector<SurfacePoint>* cover_targets = nullptr;
  const SurfacePoint* stop_target = nullptr;
};

/// Interface for single-source geodesic computations on a TerrainMesh.
///
/// A solver defines a metric d(·,·) on surface points. For MmpSolver this is
/// the exact geodesic metric; DijkstraSolver and SteinerSolver define graph
/// metrics that upper-bound it. The SE oracle's ε-approximation guarantee
/// holds with respect to whichever metric the injected solver computes.
class GeodesicSolver {
 public:
  virtual ~GeodesicSolver() = default;

  /// Runs SSAD from `source`. Resets any previous run's state.
  virtual Status Run(const SurfacePoint& source, const SsadOptions& opts) = 0;

  /// Grows the last run's search to `radius_bound`. For a bound no smaller
  /// than the last run's, the solver state afterwards is bit-identical to
  /// Run(source, {radius_bound}); solvers that cannot resume (this default)
  /// simply run again from scratch.
  virtual Status Extend(const SurfacePoint& source, double radius_bound) {
    SsadOptions opts;
    opts.radius_bound = radius_bound;
    return Run(source, opts);
  }

  /// Distance from the current source to mesh vertex v (kInfDist if the
  /// search never reached it).
  virtual double VertexDistance(uint32_t v) const = 0;

  /// Distance from the current source to an arbitrary surface point. Exact
  /// (w.r.t. the solver metric) for points within frontier(); an upper bound
  /// or kInfDist otherwise.
  virtual double PointDistance(const SurfacePoint& p) const = 0;

  /// Largest settled distance of the last run.
  virtual double frontier() const = 0;

  virtual const char* name() const = 0;

  /// Largest batch SolveBatch accepts; 1 means no native multi-source
  /// support (the base SolveBatch then only forwards singleton batches).
  virtual uint32_t max_batch() const { return 1; }

  /// Runs SSAD from every source in one shared sweep. Per-source distances
  /// up to the radius bound (all reachable distances, for an unbounded run)
  /// are bit-identical to sources.size() independent Run() calls; callers
  /// read them through BatchPointDistance/BatchVertexDistance. Batches
  /// larger than 1 support the radius_bound stopping criterion only
  /// (cover/stop targets are per-run state and are rejected). A batch of 1
  /// is exactly Run(), including target support.
  virtual Status SolveBatch(std::span<const SurfacePoint> sources,
                            const SsadOptions& opts) {
    if (sources.size() != 1) {
      return Status::InvalidArgument(
          "solver has no native multi-source support");
    }
    return Run(sources[0], opts);
  }

  /// Distance from batch source `i` of the last SolveBatch to `p` / to mesh
  /// vertex `v`. With the base (batch-of-1) implementation these are the
  /// single-source accessors.
  virtual double BatchPointDistance(uint32_t i, const SurfacePoint& p) const {
    (void)i;
    return PointDistance(p);
  }
  virtual double BatchVertexDistance(uint32_t i, uint32_t v) const {
    (void)i;
    return VertexDistance(v);
  }

  /// Convenience point-to-point distance with early termination.
  StatusOr<double> PointToPoint(const SurfacePoint& s, const SurfacePoint& t) {
    SsadOptions opts;
    opts.stop_target = &t;
    TSO_RETURN_IF_ERROR(Run(s, opts));
    return PointDistance(t);
  }
};

/// Propagation-window slack for a multi-source group sweep: an estimate of
/// the largest per-node label spread between any two batch sources. Labels
/// differ by at most the pairwise source distance; x-y-z Euclidean distance
/// underestimates the graph metric, so scale it by a terrain-stretch factor.
/// Slack only affects performance, never correctness (see
/// SsadKernel::BeginBatch).
inline double BatchSlack(std::span<const SurfacePoint> sources) {
  constexpr double kStretchFactor = 1.5;
  double spread = 0.0;
  for (size_t i = 0; i + 1 < sources.size(); ++i) {
    for (size_t j = i + 1; j < sources.size(); ++j) {
      spread = std::max(spread, Distance(sources[i].pos, sources[j].pos));
    }
  }
  return kStretchFactor * spread;
}

/// Produces an independent solver instance (one per worker thread). The
/// factory must create solvers over the same mesh and metric as the solver
/// injected into the build — parallel phases assume every instance computes
/// identical distances.
using SolverFactory = std::function<std::unique_ptr<GeodesicSolver>()>;

}  // namespace tso

#endif  // TSO_GEODESIC_SOLVER_H_
