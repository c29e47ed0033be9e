// The workloads. Each sets up a servable oracle from the seed (several
// times when untraced, reporting the fastest), runs its timed phase from
// outside the library's public entry points, checks every answer, and adds
// its metrics to the report: the end-to-end set when untraced, the
// per-layer set when traced.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "harness.h"
#include "mesh/terrain_mesh.h"

namespace perfbench {

/// Every run builds its terrain, POIs and oracle from this one seed — the
/// paper's evaluation likewise fixes each dataset and randomizes queries —
/// so set-up measures the same build every run. --seed drives everything
/// else: request streams, the eps-audit sample, inserted POIs.
inline constexpr uint64_t kDatasetSeed = 42;

void RunWire(const Args& args, SpanLog* log, Report* rep);
void RunDynChurn(const Args& args, SpanLog* log, Report* rep);

/// Exact geodesic distances (one MMP SSAD per source, run to cover every
/// point) from points[sources[i]] to every point; row i of the result.
/// Runs on `threads` workers, each with its own solver.
std::vector<std::vector<double>> ExactRows(
    const tso::TerrainMesh& mesh, const std::vector<tso::SurfacePoint>& points,
    const std::vector<uint32_t>& sources, uint32_t threads, Report* rep);

/// |approx - exact| <= eps * exact, with a few ulps of slack for exact
/// answers computed from the other endpoint.
inline bool WithinEpsilon(double approx, double exact, double eps) {
  const double err = approx > exact ? approx - exact : exact - approx;
  return err <= eps * exact + 1e-9 * (exact + 1.0);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
