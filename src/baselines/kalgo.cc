#include "baselines/kalgo.h"

#include "base/timer.h"
#include "oracle/node_pair_set.h"

namespace tso {

StatusOr<KAlgo> KAlgo::Create(const TerrainMesh& mesh, double epsilon) {
  TSO_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  WallTimer timer;
  KAlgo algo;
  StatusOr<SteinerGraph> graph = SteinerGraph::Build(
      mesh, SteinerGraph::PointsPerEdgeForEpsilon(epsilon));
  if (!graph.ok()) return graph.status();
  algo.graph_ = std::make_unique<SteinerGraph>(std::move(*graph));
  algo.solver_ = std::make_unique<SteinerSolver>(*algo.graph_);
  algo.setup_seconds_ = timer.ElapsedSeconds();
  return algo;
}

StatusOr<double> KAlgo::Distance(const SurfacePoint& s, const SurfacePoint& t) {
  return solver_->PointToPoint(s, t);
}

}  // namespace tso
