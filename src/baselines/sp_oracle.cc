#include "baselines/sp_oracle.h"

#include <algorithm>

#include "base/timer.h"

namespace tso {

double SpOracle::InnerEpsilon(const SpOracleOptions& options) {
  return options.inner_epsilon != 0.0 ? options.inner_epsilon
                                      : std::max(options.epsilon, 0.25);
}

StatusOr<SpOracle> SpOracle::Build(const TerrainMesh& mesh,
                                   const SpOracleOptions& options,
                                   SpBuildStats* stats) {
  WallTimer timer;
  A2AOracleOptions inner;
  inner.epsilon = InnerEpsilon(options);
  inner.seed = options.seed;
  // Default density is capped low: the N-driven Steiner blow-up that the
  // paper's evaluation measures is already present at density 1-2, while
  // the index over |G_eps| nodes dominates the suite's time budget at the
  // uncapped Θ(1/ε) density (docs/reproduction.md, substitution 3).
  inner.steiner_points_per_edge =
      options.steiner_points_per_edge != 0
          ? options.steiner_points_per_edge
          : std::min<uint32_t>(
                options.epsilon <= 0.1 ? 2 : 1,
                SteinerGraph::PointsPerEdgeForEpsilon(options.epsilon));
  // SP-Oracle is defined structure-first: random selection, efficient
  // construction.
  inner.selection = SelectionStrategy::kRandom;
  inner.construction = ConstructionMethod::kEfficient;
  A2ABuildStats inner_stats;
  StatusOr<A2AOracle> built = A2AOracle::Build(mesh, inner, &inner_stats);
  if (!built.ok()) return built.status();
  SpOracle oracle;
  oracle.impl_ = std::make_unique<A2AOracle>(std::move(*built));
  if (stats != nullptr) {
    stats->total_seconds = timer.ElapsedSeconds();
    stats->steiner_nodes = inner_stats.steiner_nodes;
  }
  return oracle;
}

}  // namespace tso
