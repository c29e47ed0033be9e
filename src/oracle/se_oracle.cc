#include "oracle/se_oracle.h"

#include <utility>

#include "oracle/se_oracle_builder.h"

namespace tso {

// All build machinery (enhanced edges, worker pools, distance memos) lives
// in oracle/se_oracle_builder.cc; queries are OracleView's.

const char* ConstructionMethodName(ConstructionMethod m) {
  switch (m) {
    case ConstructionMethod::kEfficient:
      return "efficient";
    case ConstructionMethod::kNaive:
      return "naive";
  }
  return "?";
}

StatusOr<SeOracle> SeOracle::Build(const TerrainMesh& mesh,
                                   std::vector<SurfacePoint> pois,
                                   GeodesicSolver& solver,
                                   const SeOracleOptions& options,
                                   SeBuildStats* stats) {
  SeOracleBuilder builder(mesh, solver, options);
  StatusOr<SeOracle> oracle = builder.Build(std::move(pois));
  if (stats != nullptr) *stats = builder.stats();
  return oracle;
}

}  // namespace tso
