#ifndef TSO_ORACLE_SE_ORACLE_BUILDER_H_
#define TSO_ORACLE_SE_ORACLE_BUILDER_H_

#include <vector>

#include "oracle/se_oracle.h"

namespace tso {

/// The build-time half of the oracle split: owns the references to the mesh
/// and geodesic solver, the construction options, and every piece of
/// mutable build state (worker solver pools, distance memos, enhanced-edge
/// scratch), and the owned components (CompressedTree, NodePairSet) until
/// the end of Build. The product — an immutable SeOracle — carries none of
/// that: it is the flat-format bytes of the components, queried through
/// OracleView.
///
/// A builder is single-use bookkeeping around one build (stats() refers to
/// the most recent Build call), but may be reused to build oracles over
/// different POI sets on the same mesh.
class SeOracleBuilder {
 public:
  /// `mesh` and `solver` must outlive the builder. The options are fixed at
  /// construction (see SeOracleOptions for the parallelism knobs).
  SeOracleBuilder(const TerrainMesh& mesh, GeodesicSolver& solver,
                  SeOracleOptions options)
      : mesh_(mesh), solver_(solver), options_(std::move(options)) {}

  /// Runs the full §3.5 pipeline over `pois`: partition tree + compression,
  /// enhanced edges (efficient method), and the WSPD node-pair set.
  StatusOr<SeOracle> Build(std::vector<SurfacePoint> pois);

  /// Timing and counter breakdown of the most recent Build call.
  const SeBuildStats& stats() const { return stats_; }

 private:
  const TerrainMesh& mesh_;
  GeodesicSolver& solver_;
  SeOracleOptions options_;
  SeBuildStats stats_;
};

}  // namespace tso

#endif  // TSO_ORACLE_SE_ORACLE_BUILDER_H_
