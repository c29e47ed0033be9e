#ifndef TSO_ORACLE_SE_ORACLE_H_
#define TSO_ORACLE_SE_ORACLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "geodesic/solver.h"
#include "oracle/oracle_view.h"
#include "oracle/partition_tree.h"

namespace tso {

/// How node-pair distances are computed during construction (§3.5).
enum class ConstructionMethod {
  kEfficient,  // enhanced-edge precomputation: batched SSADs over tree nodes
  kNaive,      // one SSAD per node pair considered (SE-Naive baseline)
};

const char* ConstructionMethodName(ConstructionMethod m);

// QueryScratch (the per-thread query workspace) lives in
// oracle/distance_query.h, next to the shared query implementation.

// SolverFactory (an independent solver per worker thread) now lives in
// geodesic/solver.h so the partition tree can use it too.

struct SeOracleOptions {
  double epsilon = 0.1;  // ε, the error parameter
  SelectionStrategy selection = SelectionStrategy::kRandom;
  ConstructionMethod construction = ConstructionMethod::kEfficient;
  uint64_t seed = 42;
  /// Optional: enables multi-threaded construction of every build phase —
  /// speculative partition-tree SSADs, enhanced edges (SSAD sweeps over
  /// batches of tree nodes), and the sharded WSPD recursion of the node-pair
  /// set. The built oracle is identical for any thread count given the same
  /// seed. When unset, construction is single-threaded on the injected
  /// solver. The factory must produce solvers over the same mesh and metric
  /// as the injected one. Initialized, so designated initializers such as
  /// `{.epsilon = 0.1}` may leave it out without -Wmissing-field-initializers.
  SolverFactory parallel_solver_factory = nullptr;
  /// Worker threads for the parallel phases; 0 = hardware concurrency.
  uint32_t num_threads = 0;
  /// Sources per SSAD sweep in the enhanced-edge phase: distinct tree
  /// centers sharing a top layer are grouped into spatially-clustered
  /// batches of this size and dispatched to GeodesicSolver::SolveBatch,
  /// which amortizes the graph traversal across nearby sources. Clamped to
  /// the solver's max_batch() (1 for solvers without native multi-source
  /// support, e.g. MMP); 0 and 1 both mean one source per sweep. The built
  /// oracle is bit-identical for any batch size.
  uint32_t ssad_batch = 4;
};

struct SeBuildStats {
  double total_seconds = 0.0;
  double tree_seconds = 0.0;
  double enhanced_seconds = 0.0;   // Step 2 (+3): enhanced edges + hashing
  double pair_gen_seconds = 0.0;   // Step 4
  size_t ssad_runs = 0;
  size_t enhanced_edges = 0;
  size_t node_pairs = 0;
  size_t pairs_considered = 0;
  size_t distance_fallbacks = 0;   // enhanced-edge misses (expected 0)
  int height = 0;
  uint32_t threads_used = 1;       // worker threads of the parallel phases
  size_t tree_speculative_ssads = 0;  // partition-tree SSADs run by workers
  size_t tree_wasted_ssads = 0;       // speculative SSADs never committed
  uint32_t ssad_batch_used = 1;    // enhanced-edge sources per sweep (clamped)
  size_t enhanced_sweeps = 0;      // enhanced-phase sweeps (batches, or
                                   // distinct centers at batch 1)
};

/// The Space-Efficient distance oracle (SE) — the paper's contribution.
///
/// Components: a compressed partition tree over the POIs and a
/// well-separated node pair set with precomputed center distances, indexed
/// by a perfect hash. Answers POI-to-POI ε-approximate geodesic distance
/// queries in O(h) probes (h = tree height, < 30 in practice).
///
/// A built SeOracle is an OracleView that owns its flat-format bytes:
/// SeOracleBuilder (oracle/se_oracle_builder.h) builds the components,
/// serializes them once, and every query then runs the same code over the
/// same bytes as a mapped oracle file — SaveSeOracleFlat writes exactly
/// buffer(). Copies share the bytes.
///
/// Usage:
///   MmpSolver solver(mesh);
///   auto oracle = SeOracle::Build(mesh, pois, solver, {.epsilon = 0.1});
///   double d = oracle->Distance(3, 17).value();
///
/// Thread safety: as OracleView — immutable, every query const, re-entrant
/// and safe to call concurrently. For bulk workloads see DistanceBatch() in
/// query/batch.h.
class SeOracle : public OracleView {
 public:
  /// Builds SE over `pois` using `solver` as the geodesic engine (one of
  /// the SSAD algorithms). The guarantee: for any POIs s, t,
  /// |Distance(s,t) - d(s,t)| <= ε·d(s,t) with d the solver's metric.
  /// (Convenience wrapper around SeOracleBuilder.)
  static StatusOr<SeOracle> Build(const TerrainMesh& mesh,
                                  std::vector<SurfacePoint> pois,
                                  GeodesicSolver& solver,
                                  const SeOracleOptions& options,
                                  SeBuildStats* stats = nullptr);

 private:
  friend class SeOracleBuilder;
  explicit SeOracle(OracleView view) : OracleView(std::move(view)) {}
};

}  // namespace tso

#endif  // TSO_ORACLE_SE_ORACLE_H_
