#ifndef TSO_ORACLE_SE_ORACLE_H_
#define TSO_ORACLE_SE_ORACLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "geodesic/solver.h"
#include "oracle/compressed_tree.h"
#include "oracle/distance_query.h"
#include "oracle/node_pair_set.h"
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
  /// as the injected one.
  SolverFactory parallel_solver_factory;
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
/// This is the owning in-memory representation. Construction lives in
/// SeOracleBuilder (oracle/se_oracle_builder.h); the query logic is shared
/// with the zero-copy OracleView (oracle/oracle_view.h) through the view
/// forms of the components, so a mapped oracle file answers bit-identically.
///
/// Usage:
///   MmpSolver solver(mesh);
///   auto oracle = SeOracle::Build(mesh, pois, solver, {.epsilon = 0.1});
///   double d = oracle->Distance(3, 17).value();
///
/// Thread safety: a built SeOracle is immutable, and every query method is
/// const, re-entrant, and safe to call concurrently from any number of
/// threads. The scratch-taking overloads require one QueryScratch per
/// thread (a scratch must not be shared between simultaneous calls); the
/// scratch-free overloads use a thread_local scratch internally. For bulk
/// workloads see DistanceBatch() in query/batch.h.
class SeOracle {
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

  /// ε-approximate distance between POIs s and t — the efficient O(h)
  /// query of §3.4 (same-layer scan + first-higher + first-lower passes).
  /// Uses a thread_local QueryScratch; re-entrant.
  StatusOr<double> Distance(uint32_t s, uint32_t t) const;

  /// Same query with a caller-owned workspace (one per thread).
  StatusOr<double> Distance(uint32_t s, uint32_t t,
                            QueryScratch& scratch) const;

  /// The O(h²) naive query of §3.4 (scans A_s × A_t). Same answers; used as
  /// the SE-Naive baseline and in ablation benchmarks. Re-entrant.
  StatusOr<double> DistanceNaive(uint32_t s, uint32_t t) const;

  /// Naive query with a caller-owned workspace (one per thread).
  StatusOr<double> DistanceNaive(uint32_t s, uint32_t t,
                                 QueryScratch& scratch) const;

  double epsilon() const { return epsilon_; }
  size_t num_pois() const { return pois_.size(); }
  int height() const { return tree_.height(); }
  const std::vector<SurfacePoint>& pois() const { return pois_; }
  const CompressedTree& tree() const { return tree_; }
  const NodePairSet& pair_set() const { return pairs_; }

  /// Total memory footprint of the oracle (the paper's "oracle size").
  size_t SizeBytes() const {
    return tree_.SizeBytes() + pairs_.SizeBytes() +
           pois_.size() * sizeof(SurfacePoint);
  }

  // For serialization (oracle_serde.cc) and SeOracleBuilder.
  static SeOracle FromParts(double epsilon, std::vector<SurfacePoint> pois,
                            CompressedTree tree, NodePairSet pairs);

 private:
  SeOracle() = default;

  Status CheckQueryIds(uint32_t s, uint32_t t) const;

  double epsilon_ = 0.0;
  std::vector<SurfacePoint> pois_;
  CompressedTree tree_;
  NodePairSet pairs_;
};

}  // namespace tso

#endif  // TSO_ORACLE_SE_ORACLE_H_
