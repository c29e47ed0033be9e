#ifndef TSO_BASELINES_SP_ORACLE_H_
#define TSO_BASELINES_SP_ORACLE_H_

#include <memory>

#include "oracle/a2a_oracle.h"

namespace tso {

struct SpOracleOptions {
  double epsilon = 0.1;
  uint64_t seed = 42;
  /// Steiner density; 0 = derive from epsilon (capped — see .cc).
  uint32_t steiner_points_per_edge = 0;
  /// WSPD error parameter of the inner index; 0 = max(epsilon, 0.25).
  /// The Djidjev–Sommer original indexes exact G_eps distances; our WSPD
  /// stand-in adds its own error, and below 0.25 its pair count over all
  /// |G_eps| nodes outgrows the suite's budget. With the floor, answers may
  /// err by more than `epsilon` (docs/reproduction.md, substitution 3).
  double inner_epsilon = 0.0;
};

struct SpBuildStats {
  double total_seconds = 0.0;
  size_t steiner_nodes = 0;
};

/// The Steiner-point-based oracle baseline ([12], §4.2.1): a POI-*independent*
/// distance oracle built over the entire Steiner graph G_ε. Its build time
/// and size scale with |G_ε| = Θ(N·poly(1/ε)) — not with n — which is
/// exactly the weakness the paper's SE exploits. Each query attaches s and t
/// to the Steiner points of their faces (X_s, X_t) and minimizes over
/// |X_s|·|X_t| indexed-distance probes.
///
/// Substitution note (docs/reproduction.md, substitution 3): the original
/// indexes G_ε distances with a planar-separator oracle; we index them with
/// a WSPD over all graph nodes, which preserves the N-driven build/size
/// scaling and the |X_s|·|X_t|-probe query structure that the paper's plots
/// measure.
class SpOracle {
 public:
  static StatusOr<SpOracle> Build(const TerrainMesh& mesh,
                                  const SpOracleOptions& options,
                                  SpBuildStats* stats = nullptr);

  /// The error parameter of the inner WSPD index: `inner_epsilon`, or
  /// max(epsilon, 0.25) when that is 0. This, not `epsilon`, is the
  /// relative error an answer is allowed.
  static double InnerEpsilon(const SpOracleOptions& options);

  /// ε-approximate distance between arbitrary surface points (covers P2P,
  /// V2V and A2A alike — the oracle is POI-independent).
  StatusOr<double> Distance(const SurfacePoint& s,
                            const SurfacePoint& t) const {
    return impl_->Distance(s, t);
  }

  size_t SizeBytes() const { return impl_->SizeBytes(); }
  const A2AOracle& impl() const { return *impl_; }

 private:
  SpOracle() = default;
  std::unique_ptr<A2AOracle> impl_;
};

}  // namespace tso

#endif  // TSO_BASELINES_SP_ORACLE_H_
