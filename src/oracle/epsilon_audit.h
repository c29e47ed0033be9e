#ifndef TSO_ORACLE_EPSILON_AUDIT_H_
#define TSO_ORACLE_EPSILON_AUDIT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "base/status.h"
#include "geodesic/solver.h"

namespace tso {

/// Exact distances to audit against: row i holds d(points[sources[i]], p)
/// for every point p, in `solver`'s metric (0 on the diagonal), from one
/// SSAD per source that stops once every point is final.
StatusOr<std::vector<std::vector<double>>> ExactRows(
    GeodesicSolver& solver, const std::vector<SurfacePoint>& points,
    std::span<const uint32_t> sources);

/// One answering path's record against exact distances.
struct EpsilonAudit {
  uint64_t checked = 0;     // pairs answered and compared
  uint64_t unanswered = 0;  // pairs answered with an error status
  uint64_t violations = 0;  // answers outside the ε contract
  double rel_err_max = 0.0;  // |d̃ − d| / d over the checked pairs with d > 0
  double rel_err_p99 = 0.0;  // nearest-rank 99th percentile of the same
  // Mean of the same.
  double rel_err_mean = 0.0;
};

/// Checks the ε contract |d̃ − d| <= ε·d on every pair (sources[i], t) for
/// t < rows[i].size(), with `answer(sources[i], t)` as d̃ and rows[i][t] as
/// d. A violation exceeds ε·d by more than 1e-9·(d + 1), the rounding of an
/// exact row computed from the other endpoint. Error statuses count as
/// unanswered, so a path that may refuse (a degraded pack) is audited on
/// the pairs it answers.
EpsilonAudit AuditEpsilon(
    const std::function<StatusOr<double>(uint32_t, uint32_t)>& answer,
    std::span<const uint32_t> sources,
    const std::vector<std::vector<double>>& rows, double epsilon);

}  // namespace tso

#endif  // TSO_ORACLE_EPSILON_AUDIT_H_
