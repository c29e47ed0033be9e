#include "oracle/epsilon_audit.h"

#include <algorithm>
#include <cmath>

namespace tso {

StatusOr<std::vector<std::vector<double>>> ExactRows(
    GeodesicSolver& solver, const std::vector<SurfacePoint>& points,
    std::span<const uint32_t> sources) {
  std::vector<std::vector<double>> rows(sources.size());
  SsadOptions opts;
  opts.cover_targets = &points;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i] >= points.size()) {
      return Status::InvalidArgument("exact rows: source out of range");
    }
    TSO_RETURN_IF_ERROR(solver.Run(points[sources[i]], opts));
    rows[i].resize(points.size());
    for (size_t p = 0; p < points.size(); ++p) {
      rows[i][p] = p == sources[i] ? 0.0 : solver.PointDistance(points[p]);
    }
  }
  return rows;
}

EpsilonAudit AuditEpsilon(
    const std::function<StatusOr<double>(uint32_t, uint32_t)>& answer,
    std::span<const uint32_t> sources,
    const std::vector<std::vector<double>>& rows, double epsilon) {
  EpsilonAudit audit;
  std::vector<double> rel_errs;
  for (size_t i = 0; i < sources.size() && i < rows.size(); ++i) {
    for (uint32_t t = 0; t < rows[i].size(); ++t) {
      const StatusOr<double> approx = answer(sources[i], t);
      if (!approx.ok()) {
        ++audit.unanswered;
        continue;
      }
      ++audit.checked;
      const double exact = rows[i][t];
      const double err = std::abs(*approx - exact);
      if (!(err <= epsilon * exact + 1e-9 * (exact + 1.0))) {
        ++audit.violations;
      }
      if (exact > 0.0) {
        rel_errs.push_back(std::isnan(err) ? kInfDist : err / exact);
      }
    }
  }
  if (!rel_errs.empty()) {
    double sum = 0.0;
    for (double e : rel_errs) sum += e;
    audit.rel_err_mean = sum / static_cast<double>(rel_errs.size());
    const size_t rank = (rel_errs.size() * 99 + 99) / 100 - 1;
    std::nth_element(rel_errs.begin(), rel_errs.begin() + rank,
                     rel_errs.end());
    audit.rel_err_p99 = rel_errs[rank];
    audit.rel_err_max = *std::max_element(rel_errs.begin(), rel_errs.end());
  }
  return audit;
}

}  // namespace tso
