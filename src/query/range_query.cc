#include "query/range_query.h"

#include <algorithm>

namespace tso {

StatusOr<std::vector<uint32_t>> RangeQuery(const DistanceSource& source,
                                           uint32_t query, double radius) {
  if (query >= source.num_pois()) {
    return Status::InvalidArgument("query POI out of range");
  }
  // Written so NaN fails too; +inf passes and returns every live POI.
  if (!(radius >= 0.0)) return Status::InvalidArgument("radius must be >= 0");
  if (!source.IsLive(query)) {
    return Status::NotFound("query POI id is not live");
  }
  static thread_local QueryScratch scratch;
  std::vector<std::pair<double, uint32_t>> hits;
  for (uint32_t p = 0; p < source.num_pois(); ++p) {
    if (p == query || !source.IsLive(p)) continue;
    StatusOr<double> d = source.Distance(query, p, scratch);
    if (!d.ok()) return d.status();
    if (*d <= radius) hits.emplace_back(*d, p);
  }
  std::sort(hits.begin(), hits.end());
  std::vector<uint32_t> out;
  out.reserve(hits.size());
  for (const auto& [d, p] : hits) out.push_back(p);
  return out;
}

}  // namespace tso
