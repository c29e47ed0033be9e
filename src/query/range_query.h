#ifndef TSO_QUERY_RANGE_QUERY_H_
#define TSO_QUERY_RANGE_QUERY_H_

#include <cstdint>
#include <vector>

#include "query/engine.h"

namespace tso {

/// All POIs whose ε-approximate geodesic distance from POI `query` is at
/// most `radius` (geodesic range query, §1.2). Sorted by distance.
/// `query` itself is excluded. InvalidArgument for a negative or NaN
/// radius; +inf returns every live POI.
///
/// Written once against DistanceSource (query/engine.h); every oracle
/// representation answers through MakeSource.
StatusOr<std::vector<uint32_t>> RangeQuery(const DistanceSource& source,
                                           uint32_t query, double radius);

}  // namespace tso

#endif  // TSO_QUERY_RANGE_QUERY_H_
