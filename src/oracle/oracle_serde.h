#ifndef TSO_ORACLE_ORACLE_SERDE_H_
#define TSO_ORACLE_ORACLE_SERDE_H_

#include <string>
#include <string_view>

#include "oracle/oracle_view.h"
#include "oracle/se_oracle.h"

namespace tso {

// The on-disk oracle format ("TSOFLAT"): sectioned, checksummed, mmap-able
// layout (oracle/flat_format.h, docs/oracle-format.md). Serve it zero-copy
// through OracleView, or materialize an owning SeOracle when an API (e.g.
// the pack writer) needs one.

/// Serializes an SE oracle into the flat format. Deterministic: the same
/// oracle always produces byte-identical output (the format-stability CI
/// job byte-compares against a golden file).
std::string SerializeSeOracleFlat(const SeOracle& oracle);

/// Parts-based form of SerializeSeOracleFlat: serializes a flat oracle from
/// its components without an owning SeOracle. The pack writer
/// (oracle/pack_view.h) uses it to emit shards that share `pois` and `tree`
/// but carry per-shard pair subsets. Same determinism guarantee.
std::string SerializeSeOracleFlat(double epsilon,
                                  const std::vector<SurfacePoint>& pois,
                                  const CompressedTree& tree,
                                  const NodePairSet& pairs);

/// Copies a flat buffer's sections into an owning SeOracle (the inverse of
/// SerializeSeOracleFlat). Validation is OracleView::FromBuffer's with
/// checksums on, plus a full scan of the hash tables and pair ids: this is
/// the only owning ingest of untrusted bytes.
StatusOr<SeOracle> MaterializeSeOracle(std::string_view flat_blob);

/// Writes SerializeSeOracleFlat output to `path` crash-safely.
Status SaveSeOracleFlat(const SeOracle& oracle, const std::string& path);

/// Reads a flat oracle file and materializes it. A file without the
/// TSOFLAT magic is rejected with InvalidArgument.
StatusOr<SeOracle> LoadSeOracle(const std::string& path);

}  // namespace tso

#endif  // TSO_ORACLE_ORACLE_SERDE_H_
