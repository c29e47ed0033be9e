#ifndef TSO_ORACLE_ORACLE_SERDE_H_
#define TSO_ORACLE_ORACLE_SERDE_H_

#include <span>
#include <string>

#include "oracle/oracle_view.h"
#include "oracle/se_oracle.h"

namespace tso {

// The on-disk oracle format ("TSOFLAT"): sectioned, checksummed, mmap-able
// layout (oracle/flat_format.h, docs/oracle-format.md), served zero-copy
// through OracleView. A built SeOracle already is such a view over its own
// bytes.

/// The flat-format bytes of an SE oracle (its buffer()). Deterministic: the
/// same build always produces byte-identical output (the format-stability
/// CI job byte-compares against a golden file).
std::string SerializeSeOracleFlat(const SeOracle& oracle);

/// Writes a flat oracle from its components. SeOracleBuilder calls it once
/// per build; the pack writer (oracle/pack_view.h) emits shards that share
/// an oracle's `pois` and `tree` but carry per-shard pair subsets. Same
/// determinism guarantee.
std::string SerializeSeOracleFlat(double epsilon,
                                  std::span<const SurfacePoint> pois,
                                  const CompressedTreeView& tree,
                                  const NodePairSetView& pairs);

/// Writes SerializeSeOracleFlat output to `path` crash-safely.
Status SaveSeOracleFlat(const SeOracle& oracle, const std::string& path);

}  // namespace tso

#endif  // TSO_ORACLE_ORACLE_SERDE_H_
