#ifndef TSO_ORACLE_DISTANCE_QUERY_H_
#define TSO_ORACLE_DISTANCE_QUERY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "base/status.h"
#include "oracle/compressed_tree.h"
#include "oracle/node_pair_set.h"

namespace tso {

/// Reusable per-call workspace for oracle queries. Queries never touch
/// shared mutable state; they either take a caller-owned QueryScratch (one
/// per thread — reuse across calls to stay allocation-free) or fall back to
/// a thread_local instance inside the convenience overloads.
///
/// The §3.4 query itself needs no buffers: it probes each candidate pair as
/// it is generated. The only per-call storage is the ancestor arrays of a
/// view without a precomputed ancestor table (and of the naive query).
struct QueryScratch {
  /// Ancestor-array buffers (A_s / A_t) for views without a precomputed
  /// ancestor table.
  std::vector<uint32_t> a, b;
};

/// Where a query probe finds its node pairs: either one monolithic
/// NodePairSetView (SeOracle, OracleView) or the shards of an oracle pack
/// routed by the pair's first node (PackView). Implicitly constructible
/// from a NodePairSetView so the monolithic call sites read unchanged.
///
/// Sharded routing is exact, not approximate: the pack writer places every
/// pair record (a, b) in the shard of node `a` (see oracle/pack_format.h),
/// and the recursion of §3.3 emits each unordered pair in both
/// orientations, so a probe for (a, b) is answered entirely by shard(a) —
/// the same stored double a monolithic set would return. Bit-identical
/// results follow for every query built on top.
///
/// Non-owning (spans); the backing shard views and routing table must
/// outlive the source.
class PairSource {
 public:
  PairSource() = default;
  /// Monolithic: every probe goes to `single`. Intentionally implicit.
  PairSource(NodePairSetView single)  // NOLINT(google-explicit-constructor)
      : single_(single) {}
  /// Sharded: a probe for (a, b) goes to shards[shard_of_node[a]].
  /// `shard_ok` is the degraded-open availability bitmap (one byte per
  /// shard, 1 = live); pass an empty span — the healthy fast path — when
  /// every shard opened. A dead shard's entry in `shards` must be an empty
  /// NodePairSetView so its probes miss safely; Available() is what turns
  /// those misses into kUnavailable instead of a wrong answer (see
  /// OracleDistance).
  static PairSource Sharded(std::span<const NodePairSetView> shards,
                            std::span<const uint32_t> shard_of_node,
                            std::span<const uint8_t> shard_ok = {}) {
    PairSource s;
    s.shards_ = shards;
    s.shard_of_node_ = shard_of_node;
    s.shard_ok_ = shard_ok;
    return s;
  }

  /// O(1) probe: true and *distance set iff (a, b) is in the set. Out-of-
  /// range node ids and corrupt routing entries miss (return false) rather
  /// than fault, matching the hardening of NodePairSetView::Lookup.
  bool Lookup(uint32_t a, uint32_t b, double* distance) const {
    if (shards_.empty()) return single_.Lookup(a, b, distance);
    if (a >= shard_of_node_.size()) return false;
    const uint32_t shard = shard_of_node_[a];
    if (shard >= shards_.size()) return false;  // corrupt routing table
    return shards_[shard].Lookup(a, b, distance);
  }

  /// True iff the shard that owns probes keyed by node `a` is available.
  /// Always true for monolithic sources and healthy packs (empty bitmap).
  bool Available(uint32_t a) const {
    if (shard_ok_.empty()) return true;
    if (a >= shard_of_node_.size()) return true;  // misses anyway
    const uint32_t shard = shard_of_node_[a];
    return shard >= shard_ok_.size() || shard_ok_[shard] != 0;
  }

  bool sharded() const { return !shards_.empty(); }
  size_t num_shards() const { return shards_.size(); }
  /// True when this source was opened degraded (some shard unavailable).
  bool degraded() const { return !shard_ok_.empty(); }

 private:
  NodePairSetView single_;
  std::span<const NodePairSetView> shards_;
  std::span<const uint32_t> shard_of_node_;
  std::span<const uint8_t> shard_ok_;
};

/// The efficient O(h) POI-to-POI query of §3.4 (same-layer scan +
/// first-higher + first-lower passes), implemented once over the non-owning
/// view forms. Every representation of the oracle answers through this
/// function and its one scalar probe path: SeOracle and OracleView pass a
/// monolithic PairSource over their views, PackView passes its sharded one
/// — the answers are bit-identical because the probed structures hold
/// byte-identical records. Each candidate pair is probed as it is
/// generated and the query stops at the first stored pair, so a query
/// costs as many probes as that pair's position in the §3.4 sequence.
///
/// `s` and `t` must already be validated against the POI count.
StatusOr<double> OracleDistance(const CompressedTreeView& tree,
                                const PairSource& pairs, uint32_t s,
                                uint32_t t, QueryScratch& scratch);

/// The O(h²) naive query of §3.4 (scans A_s × A_t). Same answers; used as
/// the SE-Naive baseline and in ablation benchmarks.
StatusOr<double> OracleDistanceNaive(const CompressedTreeView& tree,
                                     const PairSource& pairs, uint32_t s,
                                     uint32_t t, QueryScratch& scratch);

}  // namespace tso

#endif  // TSO_ORACLE_DISTANCE_QUERY_H_
