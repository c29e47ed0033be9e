#ifndef TSO_ORACLE_DISTANCE_QUERY_H_
#define TSO_ORACLE_DISTANCE_QUERY_H_

#include <cstdint>
#include <span>
#include <utility>
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
/// (PackView). Implicitly constructible from a NodePairSetView so the
/// monolithic call sites read unchanged.
///
/// Every set stores each unordered pair once, as (min, max) (see NodePair),
/// and Lookup canonicalizes the probe key. This is the one place every
/// query probes through (§3.4, naive, kNN, range, the dynamic base), so
/// Distance(s, t) and Distance(t, s) read the same record, bit for bit.
///
/// Sharded routing is exact, not approximate: the pack writer places every
/// record (a, b) in the shards of both endpoints (see oracle/pack_format.h),
/// so a probe goes to shard(a), or to shard(b) when shard(a) is dead, and
/// either returns the same stored double a monolithic set would. A degraded
/// pack therefore answers with the healthy pack's bits, and a probe is
/// unavailable only when both endpoints' shards are dead.
///
/// Non-owning (spans); the backing shard views and routing table must
/// outlive the source.
class PairSource {
 public:
  PairSource() = default;
  /// Monolithic: every probe goes to `single`. Intentionally implicit.
  PairSource(NodePairSetView single)  // NOLINT(google-explicit-constructor)
      : single_(single) {}
  /// Sharded: a probe for canonical (a, b) goes to shards[shard_of_node[a]]
  /// or, when that shard is dead, to shards[shard_of_node[b]]. `shard_ok`
  /// is the degraded-open availability bitmap (one byte per shard, 1 =
  /// live); pass an empty span — the healthy fast path — when every shard
  /// opened. A dead shard's entry in `shards` must be an empty
  /// NodePairSetView so a probe that reaches it misses safely.
  static PairSource Sharded(std::span<const NodePairSetView> shards,
                            std::span<const uint32_t> shard_of_node,
                            std::span<const uint8_t> shard_ok = {}) {
    PairSource s;
    s.shards_ = shards;
    s.shard_of_node_ = shard_of_node;
    s.shard_ok_ = shard_ok;
    return s;
  }

  /// O(1) probe: true and *distance set iff the unordered pair {a, b} is
  /// in the set. A miss because both shards that hold {a, b} are dead sets
  /// *unavailable (a degraded pack's answer is then kUnavailable, never a
  /// wrong distance; see OracleDistance). Out-of-range node ids and corrupt
  /// routing entries miss rather than fault, matching the hardening of
  /// NodePairSetView::Lookup.
  bool Lookup(uint32_t a, uint32_t b, double* distance,
              bool* unavailable) const {
    if (a > b) std::swap(a, b);
    if (shards_.empty()) return single_.Lookup(a, b, distance);
    if (b >= shard_of_node_.size()) return false;
    uint32_t shard = shard_of_node_[a];
    if (!Live(shard)) {
      shard = shard_of_node_[b];
      if (!Live(shard)) {
        *unavailable = true;
        return false;
      }
    }
    if (shard >= shards_.size()) return false;  // corrupt routing table
    return shards_[shard].Lookup(a, b, distance);
  }

 private:
  /// Always true for monolithic sources and healthy packs (empty bitmap);
  /// an out-of-range shard counts as live and then misses.
  bool Live(uint32_t shard) const {
    return shard_ok_.empty() || shard >= shard_ok_.size() ||
           shard_ok_[shard] != 0;
  }

  NodePairSetView single_;
  std::span<const NodePairSetView> shards_;
  std::span<const uint32_t> shard_of_node_;
  std::span<const uint8_t> shard_ok_;
};

/// The efficient O(h) POI-to-POI query of §3.4 (same-layer, first-higher
/// and first-lower candidates), implemented once over the non-owning view
/// forms. Every representation of the oracle answers through this
/// function and its one scalar probe path: SeOracle and OracleView pass a
/// monolithic PairSource over their views, PackView passes its sharded one
/// — the answers are bit-identical because the probed structures hold
/// byte-identical records. Each candidate pair is probed as it is
/// generated, layer by layer from the leaves up, and the query stops at
/// the first stored pair, so a query costs as many probes as that pair's
/// position in this order. Exactly one candidate is stored (the unique
/// node pair match property), so the order sets the cost, never the answer.
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
