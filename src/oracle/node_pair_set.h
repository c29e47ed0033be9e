#ifndef TSO_ORACLE_NODE_PAIR_SET_H_
#define TSO_ORACLE_NODE_PAIR_SET_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "base/perfect_hash.h"
#include "base/simd.h"
#include "oracle/compressed_tree.h"

namespace tso {

/// One entry of SE's second component: an ordered well-separated node pair
/// with the geodesic distance between its centers. The layout is frozen: it
/// is stored verbatim as the pair section of the flat oracle format (see
/// oracle/flat_format.h).
struct NodePair {
  uint32_t a;
  uint32_t b;
  double distance;
};
static_assert(sizeof(NodePair) == 16 && alignof(NodePair) == 8,
              "NodePair must stay padding-free: it is mapped directly from "
              "the flat oracle format");

/// Non-owning pointer+count form of the node pair set: the O(1) probe
/// implemented once over a pair span + PerfectHashView, shared by the
/// owning NodePairSet and the zero-copy OracleView.
class NodePairSetView {
 public:
  NodePairSetView() = default;
  NodePairSetView(std::span<const NodePair> pairs, PerfectHashView hash)
      : pairs_(pairs), hash_(hash) {}

  /// O(1) probe: true and *distance set iff (a, b) is in the set. The
  /// stored index is bounds-checked (never-taken branch for well-formed
  /// sets) so a corrupt mapped file cannot read out of bounds — see the
  /// note on PerfectHashView::Lookup.
  bool Lookup(uint32_t a, uint32_t b, double* distance) const {
    uint64_t idx;
    if (!hash_.Lookup(PairKey(a, b), &idx)) return false;
    if (idx >= pairs_.size()) return false;  // corrupt value table
    *distance = pairs_[idx].distance;
    return true;
  }

  /// Batched probe over n <= kProbeBatchWidth ordered pairs, backed by
  /// PerfectHashView::LookupBatch: all lanes are hashed in lock step and
  /// every candidate line (bucket, slot, then pair payload) is prefetched
  /// before any compare or distance read. found[i] != 0 iff (a[i], b[i]) is
  /// in the set, in which case distance[i] is its distance. Bit-identical
  /// to n scalar Lookup calls at every SimdLevel.
  void LookupBatch(const uint32_t* a, const uint32_t* b, size_t n,
                   double* distance, uint8_t* found) const {
    uint64_t keys[kProbeBatchWidth];
    uint64_t idx[kProbeBatchWidth];
    for (size_t i = 0; i < n; ++i) keys[i] = PairKey(a[i], b[i]);
    hash_.LookupBatch(keys, n, idx, found);
    uint64_t payload_prefetches = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!found[i]) continue;
      if (idx[i] >= pairs_.size()) {  // corrupt value table
        found[i] = 0;
        continue;
      }
      PrefetchRead(&pairs_[idx[i]]);
      payload_prefetches++;
    }
    for (size_t i = 0; i < n; ++i) {
      if (found[i]) distance[i] = pairs_[idx[i]].distance;
    }
    if (payload_prefetches != 0) {
      if (ProbeCounters* pc = ProbeCounterScope::Active(); pc != nullptr) {
        pc->prefetches += payload_prefetches;
      }
    }
  }

  size_t size() const { return pairs_.size(); }
  std::span<const NodePair> pairs() const { return pairs_; }
  const PerfectHashView& hash() const { return hash_; }

 private:
  std::span<const NodePair> pairs_;
  PerfectHashView hash_;
};

struct NodePairSetStats {
  size_t pairs_considered = 0;
  size_t pairs_final = 0;
  size_t distance_evals = 0;
};

/// Parallel-generation knobs: the WSPD splitting recursion is seeded by a
/// breadth-first expansion of (root, root), then the frontier is sharded
/// over `num_threads` workers, each running the depth-first recursion with
/// the center-distance function `make_center_dist(t)` (one per worker;
/// functions of distinct workers must be safe to call concurrently — e.g.
/// backed by per-worker solvers over a shared memo). The resulting pair set
/// is identical for every thread count: the recursion tree is fixed, and
/// pairs are canonically sorted before hashing.
struct NodePairParallelOptions {
  uint32_t num_threads = 1;
  std::function<std::function<double(uint32_t, uint32_t)>(uint32_t)>
      make_center_dist;
};

/// SE's node pair set (§3.3): starting from (root, root), non-well-separated
/// pairs are split at the larger-radius node until every pair satisfies
/// d(c_O, c_O') >= (2/ε + 2) · max(2 r_O, 2 r_O'). The result has the unique
/// node pair match property (Theorem 1) and O(n h / ε^{2β}) pairs
/// (Theorem 2); pairs are indexed by an FKS perfect hash for O(1) probes.
class NodePairSet {
 public:
  /// `center_dist(ca, cb)` must return the geodesic distance between POIs
  /// ca and cb (the efficient construction supplies the enhanced-edge
  /// lookup; the naive one runs SSAD per call).
  static StatusOr<NodePairSet> Generate(
      const CompressedTree& tree, double epsilon,
      const std::function<double(uint32_t, uint32_t)>& center_dist,
      NodePairSetStats* stats = nullptr);

  /// Multi-threaded generation (see NodePairParallelOptions). Produces the
  /// same set (same order, same distances) as the serial overload.
  static StatusOr<NodePairSet> Generate(const CompressedTree& tree,
                                        double epsilon,
                                        const NodePairParallelOptions& options,
                                        NodePairSetStats* stats = nullptr);

  /// O(1) probe: true and *distance set iff (a, b) is in the set.
  bool Lookup(uint32_t a, uint32_t b, double* distance) const {
    return view().Lookup(a, b, distance);
  }

  /// The non-owning probe form over this set's storage.
  NodePairSetView view() const {
    return NodePairSetView(pairs_, hash_.view());
  }

  size_t size() const { return pairs_.size(); }
  const std::vector<NodePair>& pairs() const { return pairs_; }

  // For the pack writer's per-shard sets.
  static NodePairSet FromParts(std::vector<NodePair> pairs, PerfectHash hash) {
    NodePairSet s;
    s.pairs_ = std::move(pairs);
    s.hash_ = std::move(hash);
    return s;
  }

 private:
  std::vector<NodePair> pairs_;
  PerfectHash hash_;
};

}  // namespace tso

#endif  // TSO_ORACLE_NODE_PAIR_SET_H_
