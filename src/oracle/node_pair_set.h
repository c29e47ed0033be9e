#ifndef TSO_ORACLE_NODE_PAIR_SET_H_
#define TSO_ORACLE_NODE_PAIR_SET_H_

#include <cstdint>
#include <functional>
#include <ranges>
#include <span>
#include <vector>

#include "base/perfect_hash.h"
#include "base/probe_stats.h"
#include "oracle/compressed_tree.h"

namespace tso {

/// One entry of SE's second component: a well-separated node pair with the
/// geodesic distance between its centers. The metric is symmetric, so a set
/// stores each unordered pair once, in its canonical orientation a <= b
/// (see PairSource::Lookup). The layout is frozen: it is stored verbatim as
/// the pair section of the flat oracle format (see oracle/flat_format.h).
struct NodePair {
  uint32_t a;
  uint32_t b;
  double distance;
};
static_assert(sizeof(NodePair) == 16 && alignof(NodePair) == 8,
              "NodePair must stay padding-free: it is mapped directly from "
              "the flat oracle format");

/// The record stored in a hash slot that no pair maps to. Its key (a = b =
/// kInvalidId) is reserved: kInvalidId is never a tree node id, so no probe
/// matches it, and NodePairSet::FromPairs rejects it.
inline constexpr NodePair kEmptyPairSlot = {kInvalidId, kInvalidId, 0.0};
inline bool IsEmptyPairSlot(const NodePair& r) {
  return r.a == kInvalidId && r.b == kInvalidId;
}

/// Non-owning form of the node pair set: the records in hash order (one per
/// slot of a PerfectHashView, empty slots holding kEmptyPairSlot) and the
/// pilot table that places them. The O(1) probe is implemented once here
/// and shared by the owning NodePairSet and the zero-copy OracleView.
/// A default-constructed view is the empty set (one empty slot).
class NodePairSetView {
 public:
  NodePairSetView() : records_(&kEmptyPairSlot, 1) {}
  /// `records.size()` must equal `hash.num_slots()`; both >= 1 (the flat
  /// reader validates this once at open).
  NodePairSetView(std::span<const NodePair> records, PerfectHashView hash,
                  uint64_t num_pairs)
      : records_(records), hash_(hash), num_pairs_(num_pairs) {}

  /// O(1) probe: true and *distance set iff (a, b) is in the set. Reads one
  /// pilot and the one record at the key's slot, and compares the record's
  /// own (a, b). The slot is always < records().size(), so even a corrupt
  /// mapped file cannot make the probe read out of bounds.
  bool Lookup(uint32_t a, uint32_t b, double* distance) const {
    const NodePair& r = records_[hash_.Slot(PairKey(a, b))];
    const bool found = r.a == a && r.b == b;
    if (ProbeCounters* pc = ProbeCounterScope::Active(); pc != nullptr) {
      pc->probes++;
      if (found) pc->hits++;
    }
    if (found) *distance = r.distance;
    return found;
  }

  /// Stored pairs (empty slots excluded).
  size_t size() const { return num_pairs_; }
  /// Every slot's record, in hash order: what the flat format stores.
  std::span<const NodePair> records() const { return records_; }
  /// The stored pairs in hash order, empty slots skipped.
  auto pairs() const {
    return records_ | std::views::filter([](const NodePair& r) {
             return !IsEmptyPairSlot(r);
           });
  }
  const PerfectHashView& hash() const { return hash_; }

 private:
  std::span<const NodePair> records_;
  PerfectHashView hash_;
  uint64_t num_pairs_ = 0;
};

/// SE's approximation parameter must be finite and positive. NaN, ±inf, 0
/// and negative values are InvalidArgument; every builder checks this
/// before it runs a single SSAD.
Status ValidateEpsilon(double epsilon);

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
/// the pilot-hash layout depends only on the pair set.
struct NodePairParallelOptions {
  uint32_t num_threads = 1;
  std::function<std::function<double(uint32_t, uint32_t)>(uint32_t)>
      make_center_dist;
};

/// SE's node pair set (§3.3): starting from (root, root), non-well-separated
/// pairs are split at the larger-radius node until every pair satisfies
/// d(c_O, c_O') >= (2/ε + 2) · max(2 r_O, 2 r_O'). The result has the unique
/// node pair match property (Theorem 1) and O(n h / ε^{2β}) pairs
/// (Theorem 2). Each unordered pair is stored once, as (a, b) with a <= b;
/// the records sit in the slot order of a pilot-table perfect hash for O(1)
/// probes.
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

  /// Indexes `pairs` and stores them in hash order. Every (a, b) must be
  /// distinct and none may be the reserved kEmptyPairSlot key
  /// (InvalidArgument otherwise). The result depends only on the pair set,
  /// not on its order. Used for the generated set, the pack writer's
  /// per-shard sets, v1 oracle files converted at open, and the builder's
  /// enhanced-edge index.
  static StatusOr<NodePairSet> FromPairs(std::span<const NodePair> pairs);

  /// O(1) probe: true and *distance set iff (a, b) is in the set.
  bool Lookup(uint32_t a, uint32_t b, double* distance) const {
    return view().Lookup(a, b, distance);
  }

  /// The non-owning probe form over this set's storage.
  NodePairSetView view() const {
    return NodePairSetView(records_, hash_.view(), num_pairs_);
  }

  size_t size() const { return num_pairs_; }
  /// The stored pairs in hash order (see NodePairSetView::pairs).
  auto pairs() const { return view().pairs(); }

 private:
  std::vector<NodePair> records_{kEmptyPairSlot};
  PerfectHash hash_;
  size_t num_pairs_ = 0;
};

}  // namespace tso

#endif  // TSO_ORACLE_NODE_PAIR_SET_H_
