#ifndef TSO_ORACLE_NODE_PAIR_SET_H_
#define TSO_ORACLE_NODE_PAIR_SET_H_

#include <cstddef>
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
/// (see PairSource::Lookup). A set stores the key and the distance of a
/// pair in two parallel arrays (NodePairSetView); this struct is the pair
/// as callers see it, and the verbatim record of v1-v3 flat files.
struct NodePair {
  uint32_t a;
  uint32_t b;
  double distance;
};
static_assert(sizeof(NodePair) == 16 && alignof(NodePair) == 8,
              "NodePair must stay padding-free: v1-v3 flat files store it "
              "verbatim");

/// Non-owning form of the node pair set: one key per slot of a
/// PerfectHashView, in slot order (an empty slot holds its width's
/// all-ones key, see base/perfect_hash.h), the distances in the same order,
/// and the pilot table that places them. The key width is fixed per set:
/// 4 bytes when the id space fits 16-bit ids, 8 otherwise. The O(1) probe
/// is implemented once here and shared by the owning NodePairSet and the
/// zero-copy OracleView. A default-constructed view is the empty set (one
/// empty slot).
class NodePairSetView {
 public:
  NodePairSetView() : NodePairSetView(kEmptyNarrowKeys, kEmptyDistances,
                                      PerfectHashView(), 0) {}
  /// `keys.size()` and `distances.size()` must equal `hash.num_slots()`;
  /// all >= 1 (the flat reader validates this once at open).
  NodePairSetView(std::span<const uint32_t> keys,
                  std::span<const double> distances, PerfectHashView hash,
                  uint64_t num_pairs)
      : narrow_keys_(keys),
        distances_(distances),
        hash_(hash),
        num_pairs_(num_pairs) {}
  NodePairSetView(std::span<const uint64_t> keys,
                  std::span<const double> distances, PerfectHashView hash,
                  uint64_t num_pairs)
      : wide_keys_(keys),
        distances_(distances),
        hash_(hash),
        num_pairs_(num_pairs) {}

  /// O(1) probe: true and *distance set iff (a, b) is in the set. Reads one
  /// pilot and the key at the key's slot, and the distance only on a hit.
  /// The slot is always < num_slots(), so even a corrupt mapped file
  /// cannot make the probe read out of bounds.
  bool Lookup(uint32_t a, uint32_t b, double* distance) const {
    const uint64_t slot = hash_.Slot(PairKey(a, b));
    const bool found = narrow() ? NarrowPairKeyIs(narrow_keys_[slot], a, b)
                                : WidePairKeyIs(wide_keys_[slot], a, b);
    if (ProbeCounters* pc = ProbeCounterScope::Active(); pc != nullptr) {
      pc->probes++;
      if (found) pc->hits++;
    }
    if (found) *distance = distances_[slot];
    return found;
  }

  /// Stored pairs (empty slots excluded).
  size_t size() const { return num_pairs_; }
  uint64_t num_slots() const { return distances_.size(); }
  /// Bytes per stored key: 4 or 8.
  uint32_t key_width() const { return narrow() ? 4 : 8; }
  /// Every slot's key, in hash order, key_width() bytes each: what the
  /// flat format's pair-keys section stores.
  std::span<const std::byte> keys() const {
    return narrow() ? std::as_bytes(narrow_keys_) : std::as_bytes(wide_keys_);
  }
  /// Every slot's distance, in hash order (0.0 in empty slots).
  std::span<const double> distances() const { return distances_; }
  /// The stored pairs in hash order, empty slots skipped.
  auto pairs() const {
    return std::views::iota(uint64_t{0}, num_slots()) |
           std::views::filter([*this](uint64_t s) { return !Empty(s); }) |
           std::views::transform([*this](uint64_t s) { return At(s); });
  }
  const PerfectHashView& hash() const { return hash_; }

 private:
  static constexpr uint32_t kEmptyNarrowKeys[1] = {kEmptyNarrowPairKey};
  static constexpr double kEmptyDistances[1] = {0.0};

  bool narrow() const { return !narrow_keys_.empty(); }
  bool Empty(uint64_t slot) const {
    return narrow() ? narrow_keys_[slot] == kEmptyNarrowPairKey
                    : wide_keys_[slot] == kEmptyWidePairKey;
  }
  NodePair At(uint64_t slot) const {
    if (narrow()) {
      const uint32_t k = narrow_keys_[slot];
      return {k >> 16, k & 0xFFFFu, distances_[slot]};
    }
    const uint64_t k = wide_keys_[slot];
    return {static_cast<uint32_t>(k >> 32), static_cast<uint32_t>(k),
            distances_[slot]};
  }

  std::span<const uint32_t> narrow_keys_;  // empty when keys are wide
  std::span<const uint64_t> wide_keys_;    // empty when keys are narrow
  std::span<const double> distances_;
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

/// The measured covering radius of every node of `tree`, indexed by node id:
/// ρ(O) = max over the POIs p under O of center_dist(c_O, p), 0 for leaves.
/// Costs one center_dist call per (node, POI below it) pair, O(n h) in all.
/// SE-Naive and the tests take ρ from here; the efficient construction
/// reads the same distances off its enhanced-edge sweeps instead.
std::vector<double> CoveringRadii(
    const CompressedTree& tree,
    const std::function<double(uint32_t, uint32_t)>& center_dist);

/// SE's node pair set (§3.3): starting from (root, root), pairs that are not
/// well separated are split at the larger-radius node until every pair
/// satisfies d(c_O, c_O') >= (1/ε + 1) · (ρ_O + ρ_O'), with ρ the nodes'
/// covering radii (`radii`, indexed by node id; see CoveringRadii) and a
/// relative margin of 1e-12 for solver rounding. The test is sound: every
/// POI s under O and t under O' has |d(s, t) − d(c_O, c_O')| <= ρ_O + ρ_O'
/// by the triangle inequality, and d(s, t) >= d(c_O, c_O') − ρ_O − ρ_O' >=
/// (ρ_O + ρ_O')/ε, so the stored center distance is within ε·d(s, t). The
/// split rule reads the layer radii r_i alone, so the recursion keeps the
/// paper's shape: each POI pair ends at one stored pair on its recursion
/// path, which stays among its §3.4 candidates (the unique node pair match
/// property, Theorem 1), and there are O(n h / ε^{2β}) pairs (Theorem 2).
/// Each unordered pair is stored once, as (a, b) with a <= b; keys and
/// distances sit in the slot order of a pilot-table perfect hash for O(1)
/// probes. `radii` is read during the build only; the stored tree keeps r_i.
class NodePairSet {
 public:
  /// `center_dist(ca, cb)` must return the geodesic distance between POIs
  /// ca and cb (the efficient construction supplies the enhanced-edge
  /// lookup; the naive one runs SSAD per call). `radii` must hold one
  /// covering radius per node of `tree` (InvalidArgument otherwise).
  static StatusOr<NodePairSet> Generate(
      const CompressedTree& tree, double epsilon,
      std::span<const double> radii,
      const std::function<double(uint32_t, uint32_t)>& center_dist,
      NodePairSetStats* stats = nullptr);

  /// Multi-threaded generation (see NodePairParallelOptions). Produces the
  /// same set (same order, same distances) as the serial overload.
  static StatusOr<NodePairSet> Generate(const CompressedTree& tree,
                                        double epsilon,
                                        std::span<const double> radii,
                                        const NodePairParallelOptions& options,
                                        NodePairSetStats* stats = nullptr);

  /// Indexes `pairs` and stores them in hash order. Every id must be below
  /// `num_ids` and every (a, b) distinct (InvalidArgument otherwise); the
  /// keys are 4 bytes wide when NarrowPairKeys(num_ids), else 8. The
  /// result depends only on the pair set and num_ids, not on the order.
  /// Used for the generated set, the pack writer's per-shard sets, pre-v4
  /// oracle files converted at open, and the builder's enhanced-edge index.
  static StatusOr<NodePairSet> FromPairs(std::span<const NodePair> pairs,
                                         uint32_t num_ids);

  /// O(1) probe: true and *distance set iff (a, b) is in the set.
  bool Lookup(uint32_t a, uint32_t b, double* distance) const {
    return view().Lookup(a, b, distance);
  }

  /// The non-owning probe form over this set's storage.
  NodePairSetView view() const {
    return wide_keys_.empty()
               ? NodePairSetView(narrow_keys_, distances_, hash_.view(),
                                 num_pairs_)
               : NodePairSetView(wide_keys_, distances_, hash_.view(),
                                 num_pairs_);
  }

  size_t size() const { return num_pairs_; }
  /// The stored pairs in hash order (see NodePairSetView::pairs).
  auto pairs() const { return view().pairs(); }

 private:
  // One of the two key arrays is empty; the default is the empty set.
  std::vector<uint32_t> narrow_keys_{kEmptyNarrowPairKey};
  std::vector<uint64_t> wide_keys_;
  std::vector<double> distances_{0.0};
  PerfectHash hash_;
  size_t num_pairs_ = 0;
};

}  // namespace tso

#endif  // TSO_ORACLE_NODE_PAIR_SET_H_
