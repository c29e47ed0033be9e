#include "oracle/distance_query.h"

namespace tso {
namespace {

/// Degraded-pack error path, reached only when the main scan found no pair
/// (never on the hot path). A miss on a probe whose owning shard is dead is
/// not a real miss — the pair may have been in the dead shard. Two outs:
/// every pair is stored in both orientations (pack_format.h), so the
/// reverse probe (b, a) — owned by the other endpoint's shard — can still
/// answer with the same pair's reverse-orientation record (the two
/// orientations' distances are computed from opposite SSAD sources, so a
/// rescued answer carries the same ε guarantee but may differ from the
/// forward record in final ulps); if both orientations route to dead
/// shards, the query is honestly kUnavailable rather than silently wrong.
/// `Probe(a, b)` returns true with *d set when the reverse orientation
/// rescued the pair.
class DegradedProber {
 public:
  explicit DegradedProber(const PairSource& pairs) : pairs_(pairs) {}

  bool Probe(uint32_t a, uint32_t b, double* d) {
    if (pairs_.Available(a)) return false;  // the main scan's miss was real
    if (pairs_.Available(b) && pairs_.Lookup(b, a, d)) return true;
    unavailable_ = true;
    return false;
  }

  Status Verdict() const {
    if (unavailable_) {
      return Status::Unavailable(
          "distance probe routed to an unavailable shard (degraded pack)");
    }
    return Status::Internal(
        "unique node pair match property violated: no pair found");
  }

 private:
  const PairSource& pairs_;
  bool unavailable_ = false;
};

/// Visits the §3.4 candidate pairs <O, O'> (O in A_s, O' in A_t) in probe
/// order — pass 1 (same layer), pass 2 (first-higher), pass 3 (first-lower)
/// — and returns true at the first one for which `probe(O, O')` returns
/// true; false once the sequence is exhausted. Candidates are generated on
/// the fly from the ancestor arrays and tree nodes, so nothing is buffered
/// and nothing past the matching pair is touched.
template <typename Probe>
bool ForEachCandidate(const CompressedTreeView& tree,
                      std::span<const uint32_t> as,
                      std::span<const uint32_t> at, Probe&& probe) {
  const int h = tree.height();
  // Pass 1: same-layer pairs.
  for (int i = 0; i <= h; ++i) {
    if (as[i] != kInvalidId && at[i] != kInvalidId && probe(as[i], at[i])) {
      return true;
    }
  }
  // Pass 2: first-higher-layer pairs <O, O'> with Layer(O) < Layer(O'),
  // O in A_s, O' in A_t. By Observation 1 the candidate layers k for O are
  // [Layer(parent(O')), Layer(O')).
  for (int i = 1; i <= h; ++i) {
    const uint32_t ot = at[i];
    if (ot == kInvalidId) continue;
    const uint32_t parent = tree.node(ot).parent;
    if (parent == kInvalidId) continue;
    for (int k = tree.node(parent).layer; k < i; ++k) {
      if (as[k] != kInvalidId && probe(as[k], ot)) return true;
    }
  }
  // Pass 3: first-lower-layer pairs (symmetric).
  for (int i = 1; i <= h; ++i) {
    const uint32_t os = as[i];
    if (os == kInvalidId) continue;
    const uint32_t parent = tree.node(os).parent;
    if (parent == kInvalidId) continue;
    for (int k = tree.node(parent).layer; k < i; ++k) {
      if (at[k] != kInvalidId && probe(os, at[k])) return true;
    }
  }
  return false;
}

}  // namespace

StatusOr<double> OracleDistance(const CompressedTreeView& tree,
                                const PairSource& pairs, uint32_t s,
                                uint32_t t, QueryScratch& scratch) {
  if (s == t) return 0.0;
  const std::span<const uint32_t> as = tree.AncestorsOfPoi(s, &scratch.a);
  const std::span<const uint32_t> at = tree.AncestorsOfPoi(t, &scratch.b);
  double d;
  if (ForEachCandidate(tree, as, at, [&](uint32_t a, uint32_t b) {
        return pairs.Lookup(a, b, &d);
      })) {
    return d;
  }
  if (!pairs.degraded()) {
    return Status::Internal(
        "unique node pair match property violated: no pair found");
  }
  // Re-walk the same probe sequence through the degraded prober: rescue the
  // match via its reverse orientation, or report the dead shard.
  DegradedProber prober(pairs);
  if (ForEachCandidate(tree, as, at, [&](uint32_t a, uint32_t b) {
        return prober.Probe(a, b, &d);
      })) {
    return d;
  }
  return prober.Verdict();
}

StatusOr<double> OracleDistanceNaive(const CompressedTreeView& tree,
                                     const PairSource& pairs, uint32_t s,
                                     uint32_t t, QueryScratch& scratch) {
  if (s == t) return 0.0;
  const int h = tree.height();
  std::vector<uint32_t>& as = scratch.a;
  std::vector<uint32_t>& at = scratch.b;
  tree.AncestorArray(tree.leaf_of_poi(s), &as);
  tree.AncestorArray(tree.leaf_of_poi(t), &at);
  double d;
  for (int i = 0; i <= h; ++i) {
    if (as[i] == kInvalidId) continue;
    for (int j = 0; j <= h; ++j) {
      if (at[j] != kInvalidId && pairs.Lookup(as[i], at[j], &d)) return d;
    }
  }
  if (!pairs.degraded()) {
    return Status::Internal(
        "unique node pair match property violated: no pair found");
  }
  DegradedProber prober(pairs);
  for (int i = 0; i <= h; ++i) {
    if (as[i] == kInvalidId) continue;
    for (int j = 0; j <= h; ++j) {
      if (at[j] != kInvalidId && prober.Probe(as[i], at[j], &d)) return d;
    }
  }
  return prober.Verdict();
}

}  // namespace tso
