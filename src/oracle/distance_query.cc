#include "oracle/distance_query.h"

namespace tso {
namespace {

/// The answer when no candidate pair was found: kUnavailable when some
/// probe's pair lives only in dead shards of a degraded pack (the match may
/// have been there), otherwise a violation of the unique node pair match
/// property.
Status NoPairFound(bool unavailable) {
  if (unavailable) {
    return Status::Unavailable(
        "distance probe routed to an unavailable shard (degraded pack)");
  }
  return Status::Internal(
      "unique node pair match property violated: no pair found");
}

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
  bool unavailable = false;
  if (ForEachCandidate(tree, as, at, [&](uint32_t a, uint32_t b) {
        return pairs.Lookup(a, b, &d, &unavailable);
      })) {
    return d;
  }
  return NoPairFound(unavailable);
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
  bool unavailable = false;
  for (int i = 0; i <= h; ++i) {
    if (as[i] == kInvalidId) continue;
    for (int j = 0; j <= h; ++j) {
      if (at[j] != kInvalidId &&
          pairs.Lookup(as[i], at[j], &d, &unavailable)) {
        return d;
      }
    }
  }
  return NoPairFound(unavailable);
}

}  // namespace tso
