#ifndef TSO_QUERY_ENGINE_H_
#define TSO_QUERY_ENGINE_H_

#include <cstdint>
#include <span>

#include "base/status.h"
#include "mesh/terrain_mesh.h"
#include "oracle/compressed_tree.h"
#include "oracle/distance_query.h"
#include "oracle/oracle_view.h"
#include "oracle/pack_view.h"

namespace tso {

/// A mutable-layer hook over an immutable base oracle. The dynamic oracle
/// (dyn/dynamic_oracle.h) publishes immutable snapshots whose id space is
/// *stable ids* — never-reused handles that outlive base rebuilds — rather
/// than dense base POI indices. An overlay teaches DistanceSource to speak
/// stable ids: it answers liveness (tombstones and not-yet-published ids),
/// serves the exact materialized distances of delta POIs, and remaps
/// base-resident ids to their index in the underlying representation.
///
/// Implementations must be immutable once attached (DistanceSource shares
/// them across threads with no synchronization).
class DistanceOverlay {
 public:
  virtual ~DistanceOverlay() = default;

  /// True iff `id` addresses a live POI (not tombstoned, not a still-
  /// unpublished insert). Ids >= the source's num_pois() are never live.
  virtual bool IsLive(uint32_t id) const = 0;

  /// If either endpoint is a delta POI, sets *out to the exact materialized
  /// distance and returns true. Returns false when both endpoints live in
  /// the base (the caller then remaps via BaseIndex and probes the base).
  /// Both ids must be live.
  virtual bool TryExact(uint32_t s, uint32_t t, double* out) const = 0;

  /// Base POI index of stable id `id` (kInvalidId for delta POIs).
  virtual uint32_t BaseIndex(uint32_t id) const = 0;
};

/// The one oracle interface the query engines consume. Both representations
/// of the SE oracle — the OracleView over flat bytes (a mapped file, or a
/// built SeOracle's own bytes) and the multi-shard PackView over an oracle
/// pack — flatten to the same four ingredients: ε, the POI table, the compressed partition
/// tree, and a PairSource to probe. DistanceSource carries exactly those,
/// by view (non-owning, 2 pointers per span): the kNN / range / batch
/// engines in query/ are written once against it instead of being
/// instantiated per representation, and anything that can produce a
/// DistanceSource (see MakeSource) gets the full query surface for free.
///
/// Answers are bit-identical across representations because every probe
/// runs the same code (oracle/distance_query.h) over byte-identical
/// records.
///
/// A source may additionally carry a DistanceOverlay (the dynamic oracle's
/// snapshots do): ids are then stable ids, dead ids answer NotFound, and
/// delta POIs are served from exact materialized rows while base-to-base
/// pairs remap into the frozen representation. Engines consult IsLive() to
/// skip dead candidates.
///
/// Lifetime: a DistanceSource borrows from the representation it was made
/// from; the OracleView / PackView (and overlay, if any) must
/// outlive it. Thread safety: immutable, freely shared across threads; the
/// scratch-taking Distance requires one QueryScratch per thread.
class DistanceSource {
 public:
  DistanceSource() = default;
  DistanceSource(double epsilon, std::span<const SurfacePoint> pois,
                 CompressedTreeView tree, PairSource pairs)
      : epsilon_(epsilon), pois_(pois), tree_(tree), pairs_(pairs) {}
  DistanceSource(double epsilon, std::span<const SurfacePoint> pois,
                 CompressedTreeView tree, PairSource pairs,
                 const DistanceOverlay* overlay)
      : epsilon_(epsilon),
        pois_(pois),
        tree_(tree),
        pairs_(pairs),
        overlay_(overlay) {}

  /// ε-approximate distance between POIs s and t: the O(h) query of §3.4.
  /// With an overlay: NotFound for dead ids, exact for delta endpoints.
  StatusOr<double> Distance(uint32_t s, uint32_t t,
                            QueryScratch& scratch) const {
    if (s >= pois_.size() || t >= pois_.size()) {
      return Status::InvalidArgument("POI index out of range");
    }
    if (overlay_ != nullptr) {
      if (!overlay_->IsLive(s) || !overlay_->IsLive(t)) {
        return Status::NotFound("POI id is not live");
      }
      if (s == t) return 0.0;
      double exact = 0.0;
      if (overlay_->TryExact(s, t, &exact)) return exact;
      s = overlay_->BaseIndex(s);
      t = overlay_->BaseIndex(t);
    }
    return OracleDistance(tree_, pairs_, s, t, scratch);
  }
  /// Convenience overload over a thread_local scratch; re-entrant.
  StatusOr<double> Distance(uint32_t s, uint32_t t) const {
    static thread_local QueryScratch scratch;
    return Distance(s, t, scratch);
  }

  /// The O(h²) naive query (SE-Naive baseline). Same answers.
  StatusOr<double> DistanceNaive(uint32_t s, uint32_t t,
                                 QueryScratch& scratch) const {
    if (s >= pois_.size() || t >= pois_.size()) {
      return Status::InvalidArgument("POI index out of range");
    }
    if (overlay_ != nullptr) {
      if (!overlay_->IsLive(s) || !overlay_->IsLive(t)) {
        return Status::NotFound("POI id is not live");
      }
      if (s == t) return 0.0;
      double exact = 0.0;
      if (overlay_->TryExact(s, t, &exact)) return exact;
      s = overlay_->BaseIndex(s);
      t = overlay_->BaseIndex(t);
    }
    return OracleDistanceNaive(tree_, pairs_, s, t, scratch);
  }

  /// Whether id `p` addresses a live POI. Always true for in-range ids of
  /// an overlay-free source; engines use this to skip tombstoned candidates.
  bool IsLive(uint32_t p) const {
    if (p >= pois_.size()) return false;
    return overlay_ == nullptr || overlay_->IsLive(p);
  }

  bool has_overlay() const { return overlay_ != nullptr; }

  double epsilon() const { return epsilon_; }
  size_t num_pois() const { return pois_.size(); }
  std::span<const SurfacePoint> pois() const { return pois_; }
  const CompressedTreeView& tree() const { return tree_; }
  const PairSource& pair_source() const { return pairs_; }

 private:
  double epsilon_ = 0.0;
  std::span<const SurfacePoint> pois_;
  CompressedTreeView tree_;
  PairSource pairs_;
  const DistanceOverlay* overlay_ = nullptr;
};

/// Flattens an OracleView (a mapped file or a built SeOracle) to the
/// unified query interface.
inline DistanceSource MakeSource(const OracleView& view) {
  return DistanceSource(view.epsilon(), view.pois(), view.tree(),
                        view.pair_set());
}

/// Flattens a multi-shard PackView to the unified query interface: probes
/// route through the pack's sharded PairSource, so every engine in query/
/// serves a pack with no sharding-aware code.
inline DistanceSource MakeSource(const PackView& pack) {
  return DistanceSource(pack.epsilon(), pack.pois(), pack.tree(),
                        pack.pair_source());
}

/// Identity overload so generic code can normalize anything query-able to a
/// DistanceSource with one spelling.
inline const DistanceSource& MakeSource(const DistanceSource& source) {
  return source;
}

}  // namespace tso

#endif  // TSO_QUERY_ENGINE_H_
