#ifndef TSO_DYN_DYNAMIC_ORACLE_H_
#define TSO_DYN_DYNAMIC_ORACLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "base/epoch.h"
#include "oracle/oracle_view.h"
#include "oracle/se_oracle.h"
#include "query/batch.h"
#include "query/engine.h"

namespace tso {

struct DynamicOracleOptions {
  /// Options used for (re)builds of the base oracle. Compaction rebuilds
  /// with exactly these options over the live POIs in ascending stable-id
  /// order, so a quiesced+compacted oracle answers bit-identically to a
  /// from-scratch static build over the same POI set.
  SeOracleOptions base;
  /// Rebuild the base once the delta index exceeds this fraction of the
  /// live POI count (LSM-style compaction).
  double compaction_ratio = 0.25;
  /// Hard cap on delta rows before a forced rebuild.
  size_t max_delta = 1024;
  /// Optional: an independent geodesic solver per writer thread, so
  /// concurrent Insert() calls run their SSADs in parallel. When unset,
  /// writer threads serialize their SSADs on the injected solver behind an
  /// internal mutex (readers are never affected either way). Must produce
  /// solvers over the same mesh and metric as the injected one.
  SolverFactory solver_factory;
};

struct DynamicStats {
  uint64_t inserts = 0;
  uint64_t removes = 0;
  uint64_t compactions = 0;   // base rebuilds published
  uint64_t publishes = 0;     // snapshot swaps (writes + compactions)
  size_t delta_size = 0;      // delta rows in the published snapshot
  size_t live_pois = 0;
  size_t num_ids = 0;         // stable ids published (incl. dead + burned)
  EpochDomain::Stats epoch;   // snapshot grace-period bookkeeping
};

/// One immutable published generation of the dynamic oracle: a shared
/// immutable base (in-memory SeOracle, mapped OracleView, or an external
/// DistanceSource) plus the merged delta index — per-id liveness, base
/// remapping, and the exact distance rows of delta POIs. Snapshots are
/// created at publish points, swapped in with one atomic exchange, and
/// reclaimed through an EpochDomain once their last reader exits; they are
/// never mutated after publication, so readers need no locks.
///
/// The snapshot is its own DistanceOverlay: `source()` is the full
/// DistanceSource over stable ids that every query engine consumes.
class DynamicSnapshot final : public DistanceOverlay {
 public:
  bool IsLive(uint32_t id) const override {
    return id < alive_.size() && alive_[id] != 0;
  }
  uint32_t BaseIndex(uint32_t id) const override { return base_index_[id]; }

  /// Exact distance when either live endpoint is a delta POI. Invariant
  /// behind the two-sided probe: a delta row covers every id live at its
  /// merge point, so for any live-live pair the younger row (the larger
  /// slot; slots are handed out in merge order) has the finite entry even
  /// when the older one predates its peer. The younger row is read first
  /// whatever the argument order, so (s, t) and (t, s) return the same
  /// SSAD's value.
  bool TryExact(uint32_t s, uint32_t t, double* out) const override {
    const int32_t rs = delta_slot_[s];
    const int32_t rt = delta_slot_[t];
    if (rs < 0 && rt < 0) return false;
    const bool s_younger = rs > rt;
    if (ReadRow(s_younger ? rs : rt, s_younger ? t : s, out)) return true;
    if (ReadRow(s_younger ? rt : rs, s_younger ? s : t, out)) return true;
    *out = kInfDist;
    return true;
  }

  /// The unified query interface over this snapshot (stable-id space).
  const DistanceSource& source() const { return source_; }

  size_t num_ids() const { return points_.size(); }
  size_t num_live() const { return live_count_; }
  size_t delta_size() const { return delta_ids_.size(); }
  const SurfacePoint& poi(uint32_t id) const { return points_[id]; }
  std::span<const uint32_t> delta_ids() const { return delta_ids_; }

 private:
  friend class DynamicSeOracle;

  /// True with *out set iff delta row `slot` (>= 0) has a finite entry for
  /// `peer`.
  bool ReadRow(int32_t slot, uint32_t peer, double* out) const {
    if (slot < 0) return false;
    const std::vector<double>& row = *rows_[slot];
    if (peer >= row.size() || row[peer] == kInfDist) return false;
    *out = row[peer];
    return true;
  }

  /// The immutable base generation, shared by every snapshot published on
  /// top of it and released (dropping the view's bytes) when the last such
  /// snapshot is reclaimed.
  struct BaseGen {
    // Create() / compaction rebuilds (a built SeOracle's bytes) and
    // FromView(); empty for FromSource(), whose caller owns the base.
    std::optional<OracleView> view;
    DistanceSource source;  // flattened base (dense indices)
    size_t size_bytes = 0;
  };

  DynamicSnapshot() = default;

  std::shared_ptr<const BaseGen> base_;
  std::vector<SurfacePoint> points_;  // by stable id
  std::vector<uint8_t> alive_;        // by stable id
  std::vector<uint32_t> base_index_;  // stable id -> base index / kInvalidId
  std::vector<int32_t> delta_slot_;   // stable id -> row slot / -1
  std::vector<std::shared_ptr<const std::vector<double>>> rows_;
  std::vector<uint32_t> delta_ids_;   // slot -> stable id
  size_t live_count_ = 0;
  DistanceSource source_;  // borrows base_ + points_ + this (overlay)
};

/// The concurrent log-structured dynamic oracle — the paper's future-work
/// item (§6) grown onto the serving stack. POIs can be inserted and removed
/// *under* live query traffic:
///
///   - Base layer: an immutable base — an OracleView over a built
///     SeOracle's bytes (Create) or a mapped file (FromView), or any
///     DistanceSource such as a PackView's (FromSource) — answers
///     base-to-base pairs ε-approximately.
///   - Delta layer: each Insert runs one SSAD that materializes exact
///     distances to every live POI, then folds its own record into a fresh
///     immutable snapshot and publishes it under merge_mu_. Removes fold a
///     tombstone the same way. Queries touching a delta POI are exact
///     lookups.
///   - Compaction layer: when the delta outgrows compaction_ratio, the base
///     is rebuilt aside over the live set and published through the same
///     epoch swap as serving-tier hot reload — queries never block and
///     never observe a torn state.
///
/// Stable ids: Insert() returns an id that survives removals of other POIs
/// and any number of compactions; ids are never reused. Queries against a
/// tombstoned (or never-published) id return NotFound.
///
/// Consistency: at any quiesced point (no writer in flight), Compact()
/// leaves the oracle answering bit-identically to a from-scratch
/// SeOracle::Build over the live POIs (ascending stable-id order, same
/// options) — the delta/compaction machinery never changes answers, only
/// when they are computed.
///
/// Failed writes are determinate: a write that returns an error changed
/// nothing a query can see. Once a write's publish succeeds it returns Ok,
/// even if the compaction it then triggers fails.
///
/// Thread safety: all methods are safe to call concurrently. Queries are
/// wait-free against writers (one epoch guard + an atomic snapshot load —
/// no read-path lock). Insert/Remove/Compact serialize their *publish*
/// steps internally but run their expensive work (SSADs, base rebuilds)
/// outside any lock. Destruction requires that no queries or mutations are
/// in flight.
class DynamicSeOracle {
 public:
  /// Builds an in-memory base oracle over `pois` and mounts the dynamic
  /// layer on it. `mesh` and `solver` must outlive the oracle.
  static StatusOr<std::unique_ptr<DynamicSeOracle>> Create(
      const TerrainMesh& mesh, std::vector<SurfacePoint> pois,
      GeodesicSolver& solver, const DynamicOracleOptions& options);

  /// Mounts the dynamic layer on a flat oracle view — a mapped file or a
  /// built SeOracle (the view is owned by the layer; its bytes are released
  /// once the last snapshot referencing them is reclaimed). `mesh`/`solver`
  /// may be null: the layer is then remove-only (Insert and Compact need
  /// the geodesic engine).
  static StatusOr<std::unique_ptr<DynamicSeOracle>> FromView(
      OracleView view, const TerrainMesh* mesh, GeodesicSolver* solver,
      const DynamicOracleOptions& options);

  /// Mounts the dynamic layer on any DistanceSource (e.g. a PackView's).
  /// The caller keeps the backing representation alive for the oracle's
  /// lifetime. `mesh`/`solver` may be null (remove-only, as above).
  static StatusOr<std::unique_ptr<DynamicSeOracle>> FromSource(
      const DistanceSource& base, const TerrainMesh* mesh,
      GeodesicSolver* solver, const DynamicOracleOptions& options);

  ~DynamicSeOracle();
  DynamicSeOracle(const DynamicSeOracle&) = delete;
  DynamicSeOracle& operator=(const DynamicSeOracle&) = delete;

  /// Adds a POI and returns its stable id. Cost: one SSAD (outside all
  /// locks, on this thread's solver when a factory is configured) + one
  /// snapshot publish; possibly a compaction (best effort: its failure
  /// leaves the delta in place for a later write to retry). Safe under
  /// concurrent queries and other writers. On error the allocated id is
  /// burned (never reused, never live).
  StatusOr<uint32_t> Insert(const SurfacePoint& poi);

  /// Tombstones a live POI; subsequent queries against it return NotFound.
  /// NotFound if `id` is unknown, not yet published, or already tombstoned.
  /// On error the POI stays live.
  Status Remove(uint32_t id);

  /// Forces a compaction: rebuilds the base over the live set aside (no
  /// locks held during the build; queries and writers proceed) and
  /// publishes it via the epoch swap. FailedPrecondition without a
  /// mesh+solver or when no POIs are live.
  Status Compact();

  /// ε-approximate distance between live stable ids (exact when either
  /// endpoint is a delta POI). NotFound for dead ids.
  StatusOr<double> Distance(uint32_t s, uint32_t t) const;

  bool IsLive(uint32_t id) const;
  size_t num_live() const;
  size_t num_ids() const;
  /// Surface position of a stable id (by value: snapshots are transient).
  SurfacePoint poi(uint32_t id) const;
  double epsilon() const;
  DynamicStats stats() const;
  size_t SizeBytes() const;

  /// A pinned snapshot exposed through the unified query interface: the
  /// epoch guard inside keeps the snapshot (and its base generation) alive
  /// for the pin's lifetime, so the DistanceSource can be handed to any
  /// query engine. Keep pins short — a held pin delays reclamation of every
  /// generation retired after it.
  class PinnedSource {
   public:
    const DistanceSource& source() const { return snap_->source(); }
    // NOLINTNEXTLINE(google-explicit-constructor)
    operator const DistanceSource&() const { return snap_->source(); }
    const DynamicSnapshot& snapshot() const { return *snap_; }

   private:
    friend class DynamicSeOracle;
    PinnedSource(EpochDomain::Guard guard, const DynamicSnapshot* snap)
        : guard_(std::move(guard)), snap_(snap) {}
    EpochDomain::Guard guard_;
    const DynamicSnapshot* snap_;
  };

  /// Pins the current snapshot. See PinnedSource.
  PinnedSource Pin() const;

 private:
  DynamicSeOracle(const TerrainMesh* mesh, GeodesicSolver* solver,
                  const DynamicOracleOptions& options);

  static StatusOr<std::unique_ptr<DynamicSeOracle>> Mount(
      std::shared_ptr<DynamicSnapshot::BaseGen> base, const TerrainMesh* mesh,
      GeodesicSolver* solver, const DynamicOracleOptions& options);

  /// Loads the current snapshot; callers must hold an epoch guard, or
  /// merge_mu_ (which excludes the only threads that retire snapshots).
  const DynamicSnapshot* Current() const {
    return snap_.load(std::memory_order_acquire);
  }

  /// Folds one write into a fresh snapshot and publishes it: with `poi`,
  /// the insert of `id` whose exact `row` (by stable id) covers the ids
  /// live in the snapshot its SSAD started from — extended here to ids
  /// published since; without, the tombstone of live `id`. On error
  /// nothing is published. Requires merge_mu_.
  Status MergeLocked(uint32_t id, const SurfacePoint* poi,
                     std::vector<double> row);

  /// Publishes `next` (source wired, epoch-swapped, old snapshot retired).
  /// Requires merge_mu_.
  void PublishLocked(std::unique_ptr<DynamicSnapshot> next);

  /// The rebuild+publish body of Compact(). Requires compact_mu_.
  Status CompactLocked();

  /// Compacts when the published delta exceeds the configured threshold and
  /// no other compaction is in flight (try-lock: a concurrent compaction
  /// will re-evaluate the threshold on the next write anyway). Best effort:
  /// a failed compaction publishes nothing and the next write re-checks.
  void MaybeCompact();

  /// Exact distances from `source_point` to every target, via this thread's
  /// factory solver or the shared solver under solver_mu_.
  Status CoverDistances(const SurfacePoint& source_point,
                        const std::vector<SurfacePoint>& targets,
                        std::vector<double>* out);
  /// Exact point-to-point distance on the same solver discipline.
  StatusOr<double> ExactP2P(const SurfacePoint& a, const SurfacePoint& b);
  GeodesicSolver* ThreadSolver();

  const TerrainMesh* mesh_;    // null => remove-only
  GeodesicSolver* solver_;     // shared fallback; null => remove-only
  DynamicOracleOptions options_;
  const uint64_t instance_id_;  // keys the thread-local solver cache

  mutable EpochDomain epoch_;
  std::atomic<DynamicSnapshot*> snap_{nullptr};
  std::mutex merge_mu_;    // serializes publish points (never queries)
  std::mutex compact_mu_;  // one compaction at a time
  std::mutex solver_mu_;   // guards solver_ when no factory is configured
  std::mutex solvers_mu_;
  std::vector<std::unique_ptr<GeodesicSolver>> owned_solvers_;

  std::atomic<uint32_t> next_id_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> removes_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> publishes_{0};
};

/// Flattens the dynamic oracle to the unified query interface by pinning
/// its current snapshot. The returned pin converts implicitly to
/// const DistanceSource&, so `KnnQuery(MakeSource(dyn), q, k)` works like
/// every other representation; bind it to a local to hold the pin across
/// several calls.
inline DynamicSeOracle::PinnedSource MakeSource(const DynamicSeOracle& dyn) {
  return dyn.Pin();
}

}  // namespace tso

#endif  // TSO_DYN_DYNAMIC_ORACLE_H_
