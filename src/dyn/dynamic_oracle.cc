#include "dyn/dynamic_oracle.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "base/failpoint.h"
#include "oracle/node_pair_set.h"

namespace tso {

namespace {

/// Process-unique oracle serial keying the thread-local solver cache (the
/// EpochDomain slot idiom: an entry cached for a destroyed oracle can never
/// alias a new oracle at the same address).
std::atomic<uint64_t>& NextInstanceId() {
  static std::atomic<uint64_t> id{1};
  return id;
}

}  // namespace

DynamicSeOracle::DynamicSeOracle(const TerrainMesh* mesh,
                                 GeodesicSolver* solver,
                                 const DynamicOracleOptions& options)
    : mesh_(mesh),
      solver_(solver),
      options_(options),
      instance_id_(NextInstanceId().fetch_add(1, std::memory_order_relaxed)) {}

DynamicSeOracle::~DynamicSeOracle() {
  DynamicSnapshot* last = snap_.exchange(nullptr, std::memory_order_acq_rel);
  if (last != nullptr) {
    epoch_.Retire([last] { delete last; });
  }
  // ~EpochDomain (destroyed after this body — it is the earliest-declared
  // of the mutable members) quiesces, so the retired snapshots are freed
  // before oplog_ and the owned solvers go away.
}

StatusOr<std::unique_ptr<DynamicSeOracle>> DynamicSeOracle::Mount(
    std::shared_ptr<DynamicSnapshot::BaseGen> base, const TerrainMesh* mesh,
    GeodesicSolver* solver, const DynamicOracleOptions& options) {
  if (base->source.num_pois() == 0) {
    return Status::InvalidArgument("dynamic oracle needs a non-empty base");
  }
  if (options.compaction_ratio <= 0.0) {
    return Status::InvalidArgument("compaction_ratio must be positive");
  }
  std::unique_ptr<DynamicSeOracle> dyn(
      new DynamicSeOracle(mesh, solver, options));

  // The initial snapshot: stable id i == base index i, everything live.
  const size_t n = base->source.num_pois();
  auto snap = std::unique_ptr<DynamicSnapshot>(new DynamicSnapshot());
  snap->points_.assign(base->source.pois().begin(),
                       base->source.pois().end());
  snap->alive_.assign(n, 1);
  snap->base_index_.resize(n);
  std::iota(snap->base_index_.begin(), snap->base_index_.end(), 0u);
  snap->delta_slot_.assign(n, -1);
  snap->live_count_ = n;
  snap->base_ = std::move(base);
  dyn->next_id_.store(static_cast<uint32_t>(n), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(dyn->merge_mu_);
    dyn->PublishLocked(std::move(snap));
  }
  return dyn;
}

StatusOr<std::unique_ptr<DynamicSeOracle>> DynamicSeOracle::Create(
    const TerrainMesh& mesh, std::vector<SurfacePoint> pois,
    GeodesicSolver& solver, const DynamicOracleOptions& options) {
  TSO_RETURN_IF_ERROR(ValidateEpsilon(options.base.epsilon));
  StatusOr<SeOracle> built =
      SeOracle::Build(mesh, std::move(pois), solver, options.base);
  if (!built.ok()) return built.status();
  return FromView(std::move(*built), &mesh, &solver, options);
}

StatusOr<std::unique_ptr<DynamicSeOracle>> DynamicSeOracle::FromView(
    OracleView view, const TerrainMesh* mesh, GeodesicSolver* solver,
    const DynamicOracleOptions& options) {
  auto gen = std::make_shared<DynamicSnapshot::BaseGen>();
  gen->view.emplace(std::move(view));
  gen->source = MakeSource(*gen->view);
  gen->size_bytes = gen->view->SizeBytes();
  return Mount(std::move(gen), mesh, solver, options);
}

StatusOr<std::unique_ptr<DynamicSeOracle>> DynamicSeOracle::FromSource(
    const DistanceSource& base, const TerrainMesh* mesh,
    GeodesicSolver* solver, const DynamicOracleOptions& options) {
  auto gen = std::make_shared<DynamicSnapshot::BaseGen>();
  gen->source = base;  // borrows the caller's backing representation
  return Mount(std::move(gen), mesh, solver, options);
}

GeodesicSolver* DynamicSeOracle::ThreadSolver() {
  if (!options_.solver_factory) return nullptr;
  struct CachedSolver {
    uint64_t instance_id;
    GeodesicSolver* solver;
  };
  thread_local std::vector<CachedSolver> cache;
  for (const CachedSolver& c : cache) {
    if (c.instance_id == instance_id_) return c.solver;
  }
  std::unique_ptr<GeodesicSolver> solver = options_.solver_factory();
  GeodesicSolver* raw = solver.get();
  {
    std::lock_guard<std::mutex> lock(solvers_mu_);
    owned_solvers_.push_back(std::move(solver));
  }
  cache.push_back({instance_id_, raw});
  return raw;
}

Status DynamicSeOracle::CoverDistances(const SurfacePoint& source_point,
                                       const std::vector<SurfacePoint>& targets,
                                       std::vector<double>* out) {
  out->assign(targets.size(), kInfDist);
  if (targets.empty()) return Status::Ok();
  SsadOptions opts;
  opts.cover_targets = &targets;
  GeodesicSolver* thread_solver = ThreadSolver();
  if (thread_solver != nullptr) {
    TSO_RETURN_IF_ERROR(thread_solver->Run(source_point, opts));
    for (size_t i = 0; i < targets.size(); ++i) {
      (*out)[i] = thread_solver->PointDistance(targets[i]);
    }
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(solver_mu_);
  TSO_RETURN_IF_ERROR(solver_->Run(source_point, opts));
  for (size_t i = 0; i < targets.size(); ++i) {
    (*out)[i] = solver_->PointDistance(targets[i]);
  }
  return Status::Ok();
}

StatusOr<double> DynamicSeOracle::ExactP2P(const SurfacePoint& a,
                                           const SurfacePoint& b) {
  GeodesicSolver* thread_solver = ThreadSolver();
  if (thread_solver != nullptr) return thread_solver->PointToPoint(a, b);
  std::lock_guard<std::mutex> lock(solver_mu_);
  return solver_->PointToPoint(a, b);
}

StatusOr<uint32_t> DynamicSeOracle::Insert(const SurfacePoint& poi) {
  if (mesh_ == nullptr || solver_ == nullptr) {
    return Status::FailedPrecondition(
        "insert requires a mesh and solver (remove-only mount)");
  }
  // The id is burned even if the insert fails below: ids are never reused,
  // and an id never published live never becomes live.
  const uint32_t id = next_id_.fetch_add(1, std::memory_order_relaxed);

  // Pin one snapshot just long enough to copy the live targets; the SSAD
  // below runs with no guard and no lock held.
  std::vector<uint32_t> target_ids;
  std::vector<SurfacePoint> targets;
  size_t row_len = 0;
  {
    EpochDomain::Guard guard = epoch_.Enter();
    const DynamicSnapshot* snap = Current();
    row_len = snap->num_ids();
    target_ids.reserve(snap->num_live());
    targets.reserve(snap->num_live());
    for (uint32_t i = 0; i < row_len; ++i) {
      if (!snap->IsLive(i)) continue;
      target_ids.push_back(i);
      targets.push_back(snap->poi(i));
    }
  }

  // One SSAD covering every live POI — the delta POI's exact row.
  std::vector<double> dists;
  TSO_RETURN_IF_ERROR(CoverDistances(poi, targets, &dists));
  auto row = std::make_shared<std::vector<double>>(row_len, kInfDist);
  for (size_t k = 0; k < target_ids.size(); ++k) {
    (*row)[target_ids[k]] = dists[k];
  }

  OpRecord rec;
  rec.kind = OpRecord::Kind::kInsert;
  rec.id = id;
  rec.poi = poi;
  rec.row = std::move(row);
  oplog_.Append(std::move(rec));

  // Publish point. A concurrent writer's merge may already have folded our
  // record — MergeLocked is then a cheap no-op.
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    TSO_RETURN_IF_ERROR(MergeLocked(nullptr));
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  TSO_RETURN_IF_ERROR(MaybeCompact());
  return id;
}

Status DynamicSeOracle::Remove(uint32_t id) {
  std::lock_guard<std::mutex> lock(merge_mu_);
  // Fold pending inserts first so a just-inserted id is removable.
  TSO_RETURN_IF_ERROR(MergeLocked(nullptr));
  const DynamicSnapshot* snap = Current();
  if (id >= snap->num_ids() || !snap->IsLive(id)) {
    return Status::NotFound("no live POI with this id");
  }
  OpRecord rec;
  rec.kind = OpRecord::Kind::kRemove;
  rec.id = id;
  TSO_RETURN_IF_ERROR(MergeLocked(&rec));
  removes_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status DynamicSeOracle::MergeLocked(const OpRecord* extra) {
  // Injected failures land BEFORE the drain: nothing is consumed, every
  // appended record stays in the oplog, and a later merge folds it — so a
  // failed merge can delay publication but never lose another writer's op.
  TSO_FAILPOINT("dyn.merge");
  std::vector<OpRecord> ops;
  oplog_.Drain(&ops);
  if (extra != nullptr) ops.push_back(*extra);
  if (ops.empty()) return Status::Ok();

  // Deterministic fold order: inserts by ascending stable id, tombstones
  // last. (Thread segments interleave arbitrarily in the drain.)
  std::stable_sort(ops.begin(), ops.end(),
                   [](const OpRecord& a, const OpRecord& b) {
                     const bool ar = a.kind == OpRecord::Kind::kRemove;
                     const bool br = b.kind == OpRecord::Kind::kRemove;
                     if (ar != br) return br;
                     return a.id < b.id;
                   });

  // merge_mu_ is held: the only threads that retire snapshots are publish
  // points, so the current snapshot cannot go away under us.
  const DynamicSnapshot* old = Current();
  uint32_t new_ids = static_cast<uint32_t>(old->num_ids());
  for (const OpRecord& op : ops) {
    if (op.kind == OpRecord::Kind::kInsert) {
      new_ids = std::max(new_ids, op.id + 1);
    }
  }

  auto next = std::unique_ptr<DynamicSnapshot>(new DynamicSnapshot());
  next->base_ = old->base_;
  next->points_ = old->points_;
  next->points_.resize(new_ids);
  next->alive_ = old->alive_;
  next->alive_.resize(new_ids, 0);
  next->base_index_ = old->base_index_;
  next->base_index_.resize(new_ids, kInvalidId);
  next->delta_slot_ = old->delta_slot_;
  next->delta_slot_.resize(new_ids, -1);
  next->rows_ = old->rows_;
  next->delta_ids_ = old->delta_ids_;
  next->live_count_ = old->live_count_;

  for (const OpRecord& op : ops) {
    if (op.kind == OpRecord::Kind::kInsert) {
      // Extend the record's row to the full id space: fill every live id
      // the inserting thread's pinned snapshot predates. This keeps the
      // invariant that a delta row covers everything live at its merge —
      // so for any live-live pair the younger endpoint's row is complete.
      auto row = std::make_shared<std::vector<double>>(*op.row);
      row->resize(new_ids, kInfDist);
      for (uint32_t j = 0; j < new_ids; ++j) {
        if (j == op.id || next->alive_[j] == 0) continue;
        if ((*row)[j] != kInfDist) continue;
        StatusOr<double> d = ExactP2P(op.poi, next->points_[j]);
        if (!d.ok()) return d.status();
        (*row)[j] = *d;
      }
      next->points_[op.id] = op.poi;
      next->alive_[op.id] = 1;
      next->delta_slot_[op.id] = static_cast<int32_t>(next->rows_.size());
      next->rows_.push_back(std::move(row));
      next->delta_ids_.push_back(op.id);
      ++next->live_count_;
    } else if (op.id < new_ids && next->alive_[op.id] != 0) {
      next->alive_[op.id] = 0;
      --next->live_count_;
    }
  }

  PublishLocked(std::move(next));
  return Status::Ok();
}

void DynamicSeOracle::PublishLocked(std::unique_ptr<DynamicSnapshot> next) {
  DynamicSnapshot* raw = next.release();
  // Wire the source last: it points into the snapshot's own vectors and at
  // the snapshot as its overlay, so the snapshot address must be final.
  const DistanceSource& base = raw->base_->source;
  raw->source_ = DistanceSource(
      base.epsilon(),
      std::span<const SurfacePoint>(raw->points_.data(), raw->points_.size()),
      base.tree(), base.pair_source(), raw);
  DynamicSnapshot* prev = snap_.exchange(raw, std::memory_order_acq_rel);
  if (prev != nullptr) {
    epoch_.Retire([prev] { delete prev; });
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
  epoch_.Reclaim();
}

Status DynamicSeOracle::Compact() {
  if (mesh_ == nullptr || solver_ == nullptr) {
    return Status::FailedPrecondition(
        "compaction requires a mesh and solver (remove-only mount)");
  }
  std::lock_guard<std::mutex> lock(compact_mu_);
  return CompactLocked();
}

Status DynamicSeOracle::CompactLocked() {
  // Capture the live set (ascending stable id — the canonical POI order of
  // the rebuilt base, which is what makes a quiesced compaction
  // bit-identical to a from-scratch static build).
  std::vector<uint32_t> live_ids;
  std::vector<SurfacePoint> live_points;
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    TSO_RETURN_IF_ERROR(MergeLocked(nullptr));
    const DynamicSnapshot* snap = Current();
    const uint32_t n = static_cast<uint32_t>(snap->num_ids());
    live_ids.reserve(snap->num_live());
    live_points.reserve(snap->num_live());
    for (uint32_t id = 0; id < n; ++id) {
      if (!snap->IsLive(id)) continue;
      live_ids.push_back(id);
      live_points.push_back(snap->poi(id));
    }
  }
  if (live_ids.empty()) {
    return Status::FailedPrecondition("no live POIs to compact");
  }

  // Build the new base aside — no locks held, queries and writers proceed.
  std::optional<SeOracle> built;
  {
    GeodesicSolver* thread_solver = ThreadSolver();
    if (thread_solver != nullptr) {
      StatusOr<SeOracle> r =
          SeOracle::Build(*mesh_, live_points, *thread_solver, options_.base);
      if (!r.ok()) return r.status();
      built.emplace(std::move(*r));
    } else {
      std::lock_guard<std::mutex> lock(solver_mu_);
      StatusOr<SeOracle> r =
          SeOracle::Build(*mesh_, live_points, *solver_, options_.base);
      if (!r.ok()) return r.status();
      built.emplace(std::move(*r));
    }
  }
  auto gen = std::make_shared<DynamicSnapshot::BaseGen>();
  gen->view.emplace(std::move(*built));
  gen->source = MakeSource(*gen->view);
  gen->size_bytes = gen->view->SizeBytes();

  // Injected failures land after the aside rebuild but before the publish
  // swap: the rebuilt base is simply discarded, the delta (and every
  // reader-visible snapshot) is untouched, and a later compaction retries.
  TSO_FAILPOINT("dyn.compact.publish");

  // Publish: fold writes that landed during the rebuild, then swap the base
  // under the same epoch protocol as every other publish.
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    TSO_RETURN_IF_ERROR(MergeLocked(nullptr));
    const DynamicSnapshot* old = Current();
    const uint32_t n = static_cast<uint32_t>(old->num_ids());

    auto next = std::unique_ptr<DynamicSnapshot>(new DynamicSnapshot());
    next->base_ = std::move(gen);
    next->points_ = old->points_;
    next->alive_ = old->alive_;
    next->live_count_ = old->live_count_;
    next->base_index_.assign(n, kInvalidId);
    std::vector<uint8_t> absorbed(n, 0);
    for (uint32_t k = 0; k < live_ids.size(); ++k) {
      // Captured ids map into the new base even if they died during the
      // rebuild — alive_ gates every lookup.
      next->base_index_[live_ids[k]] = k;
      absorbed[live_ids[k]] = 1;
    }
    // Only live delta POIs merged during the rebuild stay in the delta.
    // Their rows were extended at merge time, so they cover every absorbed
    // id. Tombstoned delta rows are unreachable (alive_ gates every
    // lookup), so compaction is where they are finally dropped.
    next->delta_slot_.assign(n, -1);
    for (size_t slot = 0; slot < old->delta_ids_.size(); ++slot) {
      const uint32_t id = old->delta_ids_[slot];
      if (absorbed[id] != 0 || old->alive_[id] == 0) continue;
      next->delta_slot_[id] = static_cast<int32_t>(next->rows_.size());
      next->rows_.push_back(old->rows_[slot]);
      next->delta_ids_.push_back(id);
    }
    PublishLocked(std::move(next));
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status DynamicSeOracle::MaybeCompact() {
  if (mesh_ == nullptr || solver_ == nullptr) return Status::Ok();
  size_t delta = 0;
  size_t live = 0;
  {
    EpochDomain::Guard guard = epoch_.Enter();
    const DynamicSnapshot* snap = Current();
    delta = snap->delta_size();
    live = snap->num_live();
  }
  const size_t threshold = std::min<size_t>(
      options_.max_delta,
      std::max<size_t>(
          4, static_cast<size_t>(options_.compaction_ratio *
                                 static_cast<double>(live))));
  if (delta <= threshold) return Status::Ok();
  std::unique_lock<std::mutex> lock(compact_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return Status::Ok();  // a compaction is in flight
  return CompactLocked();
}

StatusOr<double> DynamicSeOracle::Distance(uint32_t s, uint32_t t) const {
  EpochDomain::Guard guard = epoch_.Enter();
  return Current()->source().Distance(s, t);
}

StatusOr<std::vector<KnnResult>> DynamicSeOracle::Knn(
    uint32_t query, size_t k, uint32_t num_threads) const {
  EpochDomain::Guard guard = epoch_.Enter();
  const DynamicSnapshot* snap = Current();
  if (num_threads == 1) return KnnQuery(snap->source(), query, k);
  return KnnQueryParallel(snap->source(), query, k, num_threads);
}

StatusOr<std::vector<uint32_t>> DynamicSeOracle::Range(
    uint32_t query, double radius, uint32_t num_threads) const {
  EpochDomain::Guard guard = epoch_.Enter();
  const DynamicSnapshot* snap = Current();
  if (num_threads == 1) return RangeQuery(snap->source(), query, radius);
  return RangeQueryParallel(snap->source(), query, radius, num_threads);
}

StatusOr<std::vector<double>> DynamicSeOracle::Batch(
    std::span<const std::pair<uint32_t, uint32_t>> queries,
    uint32_t num_threads) const {
  EpochDomain::Guard guard = epoch_.Enter();
  return DistanceBatch(Current()->source(), queries, num_threads);
}

bool DynamicSeOracle::IsLive(uint32_t id) const {
  EpochDomain::Guard guard = epoch_.Enter();
  return Current()->IsLive(id);
}

size_t DynamicSeOracle::num_live() const {
  EpochDomain::Guard guard = epoch_.Enter();
  return Current()->num_live();
}

size_t DynamicSeOracle::num_ids() const {
  EpochDomain::Guard guard = epoch_.Enter();
  return Current()->num_ids();
}

SurfacePoint DynamicSeOracle::poi(uint32_t id) const {
  EpochDomain::Guard guard = epoch_.Enter();
  const DynamicSnapshot* snap = Current();
  if (id >= snap->num_ids()) return SurfacePoint();
  return snap->poi(id);
}

double DynamicSeOracle::epsilon() const {
  EpochDomain::Guard guard = epoch_.Enter();
  return Current()->source().epsilon();
}

DynamicSeOracle::PinnedSource DynamicSeOracle::Pin() const {
  EpochDomain::Guard guard = epoch_.Enter();
  const DynamicSnapshot* snap = Current();
  return PinnedSource(std::move(guard), snap);
}

DynamicStats DynamicSeOracle::stats() const {
  DynamicStats s;
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.removes = removes_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.publishes = publishes_.load(std::memory_order_relaxed);
  {
    EpochDomain::Guard guard = epoch_.Enter();
    const DynamicSnapshot* snap = Current();
    s.delta_size = snap->delta_size();
    s.live_pois = snap->num_live();
    s.num_ids = snap->num_ids();
  }
  s.oplog_depth = oplog_.ApproxDepth();
  s.epoch = epoch_.stats();
  return s;
}

size_t DynamicSeOracle::SizeBytes() const {
  EpochDomain::Guard guard = epoch_.Enter();
  const DynamicSnapshot* snap = Current();
  size_t bytes = snap->base_->size_bytes;
  bytes += snap->points_.size() * sizeof(SurfacePoint);
  bytes += snap->alive_.size() * sizeof(uint8_t);
  bytes += snap->base_index_.size() * sizeof(uint32_t);
  bytes += snap->delta_slot_.size() * sizeof(int32_t);
  for (const auto& row : snap->rows_) {
    bytes += row->size() * sizeof(double);
  }
  return bytes;
}

}  // namespace tso
