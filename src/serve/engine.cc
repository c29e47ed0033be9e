#include "serve/engine.h"

#include <optional>
#include <thread>

#include "base/failpoint.h"
#include "dyn/dynamic_oracle.h"
#include "oracle/pack_format.h"

namespace tso {
namespace {

/// Per-query budget clock, armed at admission. Disabled (never exceeded)
/// when neither the query nor the engine sets a deadline, which keeps the
/// default path free of clock reads beyond the one `count() > 0` check.
class DeadlineTimer {
 public:
  DeadlineTimer(std::chrono::microseconds query_deadline,
                std::chrono::microseconds default_deadline) {
    const std::chrono::microseconds budget =
        query_deadline.count() > 0 ? query_deadline : default_deadline;
    if (budget.count() > 0) {
      enabled_ = true;
      deadline_ = std::chrono::steady_clock::now() + budget;
    }
  }
  bool enabled() const { return enabled_; }
  bool Exceeded() const {
    return enabled_ && std::chrono::steady_clock::now() > deadline_;
  }

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point deadline_;
};

Status DeadlineError(std::atomic<uint64_t>* counter) {
  counter->fetch_add(1, std::memory_order_relaxed);
  return Status::DeadlineExceeded("query exceeded its deadline budget");
}

/// Transient load failures are worth retrying (a reload racing the
/// publisher's rename, a shed admission upstream); validation failures are
/// permanent — the bytes will not get better.
bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kUnavailable;
}

/// Queries batched under a deadline run in chunks of this many pairs, with
/// a budget check between chunks.
constexpr size_t kDeadlineChunk = 4096;

}  // namespace

const char* ServeHealthName(ServeHealth health) {
  switch (health) {
    case ServeHealth::kServing:
      return "serving";
    case ServeHealth::kDegraded:
      return "degraded";
    case ServeHealth::kLameDuck:
      return "lame-duck";
  }
  return "unknown";
}

/// The views borrow from the mapped file owned by pack/flat; `source` in
/// turn borrows from the views (for a pack, its PairSource spans the
/// PackView's shard vector). The struct is never moved after construction,
/// so those internal borrows stay valid for its whole lifetime.
///
/// A mutable generation sets `dyn` instead: `source` is left empty (the
/// dynamic oracle pins a fresh snapshot per query — a State-lifetime source
/// would go stale at the first merge) and queries forward to the oracle's
/// own query surface.
struct ServeEngine::State {
  std::optional<PackView> pack;
  std::optional<OracleView> flat;
  std::shared_ptr<DynamicSeOracle> dyn;
  DistanceSource source;
  uint32_t num_shards = 0;
  uint32_t degraded_shards = 0;
  size_t mapped_bytes = 0;
};

ServeEngine::~ServeEngine() {
  State* old = state_.exchange(nullptr, std::memory_order_seq_cst);
  if (old != nullptr) epoch_.Retire([old]() { delete old; });
  // ~EpochDomain quiesces, so the retired state (and its mapping) is gone
  // before the engine's storage is.
}

Status ServeEngine::Admit() const {
  queries_.Add();
  if (lame_duck_.load(std::memory_order_acquire)) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("lame duck: engine is draining");
  }
  if (options_.max_inflight > 0 &&
      admitted_.fetch_add(1, std::memory_order_relaxed) >=
          options_.max_inflight) {
    admitted_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("admission control: too many queries in flight");
  }
  inflight_.Add();
  // Fires while the slot is held: a pause-armed "serve.query" occupies one
  // admission slot for as long as it stays armed, which is how the overload
  // tests and the bench saturate admission deterministically. An
  // error-armed one must give the slot back before rejecting.
  if (failpoint::internal::g_armed.load(std::memory_order_relaxed) > 0) {
    Status injected = failpoint::internal::Eval("serve.query");
    if (!injected.ok()) {
      Release();
      return injected;
    }
  }
  return Status::Ok();
}

void ServeEngine::Release() const {
  inflight_.Sub();
  if (options_.max_inflight > 0) {
    admitted_.fetch_sub(1, std::memory_order_relaxed);
  }
}

/// Releases the admission slot taken by Admit() when the query returns.
class ServeEngine::InflightSlot {
 public:
  explicit InflightSlot(const ServeEngine* engine) : engine_(engine) {}
  ~InflightSlot() { engine_->Release(); }
  InflightSlot(const InflightSlot&) = delete;
  InflightSlot& operator=(const InflightSlot&) = delete;

 private:
  const ServeEngine* engine_;
};

Status ServeEngine::LoadOnce(const std::string& path) {
  TSO_FAILPOINT("serve.load");
  // Build and validate the replacement completely before touching the
  // published pointer: a failed open leaves the old generation serving.
  auto fresh = std::make_unique<State>();
  {
    // Sniff the magic through a short-lived mapping attempt: packs and flat
    // oracles share the open-and-validate shape, only the view type
    // differs.
    StatusOr<PackView> pack = PackView::Open(path);
    if (!pack.ok() && options_.allow_degraded_packs) {
      // A pack with (say) one corrupt shard fails the strict open; retry
      // degraded — checksums on, so quarantine decisions rest on verified
      // bytes — before giving up. Only meaningful if the file is a pack at
      // all, which the retry itself determines (frame validation still
      // runs, and a non-pack fails exactly as before).
      StatusOr<MmapFile> sniff = MmapFile::Open(path);
      if (sniff.ok() && LooksLikeOraclePack(sniff->view())) {
        PackView::Options degraded;
        degraded.verify_checksums = true;
        degraded.allow_degraded = true;
        StatusOr<PackView> retry = PackView::Open(path, degraded);
        if (retry.ok()) pack = std::move(retry);
      }
    }
    if (pack.ok()) {
      fresh->pack.emplace(std::move(*pack));
      fresh->source = MakeSource(*fresh->pack);
      fresh->num_shards = fresh->pack->num_shards();
      fresh->degraded_shards =
          fresh->pack->num_shards() - fresh->pack->num_available();
      fresh->mapped_bytes = fresh->pack->SizeBytes();
    } else {
      StatusOr<OracleView> flat = OracleView::Open(path);
      if (!flat.ok()) {
        // Report the error of the format the file claims to be.
        StatusOr<MmapFile> sniff = MmapFile::Open(path);
        if (sniff.ok() && LooksLikeOraclePack(sniff->view())) {
          return pack.status();
        }
        return flat.status();
      }
      fresh->flat.emplace(std::move(*flat));
      fresh->source = MakeSource(*fresh->flat);
      fresh->num_shards = 1;
      fresh->mapped_bytes = fresh->flat->SizeBytes();
    }
  }

  std::lock_guard<std::mutex> lock(load_mu_);
  State* old = state_.exchange(fresh.release(), std::memory_order_seq_cst);
  if (old != nullptr) epoch_.Retire([old]() { delete old; });
  reloads_.fetch_add(1, std::memory_order_relaxed);
  // Opportunistic reclaim: frees generations whose readers have all left.
  // Nothing blocks here; a pinned generation is picked up by a later load
  // or the destructor.
  epoch_.Reclaim();
  return Status::Ok();
}

Status ServeEngine::Load(const std::string& path) {
  Status status = LoadOnce(path);
  std::chrono::milliseconds backoff = options_.load_backoff;
  for (uint32_t attempt = 0;
       attempt < options_.load_retries && !status.ok() && IsTransient(status);
       ++attempt) {
    load_retries_.fetch_add(1, std::memory_order_relaxed);
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    backoff *= 2;
    status = LoadOnce(path);
  }
  if (!status.ok()) {
    load_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Annotate(status, "ServeEngine::Load(" + path + ")");
  }
  return status;
}

Status ServeEngine::Host(std::shared_ptr<DynamicSeOracle> dyn) {
  if (dyn == nullptr) {
    return Status::InvalidArgument("cannot host a null dynamic oracle");
  }
  auto fresh = std::make_unique<State>();
  fresh->num_shards = 1;
  fresh->mapped_bytes = dyn->SizeBytes();
  fresh->dyn = std::move(dyn);

  std::lock_guard<std::mutex> lock(load_mu_);
  State* old = state_.exchange(fresh.release(), std::memory_order_seq_cst);
  if (old != nullptr) epoch_.Retire([old]() { delete old; });
  reloads_.fetch_add(1, std::memory_order_relaxed);
  epoch_.Reclaim();
  return Status::Ok();
}

StatusOr<double> ServeEngine::Distance(uint32_t s, uint32_t t,
                                       const QueryOptions& options) const {
  // The budget clock starts before admission, so time spent stalled at the
  // admission seam counts against the caller's deadline.
  const DeadlineTimer timer(options.deadline, options_.default_deadline);
  TSO_RETURN_IF_ERROR(Admit());
  InflightSlot slot(this);
  if (timer.Exceeded()) return DeadlineError(&deadline_exceeded_);
  EpochDomain::Guard guard = epoch_.Enter();
  const State* state = Pinned();
  if (state == nullptr) return Status::FailedPrecondition("no oracle loaded");
  StatusOr<double> result = state->dyn != nullptr
                                ? state->dyn->Distance(s, t)
                                : state->source.Distance(s, t);
  if (result.ok() && timer.Exceeded()) {
    return DeadlineError(&deadline_exceeded_);
  }
  return result;
}

StatusOr<std::vector<double>> ServeEngine::Batch(
    std::span<const std::pair<uint32_t, uint32_t>> queries,
    uint32_t num_threads, const QueryOptions& options) const {
  const DeadlineTimer timer(options.deadline, options_.default_deadline);
  TSO_RETURN_IF_ERROR(Admit());
  InflightSlot slot(this);
  // The calling thread's guard covers the worker threads too: they are
  // joined before DistanceBatch returns, which happens before the guard is
  // released.
  EpochDomain::Guard guard = epoch_.Enter();
  const State* state = Pinned();
  if (state == nullptr) return Status::FailedPrecondition("no oracle loaded");
  if (!timer.enabled()) {
    if (state->dyn != nullptr) return state->dyn->Batch(queries, num_threads);
    return DistanceBatch(state->source, queries, num_threads);
  }
  // Deadline mode: chunk so a huge batch can stop near the budget instead
  // of overrunning it by the whole remaining batch.
  std::vector<double> out;
  out.reserve(queries.size());
  for (size_t off = 0; off < queries.size(); off += kDeadlineChunk) {
    if (timer.Exceeded()) return DeadlineError(&deadline_exceeded_);
    const size_t n = std::min(kDeadlineChunk, queries.size() - off);
    StatusOr<std::vector<double>> part =
        state->dyn != nullptr
            ? state->dyn->Batch(queries.subspan(off, n), num_threads)
            : DistanceBatch(state->source, queries.subspan(off, n),
                            num_threads);
    if (!part.ok()) return part.status();
    out.insert(out.end(), part->begin(), part->end());
  }
  if (timer.Exceeded()) return DeadlineError(&deadline_exceeded_);
  return out;
}

StatusOr<std::vector<KnnResult>> ServeEngine::Knn(
    uint32_t query, size_t k, uint32_t num_threads,
    const QueryOptions& options) const {
  const DeadlineTimer timer(options.deadline, options_.default_deadline);
  TSO_RETURN_IF_ERROR(Admit());
  InflightSlot slot(this);
  if (timer.Exceeded()) return DeadlineError(&deadline_exceeded_);
  EpochDomain::Guard guard = epoch_.Enter();
  const State* state = Pinned();
  if (state == nullptr) return Status::FailedPrecondition("no oracle loaded");
  StatusOr<std::vector<KnnResult>> result =
      state->dyn != nullptr
          ? state->dyn->Knn(query, k, num_threads)
          : (num_threads == 1
                 ? KnnQuery(state->source, query, k)
                 : KnnQueryParallel(state->source, query, k, num_threads));
  if (result.ok() && timer.Exceeded()) {
    return DeadlineError(&deadline_exceeded_);
  }
  return result;
}

StatusOr<std::vector<uint32_t>> ServeEngine::Range(
    uint32_t query, double radius, uint32_t num_threads,
    const QueryOptions& options) const {
  const DeadlineTimer timer(options.deadline, options_.default_deadline);
  TSO_RETURN_IF_ERROR(Admit());
  InflightSlot slot(this);
  if (timer.Exceeded()) return DeadlineError(&deadline_exceeded_);
  EpochDomain::Guard guard = epoch_.Enter();
  const State* state = Pinned();
  if (state == nullptr) return Status::FailedPrecondition("no oracle loaded");
  StatusOr<std::vector<uint32_t>> result =
      state->dyn != nullptr
          ? state->dyn->Range(query, radius, num_threads)
          : (num_threads == 1
                 ? RangeQuery(state->source, query, radius)
                 : RangeQueryParallel(state->source, query, radius,
                                      num_threads));
  if (result.ok() && timer.Exceeded()) {
    return DeadlineError(&deadline_exceeded_);
  }
  return result;
}

ServeEngine::Stats ServeEngine::stats() const {
  Stats s;
  s.reloads = reloads_.load(std::memory_order_relaxed);
  s.queries = queries_.Sum();
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.load_failures = load_failures_.load(std::memory_order_relaxed);
  s.load_retries = load_retries_.load(std::memory_order_relaxed);
  s.inflight = inflight_.Sum();
  s.epoch = epoch_.stats();
  EpochDomain::Guard guard = epoch_.Enter();
  const State* state = Pinned();
  if (state != nullptr) {
    s.num_shards = state->num_shards;
    s.degraded_shards = state->degraded_shards;
    s.mapped_bytes = state->mapped_bytes;
    if (state->dyn != nullptr) {
      s.dynamic = true;
      s.num_pois = state->dyn->num_live();
    } else {
      s.num_pois = state->source.num_pois();
    }
  }
  if (lame_duck_.load(std::memory_order_acquire)) {
    s.health = ServeHealth::kLameDuck;
  } else if (s.degraded_shards > 0) {
    s.health = ServeHealth::kDegraded;
  }
  return s;
}

}  // namespace tso
