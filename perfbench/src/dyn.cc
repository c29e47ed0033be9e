// dyn_churn: a DynamicSeOracle hosted by ServeEngine, one writer running a
// seeded insert/remove script beside two readers.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>

#include "base/rng.h"
#include "geodesic/mmp_solver.h"
#include "layers.h"
#include "oracle/oracle_serde.h"
#include "terrain/dataset.h"
#include "terrain/poi_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

// ~500-vertex sf-small mesh, a base of 100 POIs, eps = 0.25, MMP; base
// builds and compactions on 2 threads.
constexpr uint32_t kVertices = 500;
constexpr size_t kBasePois = 100;
constexpr double kEpsilon = 0.25;
constexpr uint32_t kBuildThreads = 2;
constexpr double kCompactionRatio = 0.15;
constexpr int kSetups = 5;  // untraced runs report the fastest
constexpr uint32_t kReaders = 2;
// Writer script length per second of --seconds: sized so the script runs
// for about --seconds and spans several (3 at 8 s) compactions.
constexpr double kOpsPerSecond = 11;
constexpr uint32_t kSampleEvery = 64;   // reads kept as latency samples
constexpr int kSlices = 10;             // reader slices per --seconds
constexpr uint32_t kSpanEvery = 1024;   // reads kept as spans
constexpr double kOfferedRate = 60000;  // replay open loop, as wire_p2p

struct DynStack {
  tso::Dataset ds;
  std::unique_ptr<tso::MmpSolver> solver;
  tso::DynamicOracleOptions options;
  std::shared_ptr<tso::DynamicSeOracle> dyn;
  double synth_s = 0, create_s = 0, host_ms = 0, start_ms = 0, total_s = 0;
  std::unique_ptr<tso::ServeEngine> engine;
  std::unique_ptr<tso::TsodServer> server;  // declared last: stops first
};

tso::SeOracleOptions BaseOptions(const tso::TerrainMesh& mesh) {
  tso::SeOracleOptions o;
  o.epsilon = kEpsilon;
  o.seed = kDatasetSeed;
  o.num_threads = kBuildThreads;
  o.parallel_solver_factory = [&mesh]() {
    return std::unique_ptr<tso::GeodesicSolver>(new tso::MmpSolver(mesh));
  };
  return o;
}

std::unique_ptr<DynStack> SetUp(SpanLog* log, Report* rep) {
  auto st = std::make_unique<DynStack>();
  const int64_t t0 = NowNs();
  tso::StatusOr<tso::Dataset> ds = tso::MakePaperDataset(
      tso::PaperDataset::kSanFranciscoSmall, kVertices, kBasePois, kDatasetSeed);
  const int64_t t1 = NowNs();
  if (!ds.ok()) {
    rep->Fail("MakePaperDataset: " + ds.status().ToString());
    return nullptr;
  }
  st->ds = std::move(*ds);
  const tso::TerrainMesh& mesh = *st->ds.mesh;
  st->solver = std::make_unique<tso::MmpSolver>(mesh);
  st->options.base = BaseOptions(mesh);
  st->options.compaction_ratio = kCompactionRatio;
  tso::StatusOr<std::unique_ptr<tso::DynamicSeOracle>> dyn =
      tso::DynamicSeOracle::Create(mesh, st->ds.pois, *st->solver, st->options);
  const int64_t t2 = NowNs();
  if (!dyn.ok()) {
    rep->Fail("DynamicSeOracle::Create: " + dyn.status().ToString());
    return nullptr;
  }
  st->dyn = std::move(*dyn);
  st->engine = std::make_unique<tso::ServeEngine>();
  const tso::Status hosted = st->engine->Host(st->dyn);
  const int64_t t3 = NowNs();
  if (!hosted.ok()) {
    rep->Fail("ServeEngine::Host: " + hosted.ToString());
    return nullptr;
  }
  st->server = std::make_unique<tso::TsodServer>(st->engine.get(),
                                                 tso::TsodServerOptions{});
  const tso::Status started = st->server->Start();
  const int64_t t4 = NowNs();
  if (!started.ok()) {
    rep->Fail("TsodServer::Start: " + started.ToString());
    return nullptr;
  }
  st->synth_s = (t1 - t0) / 1e9;
  st->create_s = (t2 - t1) / 1e9;
  st->host_ms = (t3 - t2) / 1e6;
  st->start_ms = (t4 - t3) / 1e6;
  st->total_s = (t4 - t0) / 1e9;
  const uint64_t root = log->Add("setup", t0, t4, 0, 0);
  log->Add("terrain.synth", t0, t1, root, 0);
  log->Add("dyn.create", t1, t2, root, 0);
  log->Add("serve.load", t2, t3, root, 0);
  log->Add("net.start", t3, t4, root, 0);
  return st;
}

struct WriterCall {
  int64_t start_ns, end_ns;
  bool compacting;
};

struct Churn {
  double qps = 0, p50_us = 0, p90_us = 0, p99_us = 0;
  double rel_err_max = 0, rel_err_mean = 0;
  Samples insert_ms;
  std::vector<WriterCall> calls;
  std::vector<std::pair<int64_t, int64_t>> reads;  // sampled (start, ns)
  double delta_max = 0, pending_max = 0, writer_s = 0;
};

/// Per-reader tallies of one slice.
struct Reader {
  std::vector<std::pair<int64_t, int64_t>> sampled;  // (start, ns)
  uint64_t reads = 0, failed = 0, checked = 0;
  double rel_err_max = 0, rel_err_sum = 0;
  SpanLog spans{false};
};

/// The timed phase. `exact` holds exact distances between every base POI
/// and every pool point, indexed by stable id (base ids 0..n-1, then the
/// pool in insertion order). Readers run in slices of `slice_s`, each on a
/// freshly spawned set of threads so the scheduler places every slice anew;
/// the slices are the rounds of RoundMetrics.
Churn RunChurn(DynStack& st, const std::vector<tso::SurfacePoint>& pool,
               size_t ops, const std::vector<std::vector<double>>& exact,
               double slice_s, uint64_t seed, SpanLog* log, Report* rep) {
  Churn out;
  std::atomic<bool> writer_done{false};
  const uint32_t points = static_cast<uint32_t>(exact.size());
  tso::ServeEngine& engine = *st.engine;
  tso::DynamicSeOracle& dyn = *st.dyn;

  auto read = [&](Reader& me, uint64_t rng_seed, int64_t until) {
    tso::Rng rng(rng_seed);
    for (int64_t b = 0; b < until && !writer_done.load(std::memory_order_acquire);) {
      const uint32_t num = static_cast<uint32_t>(dyn.num_ids());
      const uint32_t s = static_cast<uint32_t>(rng.Uniform(num));
      const uint32_t t = static_cast<uint32_t>(rng.Uniform(num));
      const int64_t a = NowNs();
      tso::StatusOr<double> d = engine.Distance(s, t);
      b = NowNs();
      if (me.reads++ % kSampleEvery == 0) me.sampled.emplace_back(a, b - a);
      if (me.reads % kSpanEvery == 0) {
        me.spans.Add("serve.distance", a, b, 0, me.reads);
      }
      if (d.ok()) {
        if (s >= points || t >= points) {
          ++me.failed;  // an id the script never issued
          continue;
        }
        const double e = exact[s][t];
        if (!WithinEpsilon(*d, e, kEpsilon)) {
          ++me.failed;
          rep->Note("dyn read outside eps");
        }
        if (e > 0) {
          const double rel = std::abs(*d - e) / e;
          me.rel_err_max = std::max(me.rel_err_max, rel);
          me.rel_err_sum += rel;
          ++me.checked;
        }
      } else if (d.status().code() != tso::StatusCode::kNotFound ||
                 (s < kBasePois && t < kBasePois)) {
        // NotFound is right only for a removed or not yet published
        // insert; base POIs are never removed.
        ++me.failed;
        rep->Note("dyn read: " + d.status().ToString());
      }
    }
  };

  RoundMetrics rounds;
  uint64_t reads = 0, failed = 0, checked = 0;
  double rel_err_sum = 0;
  std::thread coordinator([&]() {
    for (uint64_t slice = 0; !writer_done.load(std::memory_order_acquire); ++slice) {
      const int64_t begin = NowNs();
      const int64_t until = begin + static_cast<int64_t>(slice_s * 1e9);
      std::vector<Reader> readers(kReaders);
      std::vector<std::thread> threads;
      for (uint32_t r = 0; r < kReaders; ++r) {
        readers[r].spans = SpanLog(log->enabled());
        threads.emplace_back(read, std::ref(readers[r]),
                             (seed * 7777 + slice) * 31 + r, until);
      }
      for (std::thread& t : threads) t.join();
      const double seconds = (NowNs() - begin) / 1e9;
      Samples lat;
      uint64_t slice_reads = 0;
      for (Reader& r : readers) {
        for (const auto& [a, ns] : r.sampled) lat.Add(static_cast<double>(ns));
        out.reads.insert(out.reads.end(), r.sampled.begin(), r.sampled.end());
        slice_reads += r.reads;
        failed += r.failed;
        checked += r.checked;
        rel_err_sum += r.rel_err_sum;
        out.rel_err_max = std::max(out.rel_err_max, r.rel_err_max);
        log->Absorb(r.spans);
      }
      reads += slice_reads;
      // A last slice cut short by the writer finishing is checked, not timed.
      if (seconds >= slice_s / 2) {
        rounds.Add(slice_reads / seconds, lat.Percentile(50) / 1e3,
                   lat.Percentile(90) / 1e3, lat.Percentile(99) / 1e3);
      }
    }
  });

  std::deque<uint32_t> live;
  size_t next_pool = 0;
  for (size_t op = 0; op < ops; ++op) {
    const uint64_t c0 = dyn.stats().compactions;
    const int64_t a = NowNs();
    const bool remove = op % 4 == 3 && !live.empty();
    if (remove) {
      const tso::Status s = dyn.Remove(live.front());
      live.pop_front();
      if (!s.ok()) rep->Fail("Remove: " + s.ToString());
      else rep->Count(1, 0);
    } else {
      tso::StatusOr<uint32_t> id = dyn.Insert(pool[next_pool]);
      const uint32_t want = static_cast<uint32_t>(kBasePois + next_pool);
      ++next_pool;
      if (!id.ok() || *id != want) {
        rep->Fail("Insert: " + (id.ok() ? "unexpected id" : id.status().ToString()));
      } else {
        rep->Count(1, 0);
        live.push_back(*id);
      }
    }
    const int64_t b = NowNs();
    const tso::DynamicStats ds = dyn.stats();
    const bool compacting = ds.compactions != c0;
    out.calls.push_back({a, b, compacting});
    log->Add(compacting ? "dyn.compacting_call"
             : remove   ? "dyn.remove"
                        : "dyn.insert",
             a, b, 0, op);
    if (!remove && !compacting) out.insert_ms.Add((b - a) / 1e6);
    out.writer_s += (b - a) / 1e9;
    out.delta_max =
        std::max(out.delta_max, static_cast<double>(ds.delta_size));
    out.pending_max =
        std::max(out.pending_max, static_cast<double>(ds.epoch.pending));
  }
  writer_done.store(true, std::memory_order_release);
  coordinator.join();

  rep->Count(reads, failed);
  out.rel_err_mean = rel_err_sum / std::max<uint64_t>(1, checked);
  out.qps = rounds.Qps();
  out.p50_us = rounds.P50();
  out.p90_us = rounds.P90();
  out.p99_us = rounds.P99();
  return out;
}

}  // namespace

void RunDynChurn(const Args& args, SpanLog* log, Report* rep) {
  std::vector<double> setup_s;
  std::unique_ptr<DynStack> st;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    st.reset();
    st = SetUp(log, rep);
    if (st == nullptr) return;
    setup_s.push_back(st->total_s);
  }

  // The writer's script and the exact distances every read is checked
  // against: one MMP SSAD per base POI and per pool point.
  const size_t ops = std::max<size_t>(8, std::lround(kOpsPerSecond * args.seconds));
  const size_t inserts = ops - ops / 4;
  tso::Rng prng(args.seed + 9);
  const std::vector<tso::SurfacePoint> pool =
      tso::GenerateUniformPois(*st->ds.mesh, *st->ds.locator, inserts, prng);
  std::vector<tso::SurfacePoint> points = st->ds.pois;
  points.insert(points.end(), pool.begin(), pool.end());
  std::vector<uint32_t> all(points.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto exact = ExactRows(*st->ds.mesh, points, all, 4, rep);

  const double slice_s = args.seconds / kSlices;
  SpanLog untraced(false);
  // The whole process's peak: the base oracle lives in the heap and the
  // timed phase rebuilds it, so both are serving memory here.
  ResetPeakRss();
  const Churn e2e =
      RunChurn(*st, pool, ops, exact, slice_s, args.seed, &untraced, rep);
  const double rss_mb = PeakRssMb();

  if (!args.trace) {
    rep->Metric("setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
                "s");
    rep->Metric("rss_mb", rss_mb, "MiB");
    rep->Metric("oracle_mb", st->dyn->SizeBytes() / 1048576.0, "MiB");
    rep->Metric("qps", e2e.qps, "1/s");
    rep->Metric("p50_us", e2e.p50_us, "us");
    rep->Metric("p90_us", e2e.p90_us, "us");
    return;
  }

  // Traced run: a fresh stack from the same seed runs the same script with
  // spans on; the p50 difference is the tracing overhead.
  std::unique_ptr<DynStack> tr = SetUp(log, rep);
  if (tr == nullptr) return;
  const tso::ServeEngine::Stats serve0 = tr->engine->stats();
  const tso::DynamicStats dyn0 = tr->dyn->stats();
  const Churn traced =
      RunChurn(*tr, pool, ops, exact, slice_s, args.seed, log, rep);
  const tso::DynamicStats dyn1 = tr->dyn->stats();
  rep->Metric("trace.overhead_p50_pct",
              100.0 * (traced.p50_us - e2e.p50_us) / e2e.p50_us, "%");
  rep->Metric("timed.p99_us", e2e.p99_us, "us");
  rep->Metric("audit.rel_err_max", std::max(e2e.rel_err_max, traced.rel_err_max),
              "ratio");
  rep->Metric("audit.rel_err_mean", traced.rel_err_mean, "ratio");
  rep->Metric("terrain.synth_s", tr->synth_s, "s");
  rep->Metric("dyn.create_s", tr->create_s, "s");
  rep->Metric("serve.load_ms", tr->host_ms, "ms");
  rep->Metric("net.start_ms", tr->start_ms, "ms");
  rep->Metric("dyn.inserts", static_cast<double>(dyn1.inserts - dyn0.inserts),
              "count");
  rep->Metric("dyn.removes", static_cast<double>(dyn1.removes - dyn0.removes),
              "count");
  rep->Metric("dyn.compactions",
              static_cast<double>(dyn1.compactions - dyn0.compactions), "count");
  rep->Metric("dyn.publishes", static_cast<double>(dyn1.publishes - dyn0.publishes),
              "count");
  rep->Metric("dyn.delta_rows_max", traced.delta_max, "count");
  rep->Metric("base.epoch_pending_max", traced.pending_max, "count");
  rep->Metric("dyn.insert_p50_ms", traced.insert_ms.Percentile(50), "ms");
  rep->Metric("dyn.writer_s", traced.writer_s, "s");

  // Writer time in compacting calls, and reader p99 during those calls
  // against the rest.
  std::vector<std::pair<int64_t, int64_t>> compacting;
  double compact_s = 0;
  for (const WriterCall& c : traced.calls) {
    if (!c.compacting) continue;
    compacting.emplace_back(c.start_ns, c.end_ns);
    compact_s += (c.end_ns - c.start_ns) / 1e9;
  }
  rep->Metric("dyn.compact_share", compact_s / traced.writer_s, "ratio");
  Samples during, quiet;
  for (const auto& [start, ns] : traced.reads) {
    // Calls are in time order: the first call ending after the read starts
    // is the only one that can overlap it.
    auto it = std::lower_bound(
        compacting.begin(), compacting.end(), start,
        [](const std::pair<int64_t, int64_t>& c, int64_t s) {
          return c.second <= s;
        });
    const bool overlaps = it != compacting.end() && it->first < start + ns;
    (overlaps ? during : quiet).Add(static_cast<double>(ns));
  }
  rep->Metric("dyn.read_slowdown_compacting",
              during.size() == 0
                  ? 0.0
                  : during.Percentile(99) / quiet.Percentile(99),
              "ratio");

  // Build replay: the base oracle built by itself, for its phase breakdown,
  // and saved as TSOFLAT.
  {
    const tso::TerrainMesh& mesh = *tr->ds.mesh;
    tso::MmpSolver solver(mesh);
    tso::SeBuildStats b;
    const int64_t t0 = NowNs();
    tso::StatusOr<tso::SeOracle> oracle = tso::SeOracle::Build(
        mesh, tr->ds.pois, solver, BaseOptions(mesh), &b);
    const int64_t t1 = NowNs();
    if (!oracle.ok()) {
      rep->Fail("SeOracle::Build: " + oracle.status().ToString());
      return;
    }
    const tso::Status saved = tso::SaveSeOracleFlat(
        *oracle, args.out_dir + "/" + args.workload + "-base.tsoflat");
    const int64_t t2 = NowNs();
    if (!saved.ok()) rep->Fail("SaveSeOracleFlat: " + saved.ToString());
    log->Add("oracle.build", t0, t1, 0, 0);
    log->Add("oracle.save", t1, t2, 0, 0);
    rep->Metric("oracle.build_s", (t1 - t0) / 1e9, "s");
    rep->Metric("oracle.tree_s", b.tree_seconds, "s");
    rep->Metric("oracle.enhanced_s", b.enhanced_seconds, "s");
    rep->Metric("oracle.pairs_s", b.pair_gen_seconds, "s");
    rep->Metric("geodesic.ssad_runs", static_cast<double>(b.ssad_runs), "count");
    rep->Metric("geodesic.ssad_ms",
                1e3 * b.enhanced_seconds * b.threads_used /
                    std::max<double>(1, static_cast<double>(b.ssad_runs)),
                "ms");
    rep->Metric("oracle.spec_useful",
                b.tree_speculative_ssads == 0
                    ? 1.0
                    : 1.0 - static_cast<double>(b.tree_wasted_ssads) /
                                static_cast<double>(b.tree_speculative_ssads),
                "ratio");
    rep->Metric("oracle.node_pairs", static_cast<double>(b.node_pairs), "count");
    rep->Metric("oracle.save_s", (t2 - t1) / 1e9, "s");
  }

  // Layer replay over the churned oracle, on the ids still live.
  const tso::DynamicSeOracle::PinnedSource pinned = tr->dyn->Pin();
  LayerTarget target;
  target.engine = tr->engine.get();
  target.server = tr->server.get();
  target.port = tr->server->port();
  target.source = &pinned.source();
  target.dyn = tr->dyn.get();
  for (uint32_t id = 0; id < pinned.snapshot().num_ids(); ++id) {
    if (pinned.snapshot().IsLive(id)) target.ids.push_back(id);
  }
  std::vector<double> d;
  for (uint32_t s : target.ids) {
    for (uint32_t t : target.ids) {
      if (s != t) d.push_back(exact[s][t]);
    }
  }
  std::nth_element(d.begin(), d.begin() + d.size() / 20, d.end());
  target.radius = d[d.size() / 20];
  target.offered_rate = kOfferedRate;
  target.seed = args.seed;
  ReplayLayers(target, log, rep);

  const tso::ServeEngine::Stats serve1 = tr->engine->stats();
  rep->Metric("serve.failed",
              static_cast<double>(serve1.shed - serve0.shed +
                                  serve1.deadline_exceeded -
                                  serve0.deadline_exceeded),
              "count");
}

}  // namespace perfbench
