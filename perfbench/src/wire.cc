// wire_p2p: the sf-small oracle served by an in-process TsodServer over
// loopback.
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "base/rng.h"
#include "geodesic/mmp_solver.h"
#include "layers.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"
#include "terrain/dataset.h"
#include "terrain/poi_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Small scale: ~1000 vertices, n = 400, eps = 0.1, MMP, 4 build threads.
// The TSOFLAT artifact is ~8.8 MiB: more than a core's L2, less than L3.
constexpr uint32_t kVertices = 1000;
constexpr size_t kPois = 400;
constexpr double kEpsilon = 0.1;
constexpr uint32_t kBuildThreads = 4;
constexpr int kSetups = 3;            // untraced runs report the fastest
constexpr uint32_t kConns = 2;        // client connections, one thread each
constexpr uint32_t kWindow = 128;     // phase A: pipelined per connection
constexpr int kRounds = 10;           // timed-phase rounds (RoundMetrics)
constexpr double kPhaseAShare = 0.4;  // of a round; phase B gets the rest
// wire_p2p phase B offered rate (Distance RPCs per second, both
// connections together), frozen at about a quarter of the ~235k/s phase-A
// throughput of a 4-core x86 VM. Lower rates let the server's cores idle
// between requests, so p99 follows the hypervisor's wake-up latency; higher
// ones queue behind its stalls. Both swing p99 by more than half between
// runs; 60k/s keeps it within about a sixth.
constexpr double kOfferedRate = 60000;
constexpr double kRangeShare = 0.05;  // replayed Range radius: quantile of d
constexpr uint32_t kAuditSources = 48;

/// One servable oracle: mesh + POIs, the TSOFLAT file, the engine that maps
/// it, and the server in front of the engine.
struct WireStack {
  tso::Dataset ds;
  size_t file_bytes = 0;
  tso::SeBuildStats build;
  double synth_s = 0, build_s = 0, save_s = 0, load_ms = 0, start_ms = 0;
  double total_s = 0;
  std::unique_ptr<tso::ServeEngine> engine;
  std::unique_ptr<tso::TsodServer> server;  // declared last: stops first
};

std::unique_ptr<WireStack> SetUp(const std::string& path, SpanLog* log,
                                 Report* rep) {
  auto st = std::make_unique<WireStack>();
  const int64_t t0 = NowNs();
  tso::StatusOr<tso::Dataset> ds = tso::MakePaperDataset(
      tso::PaperDataset::kSanFranciscoSmall, kVertices, kPois, kDatasetSeed);
  const int64_t t1 = NowNs();
  if (!ds.ok()) {
    rep->Fail("MakePaperDataset: " + ds.status().ToString());
    return nullptr;
  }
  st->ds = std::move(*ds);
  const tso::TerrainMesh& mesh = *st->ds.mesh;
  tso::MmpSolver solver(mesh);
  tso::SeOracleOptions options;
  options.epsilon = kEpsilon;
  options.seed = kDatasetSeed;
  options.num_threads = kBuildThreads;
  options.parallel_solver_factory = [&mesh]() {
    return std::unique_ptr<tso::GeodesicSolver>(new tso::MmpSolver(mesh));
  };
  tso::StatusOr<tso::SeOracle> oracle =
      tso::SeOracle::Build(mesh, st->ds.pois, solver, options, &st->build);
  const int64_t t2 = NowNs();
  if (!oracle.ok()) {
    rep->Fail("SeOracle::Build: " + oracle.status().ToString());
    return nullptr;
  }
  const tso::Status saved = tso::SaveSeOracleFlat(*oracle, path);
  const int64_t t3 = NowNs();
  if (!saved.ok()) {
    rep->Fail("SaveSeOracleFlat: " + saved.ToString());
    return nullptr;
  }
  st->engine = std::make_unique<tso::ServeEngine>();
  const tso::Status loaded = st->engine->Load(path);
  const int64_t t4 = NowNs();
  if (!loaded.ok()) {
    rep->Fail("ServeEngine::Load: " + loaded.ToString());
    return nullptr;
  }
  st->server = std::make_unique<tso::TsodServer>(st->engine.get(),
                                                 tso::TsodServerOptions{});
  const tso::Status started = st->server->Start();
  const int64_t t5 = NowNs();
  if (!started.ok()) {
    rep->Fail("TsodServer::Start: " + started.ToString());
    return nullptr;
  }
  st->file_bytes = st->engine->stats().mapped_bytes;
  st->synth_s = (t1 - t0) / 1e9;
  st->build_s = (t2 - t1) / 1e9;
  st->save_s = (t3 - t2) / 1e9;
  st->load_ms = (t4 - t3) / 1e6;
  st->start_ms = (t5 - t4) / 1e6;
  st->total_s = (t5 - t0) / 1e9;
  const uint64_t root = log->Add("setup", t0, t5, 0, 0);
  log->Add("terrain.synth", t0, t1, root, 0);
  log->Add("oracle.build", t1, t2, root, 0);
  log->Add("oracle.save", t2, t3, root, 0);
  log->Add("serve.load", t3, t4, root, 0);
  log->Add("net.start", t4, t5, root, 0);
  return st;
}

/// What the timed phase measures (end-to-end metrics).
struct Timed {
  double qps = 0;
  double p50_us = 0, p90_us = 0, p99_us = 0;
};

/// Rounds of phase A, a closed loop (throughput), then phase B, an open
/// loop (latency from due time).
Timed RunP2p(uint16_t port, const std::vector<uint32_t>& ids, double seconds,
             uint64_t seed, const DistanceCheck& check, SpanLog* log,
             Report* rep) {
  RoundMetrics rounds;
  const double round_s = seconds / kRounds;
  for (int r = 0; r < kRounds; ++r) {
    const ClosedLoopResult a =
        PipelinedDistance(port, kConns, kWindow, round_s * kPhaseAShare, 0,
                          ids, seed + 2 * r, check, rep);
    const OpenLoopResult b = OpenLoopDistance(
        port, kConns, kOfferedRate, round_s * (1 - kPhaseAShare), ids,
        seed + 2 * r + 1, check, log, rep);
    rounds.Add(a.completed / a.seconds, b.latency_ns.Percentile(50) / 1e3,
               b.latency_ns.Percentile(90) / 1e3,
               b.latency_ns.Percentile(99) / 1e3);
  }
  return {rounds.Qps(), rounds.P50(), rounds.P90(), rounds.P99()};
}

}  // namespace

std::vector<std::vector<double>> ExactRows(
    const tso::TerrainMesh& mesh, const std::vector<tso::SurfacePoint>& points,
    const std::vector<uint32_t>& sources, uint32_t threads, Report* rep) {
  std::vector<std::vector<double>> rows(sources.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&]() {
      tso::MmpSolver solver(mesh);
      tso::SsadOptions opts;
      opts.cover_targets = &points;
      for (size_t i = next++; i < sources.size(); i = next++) {
        const tso::Status st = solver.Run(points[sources[i]], opts);
        if (!st.ok()) {
          rep->Fail("exact SSAD: " + st.ToString());
          rows[i].assign(points.size(), 0.0);
          continue;
        }
        rows[i].resize(points.size());
        for (size_t p = 0; p < points.size(); ++p) {
          rows[i][p] = p == sources[i] ? 0.0 : solver.PointDistance(points[p]);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return rows;
}

void RunWire(const Args& args, SpanLog* log, Report* rep) {
  const std::string path = args.out_dir + "/" + args.workload + ".tsoflat";
  // Set-up, several times when untraced; the last stack serves.
  std::vector<double> setup_s;
  std::unique_ptr<WireStack> st;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    st.reset();
    st = SetUp(path, log, rep);
    if (st == nullptr) return;
    setup_s.push_back(st->total_s);
  }
  const uint16_t port = st->server->port();
  const tso::ServeEngine::Stats serve0 = st->engine->stats();

  // Reference answers from an independent in-process engine on the same
  // file: every wire answer is bit-compared against them.
  tso::ServeEngine ref;
  if (const tso::Status s = ref.Load(path); !s.ok()) {
    rep->Fail("reference Load: " + s.ToString());
    return;
  }
  const size_t n = st->ds.pois.size();
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  std::vector<double> table(n * n, 0.0);
  std::vector<double> off_diagonal;
  off_diagonal.reserve(n * (n - 1));
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      if (s == t) continue;
      tso::StatusOr<double> d = ref.Distance(s, t);
      if (!d.ok()) {
        rep->Fail("reference Distance: " + d.status().ToString());
        return;
      }
      table[s * n + t] = *d;
      off_diagonal.push_back(*d);
    }
  }
  const DistanceCheck check = [&](uint32_t s, uint32_t t, double d) {
    return SameBits(table[s * n + t], d);
  };
  std::nth_element(off_diagonal.begin(),
                   off_diagonal.begin() + off_diagonal.size() * kRangeShare,
                   off_diagonal.end());
  const double radius = off_diagonal[off_diagonal.size() * kRangeShare];

  // The eps audit: exact MMP distances from seeded sample sources to every
  // POI, against the oracle's answers.
  std::vector<uint32_t> sources;
  {
    tso::Rng rng(args.seed + 101);
    for (size_t i : rng.SampleWithoutReplacement(n, kAuditSources)) {
      sources.push_back(static_cast<uint32_t>(i));
    }
  }
  const auto exact = ExactRows(*st->ds.mesh, st->ds.pois, sources, 4, rep);
  double rel_err_max = 0, rel_err_sum = 0;
  uint64_t audited = 0, violations = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    for (uint32_t t = 0; t < n; ++t) {
      if (t == sources[i]) continue;
      const double approx = table[sources[i] * n + t];
      const double d = exact[i][t];
      ++audited;
      if (!WithinEpsilon(approx, d, kEpsilon)) ++violations;
      if (d > 0) {
        rel_err_max = std::max(rel_err_max, std::abs(approx - d) / d);
        rel_err_sum += std::abs(approx - d) / d;
      }
    }
  }
  rep->Count(audited, violations);
  if (violations > 0) rep->Note("eps audit: violations");

  auto timed = [&](SpanLog* spans) {
    return RunP2p(port, ids, args.seconds, args.seed, check, spans, rep);
  };
  // Serving memory is the peak above the resident set the timed phase
  // starts from: what stays resident after the multithreaded builds varies
  // by ~15 MiB between identical runs (allocator leftovers), more than the
  // ~9 MiB serving adds.
  SpanLog untraced(false);
  const double rss_base = ResetPeakRss();
  const Timed e2e = timed(&untraced);
  const double rss_mb = PeakRssMb() - rss_base;

  if (!args.trace) {
    rep->Metric("setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
                "s");
    rep->Metric("rss_mb", rss_mb, "MiB");
    rep->Metric("oracle_mb", st->file_bytes / 1048576.0, "MiB");
    rep->Metric("qps", e2e.qps, "1/s");
    rep->Metric("p50_us", e2e.p50_us, "us");
    rep->Metric("p90_us", e2e.p90_us, "us");
    return;
  }

  // Traced run: the same timed phase with spans on gives the overhead.
  const Timed traced = timed(log);
  rep->Metric("trace.overhead_p50_pct",
              100.0 * (traced.p50_us - e2e.p50_us) / e2e.p50_us, "%");
  rep->Metric("timed.p99_us", e2e.p99_us, "us");
  rep->Metric("audit.rel_err_max", rel_err_max, "ratio");
  rep->Metric("audit.rel_err_mean", rel_err_sum / audited, "ratio");

  const tso::SeBuildStats& b = st->build;
  rep->Metric("terrain.synth_s", st->synth_s, "s");
  rep->Metric("oracle.build_s", st->build_s, "s");
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
  rep->Metric("oracle.save_s", st->save_s, "s");
  rep->Metric("serve.load_ms", st->load_ms, "ms");
  rep->Metric("net.start_ms", st->start_ms, "ms");

  // The dynamic layer mounted on the served file: creation, a few inserts
  // (one MMP SSAD each) and one remove; compaction stays off at this size.
  tso::MmpSolver solver(*st->ds.mesh);
  tso::DynamicOracleOptions dopts;
  dopts.base.epsilon = kEpsilon;
  dopts.compaction_ratio = 1e9;
  const int64_t c0 = NowNs();
  tso::StatusOr<tso::OracleView> view = tso::OracleView::Open(path);
  tso::StatusOr<std::unique_ptr<tso::DynamicSeOracle>> dyn =
      view.ok() ? tso::DynamicSeOracle::FromView(*view, st->ds.mesh.get(),
                                                 &solver, dopts)
                : tso::StatusOr<std::unique_ptr<tso::DynamicSeOracle>>(
                      view.status());
  const int64_t c1 = NowNs();
  if (!dyn.ok()) {
    rep->Fail("DynamicSeOracle::FromView: " + dyn.status().ToString());
    return;
  }
  rep->Metric("dyn.create_s", (c1 - c0) / 1e9, "s");
  tso::Rng prng(args.seed + 9);
  const auto extra =
      tso::GenerateUniformPois(*st->ds.mesh, *st->ds.locator, 4, prng);
  Samples insert_ms;
  double writer_s = 0, delta_max = 0, pending_max = 0;
  uint32_t first_id = 0;
  for (size_t i = 0; i < extra.size(); ++i) {
    const int64_t a = NowNs();
    tso::StatusOr<uint32_t> id = (*dyn)->Insert(extra[i]);
    const int64_t z = NowNs();
    log->Add("dyn.insert", a, z, 0, i);
    insert_ms.Add((z - a) / 1e6);
    writer_s += (z - a) / 1e9;
    if (!id.ok()) {
      rep->Fail("Insert: " + id.status().ToString());
      return;
    }
    if (i == 0) first_id = *id;
    const tso::DynamicStats ds = (*dyn)->stats();
    delta_max = std::max(delta_max, static_cast<double>(ds.delta_size));
    pending_max = std::max(pending_max, static_cast<double>(ds.epoch.pending));
  }
  {
    const int64_t a = NowNs();
    const tso::Status removed = (*dyn)->Remove(first_id);
    writer_s += (NowNs() - a) / 1e9;
    if (!removed.ok()) rep->Fail("Remove: " + removed.ToString());
  }
  rep->Count(extra.size() + 1, 0);
  const tso::DynamicStats dstats = (*dyn)->stats();
  rep->Metric("dyn.inserts", static_cast<double>(dstats.inserts), "count");
  rep->Metric("dyn.removes", static_cast<double>(dstats.removes), "count");
  rep->Metric("dyn.compactions", static_cast<double>(dstats.compactions), "count");
  rep->Metric("dyn.publishes", static_cast<double>(dstats.publishes), "count");
  rep->Metric("dyn.delta_rows_max", delta_max, "count");
  rep->Metric("base.epoch_pending_max", pending_max, "count");
  rep->Metric("dyn.insert_p50_ms", insert_ms.Percentile(50), "ms");
  rep->Metric("dyn.writer_s", writer_s, "s");
  rep->Metric("dyn.compact_share", 0.0, "ratio");
  rep->Metric("dyn.read_slowdown_compacting", 0.0, "ratio");

  const tso::DistanceSource source = tso::MakeSource(*view);
  LayerTarget target;
  target.engine = st->engine.get();
  target.server = st->server.get();
  target.port = port;
  target.source = &source;
  target.dyn = dyn->get();
  target.ids = ids;
  target.radius = radius;
  target.offered_rate = kOfferedRate;
  target.seed = args.seed;
  ReplayLayers(target, log, rep);

  const tso::ServeEngine::Stats serve1 = st->engine->stats();
  rep->Metric("serve.failed",
              static_cast<double>(serve1.shed - serve0.shed +
                                  serve1.deadline_exceeded -
                                  serve0.deadline_exceeded),
              "count");
}

}  // namespace perfbench
