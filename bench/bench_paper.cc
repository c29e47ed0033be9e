// The paper's §5 evaluation in one driver: Tables 1-3, Figures 8-14, the
// ablation of SE's design choices (§3.2, §3.4, §3.5) and the dynamic-update
// extension (§6). Each method at each sweep point is one line,
//   BENCH {"bench":"paper","exp":"fig8","method":"SE(Random)","eps":0.05,...}
// (keys in docs/bench-json.md). Ground truth comes from ExactRows, one exact
// SSAD per audited source, and every method row carries AuditEpsilon's
// record against the bound its method promises.
//
//   bench_paper [experiment ...]   (table1 ... fig14 ablation dynamic;
//                                   default: all, in that order)
//
// bench/paper/tiny.jsonl and small.jsonl are this program's output at
// TSO_BENCH_SCALE=tiny and small; docs/reproduction.md reads them against
// the paper's claims, and bench/baselines/ci-paper.json pins their
// deterministic keys.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "baselines/kalgo.h"
#include "baselines/sp_oracle.h"
#include "bench/bench_common.h"
#include "dyn/dynamic_oracle.h"
#include "geodesic/dijkstra_solver.h"
#include "geodesic/steiner_solver.h"
#include "oracle/a2a_oracle.h"
#include "oracle/capacity_dimension.h"
#include "oracle/epsilon_audit.h"
#include "terrain/poi_generator.h"
#include "terrain/terrain_synth.h"

namespace tso::bench {
namespace {

constexpr uint64_t kSeed = 42;

/// Audited sources per query stream. Each costs one exact SSAD and is
/// answered against every point of the stream, so a stream of n points
/// audits 4n pairs.
constexpr uint32_t kSources = 4;

constexpr double kEpsSweep[] = {0.05, 0.1, 0.15, 0.2, 0.25};

/// The points one stream of queries runs over, and their exact distances
/// from kSources evenly spaced sources in one solver's metric.
struct Stream {
  const char* queries;  // "p2p", "v2v" or "a2a"
  const std::vector<SurfacePoint>* points;
  const char* metric;  // the solver's name()
  std::vector<uint32_t> sources;
  std::vector<std::vector<double>> rows;
};

Stream MakeStream(const char* queries, const std::vector<SurfacePoint>& points,
                  GeodesicSolver& solver) {
  Stream stream{queries, &points, solver.name(), {}, {}};
  const size_t n = points.size();
  const size_t k = std::min<size_t>(n, kSources);
  for (size_t i = 0; i < k; ++i) {
    stream.sources.push_back(static_cast<uint32_t>(i * n / k));
  }
  StatusOr<std::vector<std::vector<double>>> rows =
      ExactRows(solver, points, stream.sources);
  TSO_CHECK(rows.ok());
  stream.rows = std::move(*rows);
  return stream;
}

Stream MmpStream(const char* queries, const TerrainMesh& mesh,
                 const std::vector<SurfacePoint>& points) {
  MmpSolver solver(mesh);
  return MakeStream(queries, points, solver);
}

/// One sweep point of one experiment.
struct Sweep {
  const char* exp;
  const char* dataset;
  const TerrainMesh* mesh;
  double eps;
};

using Answer = std::function<StatusOr<double>(uint32_t, uint32_t)>;

/// Times `answer` over every audited pair of `stream`, audits the answers
/// against the stream's exact rows at `bound`, and returns the method's
/// line with the keys every method row shares. The caller adds the
/// method's own keys and emits it.
BenchJson Row(const Sweep& sweep, const char* method, const Stream& stream,
              double build_s, uint64_t bytes, double bound,
              const Answer& answer) {
  const std::vector<uint32_t>& sources = stream.sources;
  const uint32_t n = static_cast<uint32_t>(stream.points->size());
  std::vector<StatusOr<double>> answers;
  answers.reserve(sources.size() * n);
  WallTimer timer;
  for (uint32_t s : sources) {
    for (uint32_t t = 0; t < n; ++t) answers.push_back(answer(s, t));
  }
  const double query_us = timer.ElapsedMicros() / answers.size();
  auto recorded = [&](uint32_t s, uint32_t t) {
    const size_t row = std::ranges::find(sources, s) - sources.begin();
    return answers[row * n + t];
  };
  const EpsilonAudit audit =
      AuditEpsilon(recorded, sources, stream.rows, bound);
  const double nn = n;
  BenchJson line("paper");
  line.Str("exp", sweep.exp)
      .Str("dataset", sweep.dataset)
      .Str("method", method)
      .Str("queries", stream.queries)
      .Int("N", sweep.mesh->num_vertices())
      .Int("n", n)
      .Num("eps", sweep.eps, 2)
      .Num("build_s", build_s, 6)
      .Int("bytes", bytes)
      .Num("dense_ratio", bytes / (8.0 * nn * nn), 4)
      .Num("tri_ratio", bytes / (4.0 * nn * (nn + 1.0)), 4)
      .Num("query_us", query_us, 4)
      .Str("metric", stream.metric)
      .Num("bound", bound, 2)
      .Int("pairs", audit.checked)
      .Int("violations", audit.violations)
      .Num("rel_err_mean", audit.rel_err_mean, 6)
      .Num("rel_err_max", audit.rel_err_max, 6)
      .Num("rel_err_p99", audit.rel_err_p99, 6);
  return line;
}

/// SE over the stream's points, built with the exact solver on every
/// thread. SE-Naive (naive construction) also answers with the O(h²) naive
/// query.
void RunSe(const Sweep& sweep, const Stream& stream, const char* method,
           SelectionStrategy selection = SelectionStrategy::kRandom,
           ConstructionMethod construction = ConstructionMethod::kEfficient) {
  MmpSolver solver(*sweep.mesh);
  SeOracleOptions options = ParallelSeOptions(*sweep.mesh, sweep.eps, kSeed);
  options.selection = selection;
  options.construction = construction;
  SeBuildStats stats;
  StatusOr<SeOracle> oracle = SeOracle::Build(*sweep.mesh, *stream.points,
                                              solver, options, &stats);
  TSO_CHECK(oracle.ok());
  const bool naive = construction == ConstructionMethod::kNaive;
  auto answer = [&](uint32_t s, uint32_t t) {
    return naive ? oracle->DistanceNaive(s, t) : oracle->Distance(s, t);
  };
  Row(sweep, method, stream, stats.total_seconds, oracle->SizeBytes(),
      sweep.eps, answer)
      .Int("ssad_runs", stats.ssad_runs)
      .Int("node_pairs", stats.node_pairs)
      .Int("enhanced_edges", stats.enhanced_edges)
      .Int("height", stats.height)
      .Emit();
}

/// SP-Oracle is held to its WSPD's floored ε (SpOracle::InnerEpsilon).
void RunSpOracle(const Sweep& sweep, const Stream& stream) {
  SpOracleOptions options;
  options.epsilon = sweep.eps;
  options.seed = kSeed;
  SpBuildStats stats;
  StatusOr<SpOracle> oracle = SpOracle::Build(*sweep.mesh, options, &stats);
  TSO_CHECK(oracle.ok());
  const std::vector<SurfacePoint>& p = *stream.points;
  auto answer = [&](uint32_t s, uint32_t t) {
    return oracle->Distance(p[s], p[t]);
  };
  Row(sweep, "SP-Oracle", stream, stats.total_seconds, oracle->SizeBytes(),
      SpOracle::InnerEpsilon(options), answer)
      .Int("steiner_nodes", stats.steiner_nodes)
      .Emit();
}

/// K-Algo answers each query with a search over its Steiner graph; its
/// `build_s` is the graph's setup.
void RunKAlgo(const Sweep& sweep, std::span<const Stream> streams) {
  StatusOr<KAlgo> kalgo = KAlgo::Create(*sweep.mesh, sweep.eps);
  TSO_CHECK(kalgo.ok());
  for (const Stream& stream : streams) {
    const std::vector<SurfacePoint>& p = *stream.points;
    auto answer = [&](uint32_t s, uint32_t t) {
      return kalgo->Distance(p[s], p[t]);
    };
    Row(sweep, "K-Algo", stream, kalgo->setup_seconds(), kalgo->SizeBytes(),
        sweep.eps, answer)
        .Emit();
  }
}

/// SE over the Steiner points of a one-point-per-edge G_ε (Appendices C
/// and D). Its ε holds in that graph's metric, so each stream is audited
/// against exact distances in G_ε rather than against MMP.
void RunA2A(const Sweep& sweep, std::span<const Stream> streams) {
  A2AOracleOptions options;
  options.epsilon = sweep.eps;
  options.seed = kSeed;
  options.steiner_points_per_edge = 1;
  A2ABuildStats stats;
  StatusOr<A2AOracle> oracle = A2AOracle::Build(*sweep.mesh, options, &stats);
  TSO_CHECK(oracle.ok());
  SteinerSolver steiner(oracle->graph());
  for (const Stream& mmp : streams) {
    const Stream stream = MakeStream(mmp.queries, *mmp.points, steiner);
    const std::vector<SurfacePoint>& p = *stream.points;
    auto answer = [&](uint32_t s, uint32_t t) {
      return oracle->Distance(p[s], p[t]);
    };
    Row(sweep, "SE(A2A)", stream, stats.total_seconds, oracle->SizeBytes(),
        sweep.eps, answer)
        .Int("steiner_nodes", stats.steiner_nodes)
        .Emit();
  }
}

Dataset PaperStandIn(PaperDataset which, uint32_t vertices, size_t pois) {
  StatusOr<Dataset> ds = MakePaperDataset(which, vertices, pois, kSeed);
  TSO_CHECK(ds.ok());
  return std::move(*ds);
}

double Degrees(double radians) { return radians * 180.0 / M_PI; }

/// Table 1's measured instance parameters: the height h of an SE build,
/// the capacity dimension β and the minimum inner angle θ. The asymptotic
/// rows are the paper's text (docs/reproduction.md).
void Table1() {
  for (PaperDataset which : {PaperDataset::kBearHead, PaperDataset::kEaglePeak,
                             PaperDataset::kSanFrancisco}) {
    const Dataset ds = PaperStandIn(which, Scaled(4000), Scaled(800));
    DijkstraSolver solver(*ds.mesh);
    Rng rng(kSeed + 1);
    const CapacityDimensionEstimate beta =
        EstimateCapacityDimension(ds.pois, solver, 120, rng);
    SeOracleOptions options;
    options.epsilon = 0.25;
    options.seed = kSeed;
    SeBuildStats stats;
    StatusOr<SeOracle> oracle =
        SeOracle::Build(*ds.mesh, ds.pois, solver, options, &stats);
    TSO_CHECK(oracle.ok());
    const Stream stream = MakeStream("p2p", ds.pois, solver);
    const Sweep sweep{"table1", ds.name.c_str(), ds.mesh.get(), 0.25};
    auto answer = [&](uint32_t s, uint32_t t) {
      return oracle->Distance(s, t);
    };
    Row(sweep, "SE", stream, stats.total_seconds, oracle->SizeBytes(),
        sweep.eps, answer)
        .Int("height", stats.height)
        .Num("beta_max", beta.beta, 3)
        .Num("beta_mean", beta.mean_dimension, 3)
        .Num("theta_min_deg", Degrees(ds.mesh->MinInnerAngle()), 2)
        .Emit();
  }
}

/// Table 2's statistics of the synthetic stand-ins; the published ones are
/// in docs/reproduction.md.
void Table2() {
  for (PaperDataset which :
       {PaperDataset::kBearHead, PaperDataset::kEaglePeak,
        PaperDataset::kSanFrancisco, PaperDataset::kSanFranciscoSmall}) {
    const Dataset ds = PaperStandIn(which, Scaled(6000), Scaled(300));
    BenchJson("paper")
        .Str("exp", "table2")
        .Str("dataset", ds.name.c_str())
        .Int("N", ds.N())
        .Int("n", ds.n())
        .Num("resolution_m", ds.resolution, 1)
        .Num("region_x_km", ds.region_x / 1000.0, 2)
        .Num("region_y_km", ds.region_y / 1000.0, 2)
        .Num("theta_min_deg", Degrees(ds.mesh->MinInnerAngle()), 2)
        .Num("area_km2", ds.mesh->TotalArea() / 1e6, 3)
        .Emit();
  }
}

/// Table 3: statistics of exact P2P query distances in km, over every
/// audited pair but the sources' own.
void Table3() {
  for (PaperDataset which : {PaperDataset::kBearHead, PaperDataset::kEaglePeak,
                             PaperDataset::kSanFrancisco}) {
    const Dataset ds = PaperStandIn(which, Scaled(4000), Scaled(200));
    const Stream stream = MmpStream("p2p", *ds.mesh, ds.pois);
    std::vector<double> km;
    for (size_t i = 0; i < stream.sources.size(); ++i) {
      for (size_t t = 0; t < ds.n(); ++t) {
        if (t != stream.sources[i]) km.push_back(stream.rows[i][t] / 1000.0);
      }
    }
    double sum = 0.0;
    for (double d : km) sum += d;
    const double mean = sum / km.size();
    double var = 0.0;
    for (double d : km) var += (d - mean) * (d - mean);
    BenchJson("paper")
        .Str("exp", "table3")
        .Str("dataset", ds.name.c_str())
        .Int("N", ds.N())
        .Int("n", ds.n())
        .Int("pairs", km.size())
        .Num("dist_max_km", *std::max_element(km.begin(), km.end()), 3)
        .Num("dist_min_km", *std::min_element(km.begin(), km.end()), 3)
        .Num("dist_mean_km", mean, 3)
        .Num("dist_std_km", std::sqrt(var / km.size()), 3)
        .Emit();
  }
}

/// Figure 8: effect of ε on SF-small (60 POIs), every method.
void Fig8() {
  const Dataset ds =
      PaperStandIn(PaperDataset::kSanFranciscoSmall, Scaled(1000), 60);
  const Stream stream = MmpStream("p2p", *ds.mesh, ds.pois);
  for (double eps : kEpsSweep) {
    const Sweep sweep{"fig8", ds.name.c_str(), ds.mesh.get(), eps};
    RunSe(sweep, stream, "SE(Random)");
    RunSe(sweep, stream, "SE(Greedy)", SelectionStrategy::kGreedy);
    RunSe(sweep, stream, "SE-Naive", SelectionStrategy::kRandom,
          ConstructionMethod::kNaive);
    RunSpOracle(sweep, stream);
    RunKAlgo(sweep, {&stream, 1});
  }
}

/// Figure 9: effect of n on SF. POIs beyond the base set are drawn from a
/// Normal distribution fitted to it (§5.2.1). SP-Oracle is POI-independent,
/// so its costs are Figure 12's.
void Fig9() {
  const Dataset ds =
      PaperStandIn(PaperDataset::kSanFrancisco, Scaled(3000), Scaled(100));
  Rng rng(kSeed + 1);
  for (uint32_t n : {Scaled(100), Scaled(200), Scaled(400), Scaled(800)}) {
    const std::vector<SurfacePoint> pois =
        ExtendPoisNormalFit(*ds.mesh, *ds.locator, ds.pois, n, rng);
    const Stream stream = MmpStream("p2p", *ds.mesh, pois);
    const Sweep sweep{"fig9", ds.name.c_str(), ds.mesh.get(), 0.1};
    RunSe(sweep, stream, "SE");
    RunKAlgo(sweep, {&stream, 1});
  }
}

/// Figure 10: effect of N. The same BH-like region is re-meshed at rising
/// resolution with the same POI draws, as the paper simplifies one
/// terrain. SP-Oracle is left out, as in the paper.
void Fig10() {
  SynthSpec spec;
  spec.extent_x = 14000.0;
  spec.extent_y = 10000.0;
  spec.amplitude = 900.0;
  spec.feature_size = 3000.0;
  spec.ridged = true;
  spec.seed = kSeed;
  for (uint32_t vertices :
       {Scaled(1500), Scaled(3000), Scaled(6000), Scaled(12000)}) {
    StatusOr<TerrainMesh> mesh = SynthesizeMesh(spec, vertices);
    TSO_CHECK(mesh.ok());
    PointLocator locator(*mesh);
    Rng rng(kSeed + 3);
    const std::vector<SurfacePoint> pois =
        GenerateUniformPois(*mesh, locator, Scaled(150), rng);
    const Stream stream = MmpStream("p2p", *mesh, pois);
    const Sweep sweep{"fig10", "BH", &*mesh, 0.1};
    RunSe(sweep, stream, "SE");
    RunKAlgo(sweep, {&stream, 1});
  }
}

/// Figure 11: V2V queries (n = N) on SF-like sub-regions that grow with n
/// at a fixed resolution.
void Fig11() {
  SynthSpec spec;
  spec.amplitude = 280.0;
  spec.feature_size = 900.0;
  spec.ridged = false;
  spec.seed = kSeed + 2;
  for (uint32_t n : {Scaled(400), Scaled(800), Scaled(1600)}) {
    const double side = 30.0 * std::sqrt(static_cast<double>(n));
    spec.extent_x = side;
    spec.extent_y = side;
    StatusOr<TerrainMesh> mesh = SynthesizeMesh(spec, n);
    TSO_CHECK(mesh.ok());
    const std::vector<SurfacePoint> vertices = PoisFromAllVertices(*mesh);
    const Stream stream = MmpStream("v2v", *mesh, vertices);
    const Sweep sweep{"fig11", "SF", &*mesh, 0.25};
    RunSe(sweep, stream, "SE");
    RunKAlgo(sweep, {&stream, 1});
  }
}

/// Figure 12: on low-resolution BH, P2P queries over more POIs than
/// vertices (n > N) and A2A queries between arbitrary surface points.
/// SE(A2A) is also SP-Oracle's structure (docs/reproduction.md,
/// substitution 3).
void Fig12() {
  const Dataset ds = PaperStandIn(PaperDataset::kBearHead, Scaled(800), 10);
  Rng rng(kSeed + 9);
  const std::vector<SurfacePoint> many = GenerateUniformPois(
      *ds.mesh, *ds.locator, ds.N() + Scaled(400), rng);
  const std::vector<SurfacePoint> arbitrary =
      GenerateUniformPois(*ds.mesh, *ds.locator, 40, rng);
  const Stream streams[] = {MmpStream("p2p", *ds.mesh, many),
                            MmpStream("a2a", *ds.mesh, arbitrary)};
  for (double eps : {0.1, 0.25}) {
    const Sweep sweep{"fig12", ds.name.c_str(), ds.mesh.get(), eps};
    RunA2A(sweep, streams);
    RunKAlgo(sweep, streams);
  }
}

/// Figures 13 and 14: effect of ε on BH and EP. SP-Oracle is left out on
/// these datasets, as in the paper.
void EffectOfEps(const char* exp, PaperDataset which) {
  const Dataset ds = PaperStandIn(which, Scaled(3000), Scaled(150));
  const Stream stream = MmpStream("p2p", *ds.mesh, ds.pois);
  for (double eps : kEpsSweep) {
    const Sweep sweep{exp, ds.name.c_str(), ds.mesh.get(), eps};
    RunSe(sweep, stream, "SE");
    RunKAlgo(sweep, {&stream, 1});
  }
}

/// SE's design choices at one ε: greedy against random selection, and the
/// naive construction and O(h²) query (SE-Naive, the same oracle bytes as
/// SE(Random)) against the efficient ones.
void Ablation() {
  const Dataset ds =
      PaperStandIn(PaperDataset::kSanFranciscoSmall, Scaled(1000), Scaled(120));
  const Stream stream = MmpStream("p2p", *ds.mesh, ds.pois);
  const Sweep sweep{"ablation", ds.name.c_str(), ds.mesh.get(), 0.1};
  RunSe(sweep, stream, "SE(Random)");
  RunSe(sweep, stream, "SE(Greedy)", SelectionStrategy::kGreedy);
  RunSe(sweep, stream, "SE-Naive", SelectionStrategy::kRandom,
        ConstructionMethod::kNaive);
}

/// The §6 extension: 20 inserts into a dynamic oracle, each one SSAD,
/// against the base build; queries and the audit run with the inserts in
/// the delta, then a compaction rebuilds the base.
void Dynamic() {
  const Dataset ds =
      PaperStandIn(PaperDataset::kSanFrancisco, Scaled(2000), Scaled(200));
  MmpSolver solver(*ds.mesh);
  DynamicOracleOptions options;
  options.base = ParallelSeOptions(*ds.mesh, 0.1, kSeed);
  options.compaction_ratio = 0.5;  // no compaction during the inserts
  WallTimer build_timer;
  StatusOr<std::unique_ptr<DynamicSeOracle>> created =
      DynamicSeOracle::Create(*ds.mesh, ds.pois, solver, options);
  TSO_CHECK(created.ok());
  const double build_s = build_timer.ElapsedSeconds();
  DynamicSeOracle& oracle = **created;

  Rng rng(kSeed + 3);
  const std::vector<SurfacePoint> extra =
      GenerateUniformPois(*ds.mesh, *ds.locator, 20, rng);
  WallTimer insert_timer;
  for (const SurfacePoint& p : extra) TSO_CHECK(oracle.Insert(p).ok());
  const double insert_ms = insert_timer.ElapsedMillis() / extra.size();

  std::vector<SurfacePoint> points;
  for (uint32_t id = 0; id < oracle.num_ids(); ++id) {
    points.push_back(oracle.poi(id));
  }
  const Stream stream = MmpStream("p2p", *ds.mesh, points);
  const Sweep sweep{"dynamic", ds.name.c_str(), ds.mesh.get(), 0.1};
  auto answer = [&](uint32_t s, uint32_t t) { return oracle.Distance(s, t); };
  BenchJson line = Row(sweep, "SE(dynamic)", stream, build_s,
                       oracle.SizeBytes(), sweep.eps, answer);
  WallTimer compact_timer;
  TSO_CHECK_OK(oracle.Compact());
  line.Int("inserts", extra.size())
      .Num("insert_ms", insert_ms, 3)
      .Num("compact_s", compact_timer.ElapsedSeconds(), 6)
      .Emit();
}

struct Experiment {
  const char* id;
  void (*run)();
};

constexpr Experiment kExperiments[] = {
    {"table1", Table1},
    {"table2", Table2},
    {"table3", Table3},
    {"fig8", Fig8},
    {"fig9", Fig9},
    {"fig10", Fig10},
    {"fig11", Fig11},
    {"fig12", Fig12},
    {"fig13", [] { EffectOfEps("fig13", PaperDataset::kBearHead); }},
    {"fig14", [] { EffectOfEps("fig14", PaperDataset::kEaglePeak); }},
    {"ablation", Ablation},
    {"dynamic", Dynamic},
};

int Run(int argc, char** argv) {
  ScaleFactor();  // an unknown TSO_BENCH_SCALE exits before any work
  std::vector<const Experiment*> chosen;
  for (int i = 1; i < argc; ++i) {
    const Experiment* found = nullptr;
    for (const Experiment& e : kExperiments) {
      if (std::strcmp(argv[i], e.id) == 0) found = &e;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "bench_paper: unknown experiment '%s'; one of:",
                   argv[i]);
      for (const Experiment& e : kExperiments) {
        std::fprintf(stderr, " %s", e.id);
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    chosen.push_back(found);
  }
  if (chosen.empty()) {
    for (const Experiment& e : kExperiments) chosen.push_back(&e);
  }
  for (const Experiment* e : chosen) e->run();
  return 0;
}

}  // namespace
}  // namespace tso::bench

int main(int argc, char** argv) { return tso::bench::Run(argc, argv); }
