// Ablations over SE's design choices (called out in §3.2, §3.4, §3.5):
//   1. greedy vs random point selection (Implementation Detail 1);
//   2. efficient O(h) query vs naive O(h^2) query (§3.4);
//   3. enhanced-edge construction vs per-pair SSAD construction (§3.5);
//   4. the oracle's TSOFLAT footprint and the cost of opening it.

#include "bench/bench_common.h"
#include "geodesic/mmp_solver.h"
#include "oracle/oracle_serde.h"
#include "oracle/se_oracle.h"

namespace tso::bench {
namespace {

void Run() {
  const uint64_t seed = 42;
  const double eps = 0.1;
  PrintHeader("Ablation — SE design choices", "SIGMOD'17 §3.2/§3.4/§3.5",
              seed);

  StatusOr<Dataset> ds = MakePaperDataset(PaperDataset::kSanFranciscoSmall,
                                          Scaled(1000), Scaled(120), seed);
  TSO_CHECK(ds.ok());
  std::cout << ds->mesh->DebugString() << ", n=" << ds->n() << "\n";
  Rng qrng(seed + 2);
  const auto pairs = MakeQueryPairs(ds->n(), 2000, qrng);
  const std::vector<double> truth(pairs.size(), 1.0);  // timing-only runs

  // --- 1 & 3: construction variants ---
  Table build("Construction ablation",
              {"variant", "build_s", "ssad_runs", "node_pairs",
               "enhanced_edges", "height"});
  struct Variant {
    const char* name;
    SelectionStrategy sel;
    ConstructionMethod ctor;
  };
  const Variant variants[] = {
      {"random+efficient", SelectionStrategy::kRandom,
       ConstructionMethod::kEfficient},
      {"greedy+efficient", SelectionStrategy::kGreedy,
       ConstructionMethod::kEfficient},
      {"random+naive", SelectionStrategy::kRandom,
       ConstructionMethod::kNaive},
  };
  std::unique_ptr<SeOracle> keep;  // the first variant, reused below
  for (const Variant& v : variants) {
    MmpSolver solver(*ds->mesh);
    SeOracleOptions options = ParallelSeOptions(*ds->mesh, eps, seed);
    options.selection = v.sel;
    options.construction = v.ctor;
    SeBuildStats stats;
    StatusOr<SeOracle> oracle =
        SeOracle::Build(*ds->mesh, ds->pois, solver, options, &stats);
    TSO_CHECK(oracle.ok());
    build.AddRow(v.name, stats.total_seconds, stats.ssad_runs,
                 stats.node_pairs, stats.enhanced_edges, stats.height);
    if (keep == nullptr) {
      keep = std::make_unique<SeOracle>(std::move(*oracle));
    }
  }
  build.Print();

  // --- 2: query variants ---
  Table query("Query ablation (2000 queries)",
              {"variant", "avg_query_us"});
  {
    WallTimer timer;
    for (const auto& [s, t] : pairs) (void)*keep->Distance(s, t);
    query.AddRow("efficient O(h)", timer.ElapsedMicros() / pairs.size());
  }
  {
    WallTimer timer;
    for (const auto& [s, t] : pairs) (void)*keep->DistanceNaive(s, t);
    query.AddRow("naive O(h^2)", timer.ElapsedMicros() / pairs.size());
  }
  query.Print();

  // --- 4: serialization ---
  // A built oracle is its TSOFLAT bytes, so SizeBytes() is the file size.
  Table serde("Serialization", {"metric", "value"});
  serde.AddRow("TSOFLAT SizeBytes (MB)", MegaBytes(keep->SizeBytes()));
  WallTimer timer;
  StatusOr<OracleView> opened = OracleView::FromBytes(
      SerializeSeOracleFlat(*keep), {.verify_checksums = true});
  TSO_CHECK(opened.ok());
  serde.AddRow("copy + verified open_ms", timer.ElapsedMillis());
  serde.Print();
}

}  // namespace
}  // namespace tso::bench

int main() {
  tso::bench::Run();
  return 0;
}
