// Construction-performance baseline: per-phase wall-clock of
// SeOracle::Build, SSAD-kernel heap-op totals, 1-vs-T thread scaling, the
// multi-source SSAD batch dimension of the enhanced-edge phase, and the
// exact MMP solver's build at 1 and 4 threads. Not a
// paper figure — this bench backs the build pipeline (partition tree,
// enhanced edges, WSPD node pairs) the way bench_throughput backs the query
// stack, and CI gates on its output (see tools/bench_compare.py and
// bench/baselines/ci-tiny.json).
//
// Every measurement is emitted as one machine-readable line:
//   BENCH {"bench":"build","solver":...,"threads":...,"batch":...,
//          "phase":...,"seconds":...}
// (plus "kernel", "scaling", and "batch_scaling" summary lines; the schema
// is documented in docs/bench-json.md).

#include <filesystem>
#include <thread>

#include "bench/bench_common.h"
#include "geodesic/solver_factory.h"
#include "geodesic/ssad_kernel.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"

namespace tso::bench {
namespace {

struct BuildMeasurement {
  SeBuildStats stats;
  SsadCounterSnapshot kernel_ops;  // delta over the build
  size_t size_bytes = 0;
};

BenchJson PhaseLine(const char* solver, uint32_t threads, uint32_t batch,
                    const char* phase, double seconds, size_t ssad_runs) {
  BenchJson line("build");
  line.Str("solver", solver)
      .Int("threads", threads)
      .Int("batch", batch)
      .Str("phase", phase)
      .Num("seconds", seconds, 6)
      .Int("ssad_runs", ssad_runs);
  return line;
}

/// Phase lines of one build, plus the SSAD-kernel op line for the solvers
/// that run on the kernel (`kernel`; MMP bypasses it).
void EmitBuild(const char* solver, uint32_t threads, uint32_t batch,
               const BuildMeasurement& m, bool kernel = true) {
  const SeBuildStats& st = m.stats;
  PhaseLine(solver, threads, batch, "tree", st.tree_seconds, 0).Emit();
  PhaseLine(solver, threads, batch, "enhanced", st.enhanced_seconds, 0)
      .Int("enhanced_sweeps", st.enhanced_sweeps)
      .Emit();
  PhaseLine(solver, threads, batch, "pairs", st.pair_gen_seconds, 0)
      .Int("node_pairs", st.node_pairs)
      .Emit();
  PhaseLine(solver, threads, batch, "total", st.total_seconds, st.ssad_runs)
      .Emit();
  if (!kernel) return;
  BenchJson("build")
      .Str("solver", solver)
      .Int("threads", threads)
      .Int("batch", batch)
      .Str("phase", "kernel")
      .Int("settles", m.kernel_ops.settles)
      .Int("pushes", m.kernel_ops.pushes)
      .Int("decrease_keys", m.kernel_ops.decrease_keys)
      .Int("relaxations", m.kernel_ops.relaxations)
      .Int("kernel_runs", m.kernel_ops.runs)
      .Emit();
}

BuildMeasurement MeasureBuild(const Dataset& ds, SolverKind kind,
                              uint32_t threads, uint32_t batch,
                              uint64_t seed) {
  StatusOr<std::unique_ptr<GeodesicSolver>> solver =
      MakeSolver(kind, *ds.mesh);
  TSO_CHECK(solver.ok());
  SeOracleOptions options;
  options.epsilon = 0.25;
  options.seed = seed;
  options.ssad_batch = batch;
  if (threads > 1) {
    const TerrainMesh* mesh = ds.mesh.get();
    options.parallel_solver_factory = [mesh, kind]() {
      StatusOr<std::unique_ptr<GeodesicSolver>> s = MakeSolver(kind, *mesh);
      return s.ok() ? std::move(*s) : nullptr;
    };
    options.num_threads = threads;
  }
  BuildMeasurement m;
  const SsadCounterSnapshot before = SsadCounterSnapshot::Take();
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*ds.mesh, ds.pois, **solver, options, &m.stats);
  TSO_CHECK(oracle.ok());
  m.kernel_ops = SsadCounterSnapshot::Take().Delta(before);
  m.size_bytes = oracle->SizeBytes();
  return m;
}

/// Load-path benchmark: zero-copy mmap open of one flat file, by default
/// (O(header + n) validation) and with the O(file) checksum pass. Emits one
/// BENCH line. `verify_ns_per_byte` is what the checksum pass adds per file
/// byte; `open_cost_bytes` prices the default open in those units (the
/// bytes a checksum pass could cover in the time of one default open). Both
/// are ratios of timings, so machine speed largely cancels, and neither
/// moves with the size of the pair index: `open_cost_bytes` follows the
/// POI-sized sections the default open validates, and a default open that
/// starts doing O(file) work adds about the file size to it. Best-of-K wall
/// clock; a Distance probe per iteration keeps the loads honest.
void MeasureLoad(const Dataset& ds, uint64_t seed) {
  StatusOr<std::unique_ptr<GeodesicSolver>> solver =
      MakeSolver(SolverKind::kDijkstra, *ds.mesh);
  TSO_CHECK(solver.ok());
  SeOracleOptions options;
  options.epsilon = 0.25;
  options.seed = seed;
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*ds.mesh, ds.pois, **solver, options, nullptr);
  TSO_CHECK(oracle.ok());

  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string flat_path = dir + "/bench_load_oracle.tsoflat";
  TSO_CHECK(SaveSeOracleFlat(*oracle, flat_path).ok());

  constexpr int kIters = 25;
  double checksum = 0.0;
  auto best_of = [&](auto&& load_and_probe) {
    double best = 1e100;
    for (int i = 0; i < kIters; ++i) {
      WallTimer timer;
      checksum += load_and_probe();
      best = std::min(best, timer.ElapsedSeconds());
    }
    return best;
  };

  const double flat_seconds = best_of([&]() {
    StatusOr<OracleView> view = OracleView::Open(flat_path);  // default open
    TSO_CHECK(view.ok());
    return *view->Distance(0, 1);
  });
  OracleView::Options verify;
  verify.verify_checksums = true;
  const double flat_verify_seconds = best_of([&]() {
    StatusOr<OracleView> view = OracleView::Open(flat_path, verify);
    TSO_CHECK(view.ok());
    return *view->Distance(0, 1);
  });

  const uintmax_t flat_bytes = std::filesystem::file_size(flat_path);
  std::filesystem::remove(flat_path);
  // The pair index: keys and distances (with the empty slots) plus the
  // pilots.
  const NodePairSetView& pairs = oracle->pair_set();
  const double bytes_per_pair =
      static_cast<double>(pairs.keys().size_bytes() +
                          pairs.distances().size_bytes() +
                          pairs.hash().pilots().size_bytes()) /
      static_cast<double>(std::max<size_t>(1, pairs.size()));

  const double verify_ns_per_byte =
      std::max(0.0, flat_verify_seconds - flat_seconds) * 1e9 /
      static_cast<double>(std::max<uintmax_t>(1, flat_bytes));
  const double open_cost_bytes =
      verify_ns_per_byte > 0 ? flat_seconds * 1e9 / verify_ns_per_byte : 0.0;

  BenchJson("build")
      .Str("phase", "load")
      .Str("format", "flat")
      .Num("load_seconds", flat_seconds, 6)
      .Num("load_seconds_verify", flat_verify_seconds, 6)
      .Int("bytes", flat_bytes)
      .Num("bytes_per_pair", bytes_per_pair, 3)
      .Num("verify_ns_per_byte", verify_ns_per_byte, 4)
      .Int("open_cost_bytes", static_cast<uint64_t>(open_cost_bytes))
      .Emit();
  std::cout << "load: mmap open " << flat_seconds * 1e3 << " ms | "
            << flat_verify_seconds * 1e3 << " ms with checksums | "
            << verify_ns_per_byte << " ns/byte to verify | open costs "
            << open_cost_bytes << " verified bytes (checksum " << checksum
            << ")\n";
}

void Run() {
  const uint64_t seed = 42;
  const uint32_t kDefaultBatch = 4;
  PrintHeader("Oracle construction — per-phase timing, thread scaling, and "
              "SSAD batch scaling",
              "system bench (SeOracle::Build), backs Table 1's building-time "
              "column",
              seed);

  StatusOr<Dataset> ds = MakePaperDataset(PaperDataset::kSanFranciscoSmall,
                                          Scaled(2000), Scaled(400), seed);
  TSO_CHECK(ds.ok());
  std::cout << ds->mesh->DebugString() << ", n=" << ds->n() << "\n";

  // Always sweep to 8 threads (the acceptance gate's comparison point) even
  // when oversubscribed, plus the hardware width when it is larger.
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<uint32_t> thread_counts = {1, 2, 4, 8};
  if (hw > thread_counts.back()) thread_counts.push_back(hw);
  const std::vector<uint32_t> batch_sizes = {1, 2, 4, 8};

  Table table("SeOracle::Build per-phase seconds",
              {"solver", "threads", "batch", "tree_s", "enhanced_s",
               "pairs_s", "total_s", "ssad_runs", "kernel_settles",
               "speedup"});
  for (SolverKind kind : {SolverKind::kDijkstra, SolverKind::kSteiner}) {
    const char* name = SolverKindName(kind);

    // --- Batch dimension: enhanced-edge phase at 1 thread ---
    double enhanced_base = 0.0;
    double serial_total = 0.0;  // threads=1 @ default batch, reused below
    for (uint32_t batch : batch_sizes) {
      const BuildMeasurement m = MeasureBuild(*ds, kind, 1, batch, seed);
      if (batch == 1) enhanced_base = m.stats.enhanced_seconds;
      if (batch == kDefaultBatch) serial_total = m.stats.total_seconds;
      const double batch_speedup =
          m.stats.enhanced_seconds > 0
              ? enhanced_base / m.stats.enhanced_seconds
              : 0.0;
      table.AddRow(name, 1u, batch, m.stats.tree_seconds,
                   m.stats.enhanced_seconds, m.stats.pair_gen_seconds,
                   m.stats.total_seconds, m.stats.ssad_runs,
                   m.kernel_ops.settles, batch_speedup);
      EmitBuild(name, 1, batch, m);
      BenchJson("build")
          .Str("solver", name)
          .Int("threads", 1)
          .Int("batch", batch)
          .Str("phase", "batch_scaling")
          .Num("enhanced_seconds", m.stats.enhanced_seconds, 6)
          .Num("enhanced_speedup_vs_batch1", batch_speedup, 3)
          .Int("enhanced_sweeps", m.stats.enhanced_sweeps)
          .Emit();
      if (batch == kDefaultBatch) {
        BenchJson("build")
            .Str("solver", name)
            .Int("threads", 1)
            .Int("batch", batch)
            .Str("phase", "scaling")
            .Num("total_seconds", m.stats.total_seconds, 6)
            .Num("speedup", 1.0, 3)
            .Int("size_bytes", m.size_bytes)
            .Emit();
      }
    }

    // --- Thread dimension at the default batch (threads=1 covered above) ---
    for (uint32_t threads : thread_counts) {
      if (threads == 1) continue;
      const BuildMeasurement m =
          MeasureBuild(*ds, kind, threads, kDefaultBatch, seed);
      const double speedup =
          m.stats.total_seconds > 0 ? serial_total / m.stats.total_seconds
                                    : 0.0;
      table.AddRow(name, threads, kDefaultBatch, m.stats.tree_seconds,
                   m.stats.enhanced_seconds, m.stats.pair_gen_seconds,
                   m.stats.total_seconds, m.stats.ssad_runs,
                   m.kernel_ops.settles, speedup);
      EmitBuild(name, threads, kDefaultBatch, m);
      BenchJson("build")
          .Str("solver", name)
          .Int("threads", threads)
          .Int("batch", kDefaultBatch)
          .Str("phase", "scaling")
          .Num("total_seconds", m.stats.total_seconds, 6)
          .Num("speedup", speedup, 3)
          .Int("size_bytes", m.size_bytes)
          .Emit();
    }
  }
  // The paper's exact solver. It has no multi-source kernel, so it builds at
  // batch 1 only, and it bypasses the SSAD kernel: its deterministic
  // counters are the sweep counts (ssad_runs, enhanced_sweeps).
  const char* mmp = SolverKindName(SolverKind::kMmpExact);
  double mmp_serial_total = 0.0;
  for (uint32_t threads : {1u, 4u}) {
    const BuildMeasurement m =
        MeasureBuild(*ds, SolverKind::kMmpExact, threads, 1, seed);
    if (threads == 1) mmp_serial_total = m.stats.total_seconds;
    const double speedup = m.stats.total_seconds > 0
                               ? mmp_serial_total / m.stats.total_seconds
                               : 0.0;
    table.AddRow(mmp, threads, 1u, m.stats.tree_seconds,
                 m.stats.enhanced_seconds, m.stats.pair_gen_seconds,
                 m.stats.total_seconds, m.stats.ssad_runs,
                 m.kernel_ops.settles, speedup);
    EmitBuild(mmp, threads, 1, m, /*kernel=*/false);
  }
  table.Print();

  MeasureLoad(*ds, seed);
}

}  // namespace
}  // namespace tso::bench

int main() {
  tso::bench::Run();
  return 0;
}
