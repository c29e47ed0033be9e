// Figure 12: A2A queries and the n > N P2P regime on low-resolution BH,
// sweeping eps. The oracle is the POI-independent Steiner-point SE of
// Appendix C/D; SP-Oracle is the baseline.
//
// Panels: (a) build time, (b) size, (c) P2P query time (n > N POIs),
// (d) A2A query time — plus the error actually achieved.

#include "baselines/kalgo.h"
#include "baselines/sp_oracle.h"
#include "bench/bench_common.h"
#include "geodesic/mmp_solver.h"
#include "oracle/a2a_oracle.h"
#include "terrain/poi_generator.h"

namespace tso::bench {
namespace {

void Run() {
  const uint64_t seed = 42;
  PrintHeader("Figure 12 — A2A queries + P2P with n > N on low-res BH",
              "SIGMOD'17 Figure 12 (a)-(d)", seed);

  StatusOr<Dataset> ds =
      MakePaperDataset(PaperDataset::kBearHead, Scaled(800), 10, seed);
  TSO_CHECK(ds.ok());
  std::cout << ds->mesh->DebugString() << "\n";

  // n > N POIs (paper: 1M POIs on a 150k-vertex terrain).
  Rng prng(seed + 9);
  std::vector<SurfacePoint> many_pois = GenerateUniformPois(
      *ds->mesh, *ds->locator, ds->mesh->num_vertices() + Scaled(400), prng);
  Rng qrng(seed + 10);
  const auto p2p_pairs = MakeQueryPairs(many_pois.size(), 40, qrng);
  const std::vector<double> p2p_truth =
      ExactDistances(*ds->mesh, many_pois, p2p_pairs);

  // A2A probes (arbitrary surface points, §5.1 generation).
  std::vector<SurfacePoint> a2a_points =
      GenerateUniformPois(*ds->mesh, *ds->locator, 40, prng);
  std::vector<std::pair<uint32_t, uint32_t>> a2a_pairs;
  for (uint32_t i = 0; i + 1 < a2a_points.size(); i += 2) {
    a2a_pairs.emplace_back(i, i + 1);
  }
  const std::vector<double> a2a_truth =
      ExactDistances(*ds->mesh, a2a_points, a2a_pairs);

  Table t("Fig 12 series",
          {"eps", "method", "build_s", "size_MB", "p2p_query_ms",
           "a2a_query_ms", "mean_err_a2a"});

  for (double eps : {0.1, 0.25}) {
    {
      A2AOracleOptions options;
      options.epsilon = eps;
      options.seed = seed;
      options.steiner_points_per_edge = 1;
      A2ABuildStats stats;
      StatusOr<A2AOracle> oracle =
          A2AOracle::Build(*ds->mesh, options, &stats);
      TSO_CHECK(oracle.ok());
      const QueryMeasurement p2p = MeasureQueries(
          p2p_pairs, p2p_truth, [&](uint32_t s, uint32_t q) {
            return *oracle->Distance(many_pois[s], many_pois[q]);
          });
      const QueryMeasurement a2a = MeasureQueries(
          a2a_pairs, a2a_truth, [&](uint32_t s, uint32_t q) {
            return *oracle->Distance(a2a_points[s], a2a_points[q]);
          });
      t.AddRow(eps, "SE(A2A)", stats.total_seconds,
               MegaBytes(oracle->SizeBytes()), p2p.avg_query_ms,
               a2a.avg_query_ms, a2a.mean_rel_error);
    }
    {
      StatusOr<KAlgo> kalgo = KAlgo::Create(*ds->mesh, eps);
      TSO_CHECK(kalgo.ok());
      const QueryMeasurement p2p = MeasureQueries(
          p2p_pairs, p2p_truth, [&](uint32_t s, uint32_t q) {
            return *kalgo->Distance(many_pois[s], many_pois[q]);
          });
      const QueryMeasurement a2a = MeasureQueries(
          a2a_pairs, a2a_truth, [&](uint32_t s, uint32_t q) {
            return *kalgo->Distance(a2a_points[s], a2a_points[q]);
          });
      t.AddRow(eps, "K-Algo", kalgo->setup_seconds(),
               MegaBytes(kalgo->SizeBytes()), p2p.avg_query_ms,
               a2a.avg_query_ms, a2a.mean_rel_error);
    }
  }
  t.Print();
  std::cout << "\nNote: SE(A2A) here doubles as SP-Oracle's structure (both "
               "are POI-independent Steiner indexes; docs/reproduction.md, "
               "substitution 3). The "
               "contrast to observe is its N-driven build/size vs the "
               "POI-based SE rows of Figures 8-10, and A2A query times "
               "|N(s)|x|N(t)| probes above the P2P ones.\n";
}

}  // namespace
}  // namespace tso::bench

int main() {
  tso::bench::Run();
  return 0;
}
