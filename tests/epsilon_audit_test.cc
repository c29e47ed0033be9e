// The ε contract |d̃ − d| <= ε·d, checked against exact geodesics on every
// path that answers a distance: the built oracle, its mapped view, a
// 3-shard pack, a degraded pack (on the pairs it answers), a dynamic oracle
// after churn and after Compact(), and tsod over loopback. Each path is
// audited on all n² ordered pairs, for the Dijkstra, Steiner and MMP
// metrics at ε = 0.1 and 0.25, and must show no violation. Agreement
// between the paths is checked elsewhere (probe_path_test); this suite
// compares each one with ground truth.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dyn/dynamic_oracle.h"
#include "geodesic/solver_factory.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle/epsilon_audit.h"
#include "oracle/oracle_serde.h"
#include "oracle/pack_format.h"
#include "oracle/pack_view.h"
#include "serve/engine.h"
#include "terrain/dataset.h"
#include "terrain/poi_generator.h"

namespace tso {
namespace {

constexpr uint32_t kPois = 120;

using AnswerFn = std::function<StatusOr<double>(uint32_t, uint32_t)>;

std::vector<uint32_t> Iota(uint32_t n) {
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

/// Audits `answer` over all ordered pairs of `rows` and expects a clean
/// record: no violation, and every pair answered unless `may_refuse`.
EpsilonAudit ExpectWithinEpsilon(const AnswerFn& answer,
                                 const std::vector<std::vector<double>>& rows,
                                 double epsilon, const std::string& path,
                                 bool may_refuse = false) {
  const std::vector<uint32_t> sources =
      Iota(static_cast<uint32_t>(rows.size()));
  const EpsilonAudit audit = AuditEpsilon(answer, sources, rows, epsilon);
  EXPECT_EQ(audit.violations, 0u) << path;
  EXPECT_LE(audit.rel_err_max, epsilon * (1.0 + 1e-9)) << path;
  EXPECT_LE(audit.rel_err_p99, audit.rel_err_max) << path;
  if (may_refuse) {
    EXPECT_GT(audit.checked, 0u) << path;
  } else {
    EXPECT_EQ(audit.unanswered, 0u) << path;
    EXPECT_EQ(audit.checked, rows.size() * rows.size()) << path;
  }
  return audit;
}

/// A copy of `pack_blob` with one byte of shard 1 flipped, opened degraded:
/// the open quarantines that shard, and probes routed to it refuse.
StatusOr<PackView> DegradedPack(const std::string& pack_blob,
                                std::string* degraded_blob) {
  StatusOr<PackFileInfo> info = ReadPackFileInfo(pack_blob);
  if (!info.ok()) return info.status();
  *degraded_blob = pack_blob;
  for (const FlatSectionEntry& e : info->sections) {
    if (e.id == kPackShardBase + 1) {
      (*degraded_blob)[e.offset + e.size / 2] ^= 0x40;
    }
  }
  PackView::Options options;
  options.verify_checksums = true;
  options.allow_degraded = true;
  return PackView::FromBuffer(*degraded_blob, options);
}

class EpsilonContract
    : public ::testing::TestWithParam<std::tuple<SolverKind, double>> {};

TEST_P(EpsilonContract, NoViolationOnAnyAnsweringPath) {
  const auto [kind, epsilon] = GetParam();
  StatusOr<Dataset> ds =
      MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, kPois, 11);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const TerrainMesh& mesh = *ds->mesh;
  StatusOr<std::unique_ptr<GeodesicSolver>> solver = MakeSolver(kind, mesh);
  ASSERT_TRUE(solver.ok());
  SeOracleOptions options;
  options.epsilon = epsilon;
  options.parallel_solver_factory = [kind, &mesh]() {
    StatusOr<std::unique_ptr<GeodesicSolver>> worker = MakeSolver(kind, mesh);
    TSO_CHECK(worker.ok());
    return std::move(*worker);
  };
  options.num_threads = 2;

  StatusOr<SeOracle> oracle =
      SeOracle::Build(mesh, ds->pois, **solver, options, nullptr);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  StatusOr<std::vector<std::vector<double>>> rows =
      ExactRows(**solver, ds->pois, Iota(kPois));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();

  // The built oracle, and its bytes mapped as a view.
  const EpsilonAudit built = ExpectWithinEpsilon(
      [&](uint32_t s, uint32_t t) { return oracle->Distance(s, t); }, *rows,
      epsilon, "oracle");
  const std::string flat_blob = SerializeSeOracleFlat(*oracle);
  StatusOr<OracleView> view = OracleView::FromBuffer(flat_blob);
  ASSERT_TRUE(view.ok());
  ExpectWithinEpsilon(
      [&](uint32_t s, uint32_t t) { return view->Distance(s, t); }, *rows,
      epsilon, "view");

  // A 3-shard pack, and the same pack with one shard quarantined.
  PackBuildOptions pack_options;
  pack_options.num_shards = 3;
  StatusOr<std::string> pack_blob = SerializeOraclePack(*oracle, pack_options);
  ASSERT_TRUE(pack_blob.ok());
  StatusOr<PackView> pack = PackView::FromBuffer(*pack_blob);
  ASSERT_TRUE(pack.ok());
  ExpectWithinEpsilon(
      [&](uint32_t s, uint32_t t) { return pack->Distance(s, t); }, *rows,
      epsilon, "pack");
  std::string degraded_blob;
  StatusOr<PackView> degraded = DegradedPack(*pack_blob, &degraded_blob);
  ASSERT_TRUE(degraded.ok());
  ASSERT_LT(degraded->num_available(), degraded->num_shards());
  const EpsilonAudit refused = ExpectWithinEpsilon(
      [&](uint32_t s, uint32_t t) { return degraded->Distance(s, t); },
      *rows, epsilon, "degraded pack", /*may_refuse=*/true);
  EXPECT_GT(refused.unanswered, 0u);

  // tsod over loopback, one Batch RPC per source row.
  const std::string flat_path = ::testing::TempDir() + "/epsilon_audit_" +
                                SolverKindName(kind) + ".tsoflat";
  ASSERT_TRUE(SaveSeOracleFlat(*oracle, flat_path).ok());
  {
    ServeEngine engine;
    ASSERT_TRUE(engine.Load(flat_path).ok());
    TsodServer server(&engine, {});
    ASSERT_TRUE(server.Start().ok());
    TsodClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::vector<std::vector<double>> wire(kPois);
    for (uint32_t s = 0; s < kPois; ++s) {
      std::vector<std::pair<uint32_t, uint32_t>> row;
      for (uint32_t t = 0; t < kPois; ++t) row.emplace_back(s, t);
      StatusOr<std::vector<double>> answers = client.Batch(row);
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      wire[s] = std::move(*answers);
    }
    const EpsilonAudit served = ExpectWithinEpsilon(
        [&](uint32_t s, uint32_t t) -> StatusOr<double> { return wire[s][t]; },
        *rows, epsilon, "tsod");
    EXPECT_EQ(served.rel_err_max, built.rel_err_max);
    server.Shutdown();
  }
  std::remove(flat_path.c_str());

  // A dynamic oracle: inserts, removes of base and inserted POIs, then a
  // compaction that rebuilds the base over the live set. Audited over the
  // live stable ids, before and after the compaction.
  DynamicOracleOptions dyn_options;
  dyn_options.base = options;
  dyn_options.compaction_ratio = 100.0;  // compact only when asked
  StatusOr<std::unique_ptr<DynamicSeOracle>> created =
      DynamicSeOracle::Create(mesh, ds->pois, **solver, dyn_options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DynamicSeOracle& dyn = **created;
  Rng rng(5);
  for (const SurfacePoint& p :
       GenerateUniformPois(mesh, *ds->locator, 12, rng)) {
    ASSERT_TRUE(dyn.Insert(p).ok());
  }
  for (uint32_t id : {3u, 40u, 77u, kPois + 1, kPois + 6}) {
    ASSERT_TRUE(dyn.Remove(id).ok());
  }
  std::vector<uint32_t> live;
  std::vector<SurfacePoint> live_points;
  for (uint32_t id = 0; id < dyn.num_ids(); ++id) {
    if (!dyn.IsLive(id)) continue;
    live.push_back(id);
    live_points.push_back(dyn.poi(id));
  }
  StatusOr<std::vector<std::vector<double>>> live_rows = ExactRows(
      **solver, live_points, Iota(static_cast<uint32_t>(live.size())));
  ASSERT_TRUE(live_rows.ok());
  const AnswerFn dyn_answer = [&](uint32_t i, uint32_t j) {
    return dyn.Distance(live[i], live[j]);
  };
  ExpectWithinEpsilon(dyn_answer, *live_rows, epsilon, "dynamic after churn");
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(dyn.stats().delta_size, 0u);
  ExpectWithinEpsilon(dyn_answer, *live_rows, epsilon,
                      "dynamic after compaction");
}

INSTANTIATE_TEST_SUITE_P(
    SolversAndEpsilons, EpsilonContract,
    ::testing::Combine(::testing::Values(SolverKind::kDijkstra,
                                         SolverKind::kSteiner,
                                         SolverKind::kMmpExact),
                       ::testing::Values(0.1, 0.25)),
    [](const ::testing::TestParamInfo<EpsilonContract::ParamType>& info) {
      std::string name = SolverKindName(std::get<0>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + (std::get<1>(info.param) == 0.1 ? "_eps010" : "_eps025");
    });

TEST(AuditEpsilon, CountsViolationsRefusalsAndPercentiles) {
  // Exact distances 1..200 from one source; the answers are exact except
  // for one 5% error, one 20% error (a violation at ε = 0.1) and one
  // refusal.
  std::vector<std::vector<double>> rows(1);
  for (int t = 0; t < 200; ++t) rows[0].push_back(t + 1.0);
  const AnswerFn answer = [&](uint32_t, uint32_t t) -> StatusOr<double> {
    if (t == 10) return Status::Unavailable("refused");
    if (t == 20) return rows[0][t] * 1.05;
    if (t == 30) return rows[0][t] * 0.8;
    return rows[0][t];
  };
  const uint32_t source = 0;
  const EpsilonAudit audit = AuditEpsilon(answer, {&source, 1}, rows, 0.1);
  EXPECT_EQ(audit.checked, 199u);
  EXPECT_EQ(audit.unanswered, 1u);
  EXPECT_EQ(audit.violations, 1u);
  EXPECT_NEAR(audit.rel_err_max, 0.2, 1e-12);
  // Nearest rank: the 99th percentile of 199 errors is the 198th smallest.
  EXPECT_NEAR(audit.rel_err_p99, 0.05, 1e-12);
}

TEST(AuditEpsilon, NanAnswerIsAViolation) {
  const std::vector<std::vector<double>> rows = {{0.0, 2.0}};
  const uint32_t source = 0;
  const EpsilonAudit audit = AuditEpsilon(
      [](uint32_t, uint32_t t) -> StatusOr<double> {
        return t == 0 ? 0.0 : std::nan("");
      },
      {&source, 1}, rows, 0.25);
  EXPECT_EQ(audit.checked, 2u);
  EXPECT_EQ(audit.violations, 1u);
}

TEST(ExactRows, RejectsSourceOutOfRange) {
  StatusOr<Dataset> ds =
      MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 4, 11);
  ASSERT_TRUE(ds.ok());
  StatusOr<std::unique_ptr<GeodesicSolver>> solver =
      MakeSolver(SolverKind::kDijkstra, *ds->mesh);
  ASSERT_TRUE(solver.ok());
  const uint32_t sources[] = {0, 4};
  EXPECT_EQ(ExactRows(**solver, ds->pois, sources).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tso
