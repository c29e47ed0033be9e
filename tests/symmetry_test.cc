// Symmetry: the SE oracle approximates a symmetric metric, and it stores
// each unordered node pair once (a <= b), so Distance(s, t) and
// Distance(t, s) must be the same double, bit for bit, on every serving
// path: the built oracle and its mapped view, packs under both policies, a
// degraded pack (whose answered queries must also carry the healthy pack's
// bits), the dynamic oracle after inserts, removes and a compaction, and
// tsod over loopback TCP.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dyn/dynamic_oracle.h"
#include "geodesic/dijkstra_solver.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"
#include "oracle/pack_format.h"
#include "oracle/pack_view.h"
#include "query/engine.h"
#include "serve/engine.h"
#include "terrain/dataset.h"
#include "terrain/poi_generator.h"

namespace tso {
namespace {

struct SymmetryFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<DijkstraSolver> solver;
  std::unique_ptr<SeOracle> oracle;

  SymmetryFixture()
      : ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 30, 11)) {
    TSO_CHECK(ds.ok());
    solver = std::make_unique<DijkstraSolver>(*ds->mesh);
    SeOracleOptions options;
    options.epsilon = 0.25;
    StatusOr<SeOracle> built =
        SeOracle::Build(*ds->mesh, ds->pois, *solver, options, nullptr);
    TSO_CHECK(built.ok());
    oracle = std::make_unique<SeOracle>(std::move(*built));
  }
};

SymmetryFixture& Fixture() {
  static SymmetryFixture* fx = new SymmetryFixture();
  return *fx;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// One answer as (ok, bits-or-code), so error statuses compare too.
using Answer = std::pair<bool, uint64_t>;
Answer Encode(const StatusOr<double>& d) {
  return d.ok() ? Answer(true, Bits(*d))
                : Answer(false, static_cast<uint64_t>(d.status().code()));
}

/// All n² answers of `distance(s, t)`, row-major.
template <typename DistanceFn>
std::vector<Answer> Sweep(uint32_t n, DistanceFn&& distance) {
  std::vector<Answer> out;
  out.reserve(static_cast<size_t>(n) * n);
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) out.push_back(Encode(distance(s, t)));
  }
  return out;
}

void ExpectSymmetric(const std::vector<Answer>& answers, uint32_t n,
                     const std::string& name) {
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = s + 1; t < n; ++t) {
      EXPECT_EQ(answers[s * n + t], answers[t * n + s])
          << name << ": " << s << "," << t;
    }
  }
}

std::vector<Answer> SourceSweep(const DistanceSource& source, uint32_t n,
                                bool naive = false) {
  QueryScratch scratch;
  return Sweep(n, [&](uint32_t s, uint32_t t) {
    return naive ? source.DistanceNaive(s, t, scratch)
                 : source.Distance(s, t, scratch);
  });
}

TEST(Symmetry, OracleAndViewAnswerEachPairOnce) {
  SymmetryFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  for (const NodePair& p : fx.oracle->pair_set().pairs()) {
    EXPECT_LE(p.a, p.b);
  }
  const std::string blob = SerializeSeOracleFlat(*fx.oracle);
  StatusOr<OracleView> view = OracleView::FromBuffer(blob);
  ASSERT_TRUE(view.ok());
  const std::vector<Answer> reference = SourceSweep(MakeSource(*fx.oracle), n);
  for (const Answer& a : reference) EXPECT_TRUE(a.first);
  ExpectSymmetric(reference, n, "oracle");
  EXPECT_EQ(SourceSweep(MakeSource(*view), n), reference);
  EXPECT_EQ(SourceSweep(MakeSource(*view), n, /*naive=*/true), reference);
}

TEST(Symmetry, PacksUnderBothPoliciesMatchTheFlatBits) {
  SymmetryFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  const std::vector<Answer> reference = SourceSweep(MakeSource(*fx.oracle), n);
  for (PackPolicy policy : {PackPolicy::kPoiRange, PackPolicy::kGeo}) {
    for (uint32_t shards : {2u, 5u}) {
      StatusOr<std::string> blob =
          SerializeOraclePack(*fx.oracle, {shards, policy});
      ASSERT_TRUE(blob.ok());
      StatusOr<PackView> pack = PackView::FromBuffer(*blob);
      ASSERT_TRUE(pack.ok()) << pack.status().ToString();
      EXPECT_EQ(SourceSweep(MakeSource(*pack), n), reference)
          << PackPolicyName(policy) << " x" << shards;
    }
  }
}

TEST(Symmetry, DegradedPackAnswersWithTheHealthyBits) {
  // With one shard dead, every query whose pair has a live endpoint shard
  // still answers, from the copy in that shard: the same record, so the
  // same bits as the healthy pack. The rest are kUnavailable, symmetrically.
  SymmetryFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  const std::vector<Answer> healthy = SourceSweep(MakeSource(*fx.oracle), n);
  for (PackPolicy policy : {PackPolicy::kPoiRange, PackPolicy::kGeo}) {
    StatusOr<std::string> blob = SerializeOraclePack(*fx.oracle, {3, policy});
    ASSERT_TRUE(blob.ok());
    StatusOr<PackFileInfo> info = ReadPackFileInfo(*blob);
    ASSERT_TRUE(info.ok());
    for (uint32_t dead = 0; dead < 3; ++dead) {
      std::string bytes = *blob;
      for (const FlatSectionEntry& e : info->sections) {
        if (e.id == kPackShardBase + dead) bytes[e.offset + e.size / 2] ^= 1;
      }
      StatusOr<PackView> pack = PackView::FromBuffer(
          bytes, {.verify_checksums = true, .allow_degraded = true});
      ASSERT_TRUE(pack.ok()) << pack.status().ToString();
      ASSERT_FALSE(pack->shard_available(dead));
      const std::vector<Answer> got = SourceSweep(MakeSource(*pack), n);
      ExpectSymmetric(got, n, "degraded");
      EXPECT_EQ(SourceSweep(MakeSource(*pack), n, /*naive=*/true), got);
      size_t answered = 0;
      for (size_t i = 0; i < got.size(); ++i) {
        if (got[i].first) {
          ++answered;
          EXPECT_EQ(got[i], healthy[i]) << PackPolicyName(policy) << " " << i;
        } else {
          EXPECT_EQ(got[i].second,
                    static_cast<uint64_t>(StatusCode::kUnavailable));
        }
      }
      // Only pairs with both endpoints in the dead shard are lost.
      EXPECT_GT(answered, got.size() / 2) << PackPolicyName(policy);
    }
  }
}

TEST(Symmetry, DynamicOracleAfterChurnAndCompaction) {
  SymmetryFixture& fx = Fixture();
  DynamicOracleOptions options;
  options.base.epsilon = 0.25;
  options.compaction_ratio = 100.0;  // compact only when asked
  StatusOr<std::unique_ptr<DynamicSeOracle>> created =
      DynamicSeOracle::Create(*fx.ds->mesh, fx.ds->pois, *fx.solver, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DynamicSeOracle& dyn = **created;
  Rng rng(17);
  const std::vector<SurfacePoint> extra =
      GenerateUniformPois(*fx.ds->mesh, *fx.ds->locator, 10, rng);
  auto check = [&](const char* stage) {
    const uint32_t ids = static_cast<uint32_t>(dyn.num_ids());
    const std::vector<Answer> got = Sweep(
        ids, [&](uint32_t s, uint32_t t) { return dyn.Distance(s, t); });
    ExpectSymmetric(got, ids, stage);
  };
  for (size_t i = 0; i < 6; ++i) ASSERT_TRUE(dyn.Insert(extra[i]).ok());
  ASSERT_TRUE(dyn.Remove(2).ok());
  ASSERT_TRUE(dyn.Remove(static_cast<uint32_t>(fx.ds->n()) + 1).ok());
  check("after inserts and removes");
  ASSERT_TRUE(dyn.Compact().ok());
  check("after compaction");
  for (size_t i = 6; i < extra.size(); ++i) {
    ASSERT_TRUE(dyn.Insert(extra[i]).ok());
  }
  check("after inserts on the compacted base");
}

TEST(Symmetry, TsodOverLoopback) {
  SymmetryFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  const std::string flat_path = ::testing::TempDir() + "/symmetry_flat.tso";
  const std::string pack_path = ::testing::TempDir() + "/symmetry_pack.tsop";
  ASSERT_TRUE(SaveSeOracleFlat(*fx.oracle, flat_path).ok());
  ASSERT_TRUE(
      SaveOraclePack(*fx.oracle, {3, PackPolicy::kGeo}, pack_path).ok());
  const std::vector<Answer> reference = SourceSweep(MakeSource(*fx.oracle), n);
  for (const std::string& path : {flat_path, pack_path}) {
    ServeEngine engine;
    ASSERT_TRUE(engine.Load(path).ok());
    TsodServer server(&engine, {});
    ASSERT_TRUE(server.Start().ok());
    TsodClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    const std::vector<Answer> got = Sweep(
        n, [&](uint32_t s, uint32_t t) { return client.Distance(s, t); });
    EXPECT_EQ(got, reference) << path;
    server.Shutdown();
  }
}

}  // namespace
}  // namespace tso
