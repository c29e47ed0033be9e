// The batched/SIMD probe pipeline must be invisible in answers: every fast
// path (MixBatch kernels, PerfectHashView::LookupBatch, the candidate-list
// OracleDistance, and the query engines on top) must return bit-identical
// results to the scalar reference at every dispatch level, on monolithic
// views and degraded packs alike, and the deterministic probe counters must
// not depend on the dispatched level. Randomized where it helps (hash
// tables), exhaustive where it's cheap (all-pairs distances).

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/histogram.h"
#include "base/perfect_hash.h"
#include "base/probe_stats.h"
#include "base/rng.h"
#include "base/simd.h"
#include "geodesic/dijkstra_solver.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"
#include "oracle/pack_format.h"
#include "oracle/pack_view.h"
#include "query/batch.h"
#include "query/knn.h"
#include "query/range_query.h"
#include "terrain/dataset.h"

namespace tso {
namespace {

/// Dispatch levels actually testable on this machine (under TSO_NO_SIMD=1
/// the list degenerates to {kScalar}, which keeps the SIMD-off CI job
/// meaningful: it asserts the scalar pipeline agrees with itself and the
/// counters still match).
std::vector<SimdLevel> TestableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel max =
      SimdLevelFromEnv(std::getenv("TSO_NO_SIMD"), DetectCpuSimdLevel());
  if (max >= SimdLevel::kSse2) levels.push_back(SimdLevel::kSse2);
  if (max >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

/// Restores the default dispatch level on scope exit so a failing test
/// can't leak a forced level into later tests.
struct LevelGuard {
  ~LevelGuard() { ForceSimdLevelForTest(DetectCpuSimdLevel()); }
};

struct EquivFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<DijkstraSolver> solver;
  std::unique_ptr<SeOracle> oracle;
  std::string flat_blob;
  std::unique_ptr<OracleView> view;
  std::string pack_blob;
  std::unique_ptr<PackView> pack;
  std::string degraded_blob;
  std::unique_ptr<PackView> degraded;

  EquivFixture()
      : ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 24, 13)) {
    TSO_CHECK(ds.ok());
    solver = std::make_unique<DijkstraSolver>(*ds->mesh);
    SeOracleOptions options;
    options.epsilon = 0.25;
    StatusOr<SeOracle> built =
        SeOracle::Build(*ds->mesh, ds->pois, *solver, options, nullptr);
    TSO_CHECK(built.ok());
    oracle = std::make_unique<SeOracle>(std::move(*built));

    flat_blob = SerializeSeOracleFlat(*oracle);
    StatusOr<OracleView> v = OracleView::FromBuffer(flat_blob);
    TSO_CHECK(v.ok());
    view = std::make_unique<OracleView>(std::move(*v));

    PackBuildOptions pack_options;
    pack_options.num_shards = 3;
    StatusOr<std::string> pb = SerializeOraclePack(*oracle, pack_options);
    TSO_CHECK(pb.ok());
    pack_blob = std::move(*pb);
    StatusOr<PackView> p = PackView::FromBuffer(pack_blob);
    TSO_CHECK(p.ok());
    pack = std::make_unique<PackView>(std::move(*p));

    // Deterministic degraded pack: corrupt one byte inside shard 1's blob
    // so the degraded open quarantines exactly that shard.
    StatusOr<PackFileInfo> info = ReadPackFileInfo(pack_blob);
    TSO_CHECK(info.ok());
    degraded_blob = pack_blob;
    bool corrupted = false;
    for (const FlatSectionEntry& e : info->sections) {
      if (e.id == kPackShardBase + 1) {
        degraded_blob[e.offset + e.size / 2] ^= 0x40;
        corrupted = true;
      }
    }
    TSO_CHECK(corrupted);
    PackView::Options degraded_options;
    degraded_options.verify_checksums = true;
    degraded_options.allow_degraded = true;
    StatusOr<PackView> d = PackView::FromBuffer(degraded_blob,
                                                degraded_options);
    TSO_CHECK(d.ok());
    TSO_CHECK(d->num_available() < d->num_shards());
    degraded = std::make_unique<PackView>(std::move(*d));
  }
};

EquivFixture& Fixture() {
  static EquivFixture* fx = new EquivFixture();
  return *fx;
}

TEST(SimdEquivalence, MixBatchMatchesScalarAtEveryLevel) {
  LevelGuard guard;
  Rng rng(101);
  constexpr size_t kN = 257;  // deliberately not a lane multiple
  std::vector<uint64_t> keys(kN), muls(kN), got(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = rng.NextU64();
    muls[i] = rng.NextU64() | 1;
  }
  for (SimdLevel level : TestableLevels()) {
    ForceSimdLevelForTest(level);
    ASSERT_EQ(ActiveSimdLevel(), level);
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{7},
                     size_t{8}, kN}) {
      PerfectHashView::MixBatch(keys.data(), muls.data(), n, got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], PerfectHashView::Mix(keys[i], muls[i]))
            << SimdLevelName(level) << " lane " << i;
      }
    }
  }
}

TEST(SimdEquivalence, LookupBatchMatchesScalarAtEveryLevel) {
  LevelGuard guard;
  Rng rng(202);
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t i = 0; i < 5000; ++i) {
    entries.emplace_back(rng.NextU64(), i);
  }
  StatusOr<PerfectHash> hash = PerfectHash::Build(entries);
  ASSERT_TRUE(hash.ok());
  const PerfectHashView hview = hash->view();

  // Probe a mix of present and absent keys, batch vs scalar, per level.
  std::vector<uint64_t> probe_keys;
  for (size_t i = 0; i < entries.size(); i += 3) {
    probe_keys.push_back(entries[i].first);
    probe_keys.push_back(rng.NextU64());  // almost surely absent
  }
  for (SimdLevel level : TestableLevels()) {
    ForceSimdLevelForTest(level);
    for (size_t i = 0; i < probe_keys.size(); i += kProbeBatchWidth) {
      const size_t n = std::min(kProbeBatchWidth, probe_keys.size() - i);
      uint64_t values[kProbeBatchWidth];
      uint8_t found[kProbeBatchWidth];
      hview.LookupBatch(probe_keys.data() + i, n, values, found);
      for (size_t j = 0; j < n; ++j) {
        uint64_t scalar_value;
        const bool scalar_found =
            hview.Lookup(probe_keys[i + j], &scalar_value);
        ASSERT_EQ(found[j] != 0, scalar_found)
            << SimdLevelName(level) << " key " << probe_keys[i + j];
        if (scalar_found) {
          ASSERT_EQ(values[j], scalar_value);
        }
      }
    }
  }
  // An empty table misses every lane (and must not fault).
  const PerfectHashView empty;
  uint64_t values[kProbeBatchWidth];
  uint8_t found[kProbeBatchWidth];
  empty.LookupBatch(probe_keys.data(), kProbeBatchWidth, values, found);
  for (size_t j = 0; j < kProbeBatchWidth; ++j) EXPECT_EQ(found[j], 0);
}

/// All-pairs Distance at `level`, recorded as (ok, bits-or-code) so error
/// paths (degraded kUnavailable) participate in the equivalence too.
std::vector<std::pair<bool, uint64_t>> DistanceSweep(
    const DistanceSource& source, uint32_t n) {
  std::vector<std::pair<bool, uint64_t>> out;
  QueryScratch scratch;
  out.reserve(static_cast<size_t>(n) * n);
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      StatusOr<double> d = source.Distance(s, t, scratch);
      if (d.ok()) {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(double));
        std::memcpy(&bits, &*d, sizeof(bits));
        out.emplace_back(true, bits);
      } else {
        out.emplace_back(false, static_cast<uint64_t>(d.status().code()));
      }
    }
  }
  return out;
}

TEST(SimdEquivalence, DistanceBitIdenticalAcrossLevelsAndRepresentations) {
  LevelGuard guard;
  EquivFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  const struct {
    const char* name;
    DistanceSource source;
  } sources[] = {
      {"oracle", MakeSource(*fx.oracle)},
      {"view", MakeSource(*fx.view)},
      {"pack", MakeSource(*fx.pack)},
      {"degraded", MakeSource(*fx.degraded)},
  };
  for (const auto& s : sources) {
    ForceSimdLevelForTest(SimdLevel::kScalar);
    const auto reference = DistanceSweep(s.source, n);
    for (SimdLevel level : TestableLevels()) {
      ForceSimdLevelForTest(level);
      EXPECT_EQ(DistanceSweep(s.source, n), reference)
          << s.name << " at " << SimdLevelName(level);
    }
  }
}

TEST(SimdEquivalence, QueryEnginesBitIdenticalAcrossLevels) {
  LevelGuard guard;
  EquivFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  std::vector<std::pair<uint32_t, uint32_t>> queries;
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) queries.emplace_back(s, t);
  }
  for (const DistanceSource& source :
       {MakeSource(*fx.view), MakeSource(*fx.pack)}) {
    // Scalar reference...
    ForceSimdLevelForTest(SimdLevel::kScalar);
    const auto ref_batch = DistanceBatch(source, queries, 1);
    const auto ref_knn = KnnQuery(source, 3, 7);
    const auto ref_pruned = KnnQueryPruned(source, 3, 7);
    const auto ref_range = RangeQuery(source, 5, 900.0);
    ASSERT_TRUE(ref_batch.ok() && ref_knn.ok() && ref_pruned.ok() &&
                ref_range.ok());
    // ...must survive every level, bit for bit.
    for (SimdLevel level : TestableLevels()) {
      ForceSimdLevelForTest(level);
      const auto batch = DistanceBatch(source, queries, 1);
      ASSERT_TRUE(batch.ok());
      EXPECT_EQ(*batch, *ref_batch) << SimdLevelName(level);
      const auto knn = KnnQuery(source, 3, 7);
      const auto pruned = KnnQueryPruned(source, 3, 7);
      ASSERT_TRUE(knn.ok() && pruned.ok());
      ASSERT_EQ(knn->size(), ref_knn->size());
      for (size_t i = 0; i < knn->size(); ++i) {
        EXPECT_EQ((*knn)[i].poi, (*ref_knn)[i].poi);
        EXPECT_EQ((*knn)[i].distance, (*ref_knn)[i].distance);
      }
      ASSERT_EQ(pruned->size(), ref_pruned->size());
      for (size_t i = 0; i < pruned->size(); ++i) {
        EXPECT_EQ((*pruned)[i].poi, (*ref_pruned)[i].poi);
        EXPECT_EQ((*pruned)[i].distance, (*ref_pruned)[i].distance);
      }
      const auto range = RangeQuery(source, 5, 900.0);
      ASSERT_TRUE(range.ok());
      EXPECT_EQ(*range, *ref_range) << SimdLevelName(level);
    }
  }
}

TEST(SimdEquivalence, ProbeCountersLevelInvariant) {
  LevelGuard guard;
  EquivFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  auto run = [&](SimdLevel level) {
    ForceSimdLevelForTest(level);
    ProbeCounters counters;
    ProbeCounterScope scope(&counters);
    DistanceSweep(MakeSource(*fx.view), n);
    return counters;
  };
  const ProbeCounters reference = run(SimdLevel::kScalar);
  EXPECT_GT(reference.probes, 0u);
  EXPECT_GT(reference.hits, 0u);
  EXPECT_GT(reference.batches, 0u);
  EXPECT_GT(reference.lanes, 0u);
  EXPECT_GT(reference.prefetches, 0u);
  for (SimdLevel level : TestableLevels()) {
    const ProbeCounters got = run(level);
    EXPECT_EQ(got.probes, reference.probes) << SimdLevelName(level);
    EXPECT_EQ(got.hits, reference.hits) << SimdLevelName(level);
    EXPECT_EQ(got.batches, reference.batches) << SimdLevelName(level);
    EXPECT_EQ(got.lanes, reference.lanes) << SimdLevelName(level);
    EXPECT_EQ(got.prefetches, reference.prefetches) << SimdLevelName(level);
  }
}

TEST(SimdEquivalence, AncestorTableMatchesWalk) {
  EquivFixture& fx = Fixture();
  // The mapped view carries the minor-1 precomputed table; a table-less
  // view over the same tree spans walks. Both must produce the same A_s
  // arrays.
  const CompressedTreeView& table_tree = fx.view->tree();
  const CompressedTreeView walk_tree(table_tree.nodes(),
                                     table_tree.leaf_of_poi_map(),
                                     table_tree.root(), table_tree.height());
  ASSERT_FALSE(walk_tree.has_ancestor_table());
  ASSERT_TRUE(table_tree.has_ancestor_table());
  std::vector<uint32_t> scratch;
  for (uint32_t p = 0; p < fx.oracle->num_pois(); ++p) {
    const auto row = table_tree.AncestorsOfPoi(p, &scratch);
    std::vector<uint32_t> walked;
    walk_tree.AncestorArray(walk_tree.leaf_of_poi(p), &walked);
    ASSERT_EQ(row.size(), walked.size());
    for (size_t i = 0; i < walked.size(); ++i) {
      EXPECT_EQ(row[i], walked[i]) << "poi " << p << " layer " << i;
    }
  }
}

TEST(SimdEquivalence, EnvOverrideParsing) {
  // TSO_NO_SIMD: unset / empty / "0" leave detection alone; anything else
  // forces scalar. Pure function, no process-environment mutation needed.
  const SimdLevel detected = SimdLevel::kAvx2;
  EXPECT_EQ(SimdLevelFromEnv(nullptr, detected), detected);
  EXPECT_EQ(SimdLevelFromEnv("", detected), detected);
  EXPECT_EQ(SimdLevelFromEnv("0", detected), detected);
  EXPECT_EQ(SimdLevelFromEnv("1", detected), SimdLevel::kScalar);
  EXPECT_EQ(SimdLevelFromEnv("true", detected), SimdLevel::kScalar);
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kSse2), "sse2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdEquivalence, ForceLevelClampsToDetected) {
  LevelGuard guard;
  const SimdLevel max =
      SimdLevelFromEnv(std::getenv("TSO_NO_SIMD"), DetectCpuSimdLevel());
  ForceSimdLevelForTest(SimdLevel::kAvx2);  // may exceed this machine
  EXPECT_LE(ActiveSimdLevel(), max);
  ForceSimdLevelForTest(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
}

TEST(LatencyHistogram, BucketsArePercentileAccurate) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Percentile(99.0), 0u);
  // Identity range: small values are exact.
  for (uint64_t v = 0; v < 64; ++v) hist.Record(v);
  EXPECT_EQ(hist.count(), 64u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 63u);
  EXPECT_EQ(hist.Percentile(50.0), 31u);
  EXPECT_EQ(hist.Percentile(100.0), 63u);
  // Log range: percentiles within the documented ~3.1% relative error.
  LatencyHistogram big;
  for (uint64_t v = 1; v <= 100000; ++v) big.Record(v);
  const uint64_t p50 = big.Percentile(50.0);
  const uint64_t p99 = big.Percentile(99.0);
  EXPECT_NEAR(static_cast<double>(p50), 50000.0, 50000.0 * 0.032);
  EXPECT_NEAR(static_cast<double>(p99), 99000.0, 99000.0 * 0.032);
  EXPECT_GE(p50, 50000u);  // upper-bound representative never understates
  EXPECT_GE(p99, 99000u);
  // Merge is additive.
  LatencyHistogram merged;
  merged.Merge(hist);
  merged.Merge(big);
  EXPECT_EQ(merged.count(), hist.count() + big.count());
  EXPECT_EQ(merged.max(), big.max());
  EXPECT_EQ(merged.min(), hist.min());
}

}  // namespace
}  // namespace tso
