// The oracle pack path: a PackView over a multi-shard pack must answer
// bit-identically to the monolithic oracle it was built from — for every
// shard count and policy, across the full query surface (Distance / kNN /
// range / batch) — and must fail with a clean Status, never crash, on
// truncated or corrupted input. Sharding partitions only the node-pair set;
// every probe returns the same stored double, so exact equality (==, not
// near) is the correct assertion.

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geodesic/dijkstra_solver.h"
#include "oracle/oracle_serde.h"
#include "oracle/pack_format.h"
#include "oracle/pack_view.h"
#include "query/batch.h"
#include "terrain/dataset.h"
#include "flat_reseal.h"

namespace tso {
namespace {

struct PackFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<DijkstraSolver> solver;
  std::unique_ptr<SeOracle> oracle;

  PackFixture()
      : ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 24, 7)) {
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

PackFixture& Fixture() {
  static PackFixture* fx = new PackFixture();
  return *fx;
}

std::string Pack(uint32_t shards, PackPolicy policy) {
  PackBuildOptions options;
  options.num_shards = shards;
  options.policy = policy;
  StatusOr<std::string> blob = SerializeOraclePack(*Fixture().oracle, options);
  TSO_CHECK(blob.ok());
  return std::move(*blob);
}

TEST(PackFormat, HeaderAndSectionTableWellFormed) {
  const std::string blob = Pack(3, PackPolicy::kPoiRange);
  StatusOr<PackFileInfo> info = ReadPackFileInfo(blob);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->header.version, kPackFormatVersion);
  EXPECT_EQ(info->header.file_size, blob.size());
  EXPECT_EQ(info->meta.num_shards, 3u);
  EXPECT_EQ(info->meta.policy, static_cast<uint32_t>(PackPolicy::kPoiRange));
  ASSERT_EQ(info->sections.size(), kPackFixedSectionCount + 3u);
  uint64_t prev_end = 0;
  for (const FlatSectionEntry& e : info->sections) {
    EXPECT_EQ(e.offset % kFlatSectionAlign, 0u) << PackSectionName(e.id);
    EXPECT_GE(e.offset, prev_end);
    prev_end = e.offset + e.size;
  }
  EXPECT_EQ(prev_end, blob.size());
}

TEST(PackFormat, Deterministic) {
  EXPECT_EQ(Pack(4, PackPolicy::kGeo), Pack(4, PackPolicy::kGeo));
  EXPECT_NE(Pack(4, PackPolicy::kGeo), Pack(3, PackPolicy::kGeo));
}

TEST(PackFormat, EachShardIsAStandaloneFlatOracle) {
  const std::string blob = Pack(3, PackPolicy::kPoiRange);
  StatusOr<PackFileInfo> info = ReadPackFileInfo(blob);
  ASSERT_TRUE(info.ok());
  size_t pairs_total = 0;
  for (uint32_t s = 0; s < info->meta.num_shards; ++s) {
    const FlatSectionEntry& e = info->sections[kPackFixedSectionCount + s];
    const std::string_view shard_bytes =
        std::string_view(blob).substr(e.offset, e.size);
    OracleView::Options verify;
    verify.verify_checksums = true;
    StatusOr<OracleView> shard = OracleView::FromBuffer(shard_bytes, verify);
    ASSERT_TRUE(shard.ok()) << "shard " << s << ": "
                            << shard.status().ToString();
    EXPECT_EQ(shard->num_pois(), Fixture().oracle->num_pois());
    pairs_total += shard->pair_set().size();
  }
  // The pair partition is exhaustive and disjoint.
  EXPECT_EQ(pairs_total, Fixture().oracle->pair_set().size());
}

// The tentpole guarantee: for every shard count and both policies, every
// point-to-point distance through the pack equals the monolithic answer
// bitwise.
TEST(PackFormat, DistancesBitIdenticalToMonolithicAllShardCountsAndPolicies) {
  const SeOracle& oracle = *Fixture().oracle;
  const uint32_t n = static_cast<uint32_t>(oracle.num_pois());
  for (const PackPolicy policy : {PackPolicy::kPoiRange, PackPolicy::kGeo}) {
    for (const uint32_t shards : {1u, 2u, 5u, n}) {
      const std::string blob = Pack(shards, policy);
      StatusOr<PackView> pack = PackView::FromBuffer(blob);
      ASSERT_TRUE(pack.ok()) << pack.status().ToString();
      EXPECT_EQ(pack->num_shards(), shards);
      for (uint32_t s = 0; s < n; ++s) {
        for (uint32_t t = 0; t < n; ++t) {
          ASSERT_EQ(*pack->Distance(s, t), *oracle.Distance(s, t))
              << PackPolicyName(policy) << " shards=" << shards << " (" << s
              << "," << t << ")";
        }
      }
    }
  }
}

// Cross-shard kNN / range / batch through the unified query engines: the
// sharded PairSource feeds the same engines, so derived results (including
// tie-breaks) must be byte-identical to the monolithic oracle's.
TEST(PackFormat, KnnRangeBatchBitIdenticalToMonolithic) {
  const SeOracle& oracle = *Fixture().oracle;
  const std::string blob = Pack(4, PackPolicy::kGeo);
  StatusOr<PackView> pack = PackView::FromBuffer(blob);
  ASSERT_TRUE(pack.ok()) << pack.status().ToString();
  const uint32_t n = static_cast<uint32_t>(oracle.num_pois());

  for (uint32_t q = 0; q < n; ++q) {
    StatusOr<std::vector<KnnResult>> mono = KnnQuery(MakeSource(oracle), q, 5);
    StatusOr<std::vector<KnnResult>> sharded = KnnQuery(MakeSource(*pack), q, 5);
    ASSERT_TRUE(mono.ok());
    ASSERT_TRUE(sharded.ok());
    ASSERT_EQ(mono->size(), sharded->size());
    for (size_t i = 0; i < mono->size(); ++i) {
      EXPECT_EQ((*mono)[i].poi, (*sharded)[i].poi);
      EXPECT_EQ((*mono)[i].distance, (*sharded)[i].distance);
    }

    StatusOr<std::vector<KnnResult>> pruned_mono = KnnQueryPruned(MakeSource(oracle), q, 5);
    StatusOr<std::vector<KnnResult>> pruned_sharded =
        KnnQueryPruned(MakeSource(*pack), q, 5);
    ASSERT_TRUE(pruned_mono.ok());
    ASSERT_TRUE(pruned_sharded.ok());
    ASSERT_EQ(pruned_mono->size(), pruned_sharded->size());
    for (size_t i = 0; i < pruned_mono->size(); ++i) {
      EXPECT_EQ((*pruned_mono)[i].poi, (*pruned_sharded)[i].poi);
      EXPECT_EQ((*pruned_mono)[i].distance, (*pruned_sharded)[i].distance);
    }

    StatusOr<double> probe = oracle.Distance(q, (q + 1) % n);
    ASSERT_TRUE(probe.ok());
    const double radius = *probe * 1.5;
    StatusOr<std::vector<uint32_t>> range_mono = RangeQuery(MakeSource(oracle), q, radius);
    StatusOr<std::vector<uint32_t>> range_sharded =
        RangeQuery(MakeSource(*pack), q, radius);
    ASSERT_TRUE(range_mono.ok());
    ASSERT_TRUE(range_sharded.ok());
    EXPECT_EQ(*range_mono, *range_sharded);
  }

  std::vector<std::pair<uint32_t, uint32_t>> queries;
  for (uint32_t i = 0; i < n; ++i) {
    queries.emplace_back(i, (i * 7 + 3) % n);
  }
  StatusOr<std::vector<double>> batch_mono = DistanceBatch(MakeSource(oracle), queries, 4);
  StatusOr<std::vector<double>> batch_sharded =
      DistanceBatch(MakeSource(*pack), queries, 4);
  ASSERT_TRUE(batch_mono.ok());
  ASSERT_TRUE(batch_sharded.ok());
  EXPECT_EQ(*batch_mono, *batch_sharded);
}

// A shard with no pairs is legal (no pair's first node maps to it): probes
// never route there, so answers are unaffected.
TEST(PackFormat, SingleShardAndMaxShardsEdges) {
  const SeOracle& oracle = *Fixture().oracle;
  // One shard: the pack degenerates to a framed monolithic oracle.
  {
    StatusOr<PackView> pack =
        PackView::FromBuffer(Pack(1, PackPolicy::kPoiRange));
    ASSERT_TRUE(pack.ok());
    EXPECT_EQ(pack->pair_shards()[0].size(), oracle.pair_set().size());
  }
  // Shard count above the POI count is rejected (would guarantee empty
  // shards of POIs, a sign of misconfiguration).
  {
    PackBuildOptions options;
    options.num_shards = static_cast<uint32_t>(oracle.num_pois()) + 1;
    EXPECT_FALSE(SerializeOraclePack(oracle, options).ok());
  }
  {
    PackBuildOptions options;
    options.num_shards = 0;
    EXPECT_FALSE(SerializeOraclePack(oracle, options).ok());
  }
}

TEST(PackFormat, OpenRoundTripsThroughAFile) {
  const std::string path = ::testing::TempDir() + "/pack_roundtrip.tsop";
  PackBuildOptions options;
  options.num_shards = 3;
  ASSERT_TRUE(SaveOraclePack(*Fixture().oracle, options, path).ok());
  PackView::Options verify;
  verify.verify_checksums = true;
  StatusOr<PackView> pack = PackView::Open(path, verify);
  ASSERT_TRUE(pack.ok()) << pack.status().ToString();
  EXPECT_EQ(pack->num_shards(), 3u);
  EXPECT_EQ(*pack->Distance(0, 1), *Fixture().oracle->Distance(0, 1));
  std::remove(path.c_str());
}

TEST(PackFormat, OutOfRangePairIdInFlatInputRejected) {
  // An opened view does not scan pair ids, and the pack writer indexes its
  // node-to-shard table with them: a checksum-valid flat file naming a node
  // outside the tree must be InvalidArgument, not an out-of-bounds read.
  const std::string flat = SerializeSeOracleFlat(*Fixture().oracle);
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(flat);
  ASSERT_TRUE(info.ok());
  uint64_t pairs_offset = 0;
  for (const FlatSectionEntry& e : info->sections) {
    if (e.id == kFlatPairs) pairs_offset = e.offset;
  }
  ASSERT_NE(pairs_offset, 0u);
  const uint32_t num_nodes =
      static_cast<uint32_t>(Fixture().oracle->tree().num_nodes());
  for (size_t field : {offsetof(NodePair, a), offsetof(NodePair, b)}) {
    std::string bad = flat;
    std::memcpy(bad.data() + pairs_offset + field, &num_nodes,
                sizeof(num_nodes));
    ResealFlatChecksums(&bad);
    const std::string path = ::testing::TempDir() + "/bad_pair_id.tso";
    {
      std::ofstream out(path, std::ios::binary);
      out << bad;
    }
    StatusOr<OracleView> view =
        OracleView::Open(path, {.verify_checksums = true});
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    PackBuildOptions options;
    options.num_shards = 3;
    StatusOr<std::string> pack = SerializeOraclePack(*view, options);
    ASSERT_FALSE(pack.ok()) << "field offset " << field;
    EXPECT_EQ(pack.status().code(), StatusCode::kInvalidArgument)
        << pack.status().ToString();
    std::remove(path.c_str());
  }
}

// Corruption robustness: truncations at every section boundary and byte
// flips inside every section must produce a clean failure (open error or,
// for undetected-by-structure flips without checksum verification, at worst
// a NotFound-style query error) — never a crash. With checksums on, every
// flip is detected at open.
TEST(PackFormat, TruncationFailsCleanly) {
  const std::string blob = Pack(3, PackPolicy::kPoiRange);
  StatusOr<PackFileInfo> info = ReadPackFileInfo(blob);
  ASSERT_TRUE(info.ok());
  std::vector<size_t> cuts = {0, sizeof(FlatHeader) / 2, sizeof(FlatHeader)};
  for (const FlatSectionEntry& e : info->sections) {
    cuts.push_back(e.offset);
    cuts.push_back(e.offset + e.size / 2);
  }
  cuts.push_back(blob.size() - 1);
  for (size_t cut : cuts) {
    const std::string truncated = blob.substr(0, cut);
    EXPECT_FALSE(PackView::FromBuffer(truncated).ok()) << "cut=" << cut;
  }
}

TEST(PackFormat, ByteFlipsDetectedWithChecksumsOn) {
  const std::string blob = Pack(2, PackPolicy::kPoiRange);
  StatusOr<PackFileInfo> info = ReadPackFileInfo(blob);
  ASSERT_TRUE(info.ok());
  PackView::Options verify;
  verify.verify_checksums = true;
  for (const FlatSectionEntry& e : info->sections) {
    if (e.size == 0) continue;
    std::string corrupt = blob;
    corrupt[e.offset + e.size / 2] ^= 0x40;
    EXPECT_FALSE(PackView::FromBuffer(corrupt, verify).ok())
        << PackSectionName(e.id);
  }
  // Header corruption is caught even without checksums.
  std::string bad_magic = blob;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(PackView::FromBuffer(bad_magic).ok());
}

// A pack spliced from a different oracle's shard must be rejected by the
// meta cross-check (here: meta tampering detected by the shard count).
TEST(PackFormat, MetaShardCountMismatchRejected) {
  std::string blob = Pack(2, PackPolicy::kPoiRange);
  StatusOr<PackFileInfo> info = ReadPackFileInfo(blob);
  ASSERT_TRUE(info.ok());
  // Flip num_shards inside the meta section (the default open skips the
  // per-section checksum pass, so only the cross-check can catch this).
  const FlatSectionEntry& meta_entry = info->sections[0];
  PackMeta meta{};
  std::memcpy(&meta, blob.data() + meta_entry.offset, sizeof(meta));
  meta.num_shards = 3;
  std::memcpy(blob.data() + meta_entry.offset, &meta, sizeof(meta));
  EXPECT_FALSE(PackView::FromBuffer(blob).ok());
}

}  // namespace
}  // namespace tso
