// Format-stability gate: the on-disk oracle format is a frozen contract.
// Golden files (tests/golden/) are loaded and re-serialized; any byte
// difference means the format changed and kFlatFormatVersion /
// kFlatFormatMinorVersion must be bumped and the goldens regenerated.
// Loading + re-serializing involves no floating-point computation, so these
// comparisons are exact on every platform. The CI `format-stability` job
// runs this suite as a blocking gate.
//
// Three flat goldens hold the same oracle:
//   oracle-v1.tsoflat    v1.0 (10 sections, FKS hash, no ancestor table) —
//     generated once with `tso build-oracle --dataset sf-small
//     --vertices 150 --pois 12 --solver dijkstra --epsilon 0.25 --seed 7`
//   oracle-v1.1.tsoflat  v1.1 (11 sections, + ancestors) — the same oracle
//     re-serialized by the v1.1 writer.
//   oracle-v2.tsoflat    v2.0 (7 sections, pilot hash, pairs in hash
//     order) — the same oracle re-serialized by the current writer (open
//     either v1 golden, write view.buffer(); no FP).
// The v1 goldens are the backward-compatibility gate: current readers must
// keep opening and answering from them, by converting to v2 at open. The
// v2 golden is the byte-identity gate for what the writer emits today.

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/crc32.h"
#include "oracle/flat_format.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"
#include "oracle/pack_view.h"

#ifndef TSO_GOLDEN_DIR
#define TSO_GOLDEN_DIR "tests/golden"
#endif

namespace tso {
namespace {

/// Opens `blob` with checksums on and writes its components back out with
/// the current flat writer; empty if the blob does not open.
std::string Reserialize(std::string blob) {
  StatusOr<OracleView> view =
      OracleView::FromBytes(std::move(blob), {.verify_checksums = true});
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  if (!view.ok()) return "";
  return SerializeSeOracleFlat(view->epsilon(), view->pois(), view->tree(),
                               view->pair_set());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string GoldenFlatMinor0() {
  return ReadFile(std::string(TSO_GOLDEN_DIR) + "/oracle-v1.tsoflat");
}
std::string GoldenFlatMinor1() {
  return ReadFile(std::string(TSO_GOLDEN_DIR) + "/oracle-v1.1.tsoflat");
}
std::string GoldenFlatV2() {
  return ReadFile(std::string(TSO_GOLDEN_DIR) + "/oracle-v2.tsoflat");
}

void ExpectGoldenShape(const OracleView& view) {
  EXPECT_EQ(view.num_pois(), 12u);
  EXPECT_DOUBLE_EQ(view.epsilon(), 0.25);
  EXPECT_EQ(view.height(), 3);
  EXPECT_EQ(view.pair_set().size(), 144u);
  EXPECT_TRUE(view.tree().CheckInvariants().ok());
}

TEST(FormatStability, GoldenMinor0StillOpensAndValidates) {
  // The backward-compat contract: a v1.0 file, written before the ancestor
  // table existed, keeps opening. It is converted to v2 at open, and v2
  // always carries the table.
  const std::string blob = GoldenFlatMinor0();
  ASSERT_FALSE(blob.empty());
  ASSERT_TRUE(LooksLikeFlatOracle(blob));
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->header.version, 1u);
  EXPECT_EQ(info->header.minor_version, 0u);
  ASSERT_EQ(info->sections.size(), kFlatSectionCount);
  StatusOr<OracleView> view = OracleView::FromBuffer(blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->converted_from_v1());
  EXPECT_TRUE(view->tree().has_ancestor_table());
  ExpectGoldenShape(*view);
}

TEST(FormatStability, GoldenMinor1OpensAndValidates) {
  const std::string blob = GoldenFlatMinor1();
  ASSERT_FALSE(blob.empty());
  ASSERT_TRUE(LooksLikeFlatOracle(blob));
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->header.version, 1u);
  EXPECT_EQ(info->header.minor_version, 1u);
  ASSERT_EQ(info->sections.size(), kFlatSectionCountMinor1);
  StatusOr<OracleView> view = OracleView::FromBuffer(blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->converted_from_v1());
  EXPECT_TRUE(view->tree().has_ancestor_table());
  ExpectGoldenShape(*view);
}

TEST(FormatStability, GoldenV2OpensZeroCopyAndAnswersLikeV1) {
  const std::string blob = GoldenFlatV2();
  ASSERT_FALSE(blob.empty());
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->header.version, kFlatFormatVersion);
  EXPECT_EQ(info->header.minor_version, kFlatFormatMinorVersion);
  ASSERT_EQ(info->sections.size(), kFlatSectionCountV2);
  StatusOr<OracleView> view = OracleView::FromBuffer(blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view->converted_from_v1());
  EXPECT_EQ(view->buffer().data(), blob.data());  // served in place
  ExpectGoldenShape(*view);
  StatusOr<OracleView> v1 = OracleView::FromBuffer(GoldenFlatMinor1());
  ASSERT_TRUE(v1.ok());
  const uint32_t n = static_cast<uint32_t>(view->num_pois());
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      EXPECT_EQ(*view->Distance(s, t), *v1->Distance(s, t)) << s << "," << t;
    }
  }
  EXPECT_NEAR(*view->Distance(0, 1), 782.040311, 1e-6);
  EXPECT_NEAR(*view->Distance(11, 4), 1089.404627, 1e-6);
}

TEST(FormatStability, CurrentWriterMatchesV2GoldenByteForByte) {
  // Opening ANY golden and re-serializing its components must reproduce
  // the v2 golden exactly: the writer always emits the current version,
  // rebuilds the pilot hash from the pair set, and recomputes the ancestor
  // table from the tree.
  const std::string v2 = GoldenFlatV2();
  ASSERT_FALSE(v2.empty());
  for (const std::string& blob : {GoldenFlatMinor0(), GoldenFlatMinor1(), v2}) {
    const std::string reserialized = Reserialize(blob);
    ASSERT_EQ(reserialized.size(), v2.size())
        << "flat format layout drifted — bump kFlatFormatMinorVersion (or "
           "the major version) and regenerate tests/golden/";
    EXPECT_EQ(reserialized, v2)
        << "flat format bytes drifted — bump kFlatFormatMinorVersion (or "
           "the major version) and regenerate tests/golden/";
  }
}

TEST(FormatStability, GoldenFormatsAgreeOnEveryQuery) {
  // Both golden files hold the same oracle: both borrowed flat minors (walk
  // path vs ancestor-table path) and an owning, checksum-verified view of
  // minor 1 must agree bit-for-bit on every distance (queries only read
  // stored doubles — no FP arithmetic — so exact equality is portable).
  const std::string minor0 = GoldenFlatMinor0();
  const std::string minor1 = GoldenFlatMinor1();
  StatusOr<OracleView> v0 = OracleView::FromBuffer(minor0);
  StatusOr<OracleView> v1 = OracleView::FromBuffer(minor1);
  StatusOr<OracleView> oracle =
      OracleView::FromBytes(minor1, {.verify_checksums = true});
  ASSERT_TRUE(v0.ok() && v1.ok() && oracle.ok());
  ASSERT_EQ(v0->num_pois(), oracle->num_pois());
  ASSERT_EQ(v1->num_pois(), oracle->num_pois());
  const uint32_t n = static_cast<uint32_t>(oracle->num_pois());
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      const double expected = *oracle->Distance(s, t);
      EXPECT_EQ(*v0->Distance(s, t), expected) << s << "," << t;
      EXPECT_EQ(*v1->Distance(s, t), expected) << s << "," << t;
    }
  }
}

TEST(FormatStability, GoldenSpotChecksMatchRecordedValues) {
  // Values recorded at golden-generation time (printed by `tso query`).
  // They are stored doubles read back verbatim; the 1e-6 tolerance only
  // absorbs the print rounding of the recorded literals. Checked on both
  // flat minors so the ancestor-table path answers the same recorded
  // numbers as the walk path.
  for (const std::string& blob : {GoldenFlatMinor0(), GoldenFlatMinor1()}) {
    StatusOr<OracleView> view = OracleView::FromBuffer(blob);
    ASSERT_TRUE(view.ok());
    EXPECT_NEAR(*view->Distance(0, 1), 782.040311, 1e-6);
    EXPECT_NEAR(*view->Distance(2, 9), 1306.800491, 1e-6);
    EXPECT_NEAR(*view->Distance(3, 7), 1636.347612, 1e-6);
    EXPECT_NEAR(*view->Distance(11, 4), 1089.404627, 1e-6);
    EXPECT_NEAR(*view->Distance(10, 6), 1082.123295, 1e-6);
    EXPECT_EQ(*view->Distance(5, 5), 0.0);
  }
}

/// A one-shard TSOPACK around `flat` (a v1 file, which the current pack
/// writer cannot emit): every POI and node routes to shard 0.
std::string WrapAsOneShardPack(const std::string& flat) {
  StatusOr<OracleView> view = OracleView::FromBuffer(flat);
  EXPECT_TRUE(view.ok());
  if (!view.ok()) return "";
  PackMeta meta{};
  meta.epsilon = view->epsilon();
  meta.num_pois = view->num_pois();
  meta.num_tree_nodes = view->tree().num_nodes();
  meta.num_pairs_total = view->pair_set().size();
  meta.num_shards = 1;
  meta.policy = static_cast<uint32_t>(PackPolicy::kPoiRange);
  const std::vector<uint32_t> shard_of_poi(meta.num_pois, 0);
  const std::vector<uint32_t> shard_of_node(meta.num_tree_nodes, 0);
  const std::string_view payloads[] = {
      {reinterpret_cast<const char*>(&meta), sizeof(meta)},
      {reinterpret_cast<const char*>(shard_of_poi.data()),
       shard_of_poi.size() * sizeof(uint32_t)},
      {reinterpret_cast<const char*>(shard_of_node.data()),
       shard_of_node.size() * sizeof(uint32_t)},
      flat};
  const uint64_t counts[] = {1, meta.num_pois, meta.num_tree_nodes, 1};
  const uint32_t ids[] = {kPackMeta, kPackShardOfPoi, kPackShardOfNode,
                          kPackShardBase};
  FlatSectionEntry table[4] = {};
  uint64_t cursor = sizeof(FlatHeader) + sizeof(table);
  for (int i = 0; i < 4; ++i) {
    table[i].id = ids[i];
    table[i].offset = (cursor + kFlatSectionAlign - 1) / kFlatSectionAlign *
                      kFlatSectionAlign;
    table[i].size = payloads[i].size();
    table[i].count = counts[i];
    table[i].crc32 = Crc32(payloads[i].data(), payloads[i].size());
    cursor = table[i].offset + table[i].size;
  }
  FlatHeader header{};
  std::memcpy(header.magic, kPackMagic, sizeof(kPackMagic));
  header.endian_tag = kFlatEndianTag;
  header.version = kPackFormatVersion;
  header.file_size = cursor;
  header.section_count = 4;
  header.section_table_crc = Crc32(table, sizeof(table));
  std::string out(reinterpret_cast<const char*>(&header), sizeof(header));
  out.append(reinterpret_cast<const char*>(table), sizeof(table));
  for (int i = 0; i < 4; ++i) {
    out.append(table[i].offset - out.size(), '\0');
    out.append(payloads[i]);
  }
  return out;
}

TEST(FormatStability, V1PackShardsConvertAtOpen) {
  // Pack shards open through OracleView::FromBuffer, so a pack of v1
  // shards converts shard by shard and answers like the v2 golden.
  const std::string pack_bytes = WrapAsOneShardPack(GoldenFlatMinor1());
  ASSERT_FALSE(pack_bytes.empty());
  StatusOr<PackView> pack =
      PackView::FromBuffer(pack_bytes, {.verify_checksums = true});
  ASSERT_TRUE(pack.ok()) << pack.status().ToString();
  EXPECT_TRUE(pack->shard(0).converted_from_v1());
  const std::string v2 = GoldenFlatV2();
  StatusOr<OracleView> view = OracleView::FromBuffer(v2);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(pack->shard(0).buffer(), v2);
  const uint32_t n = static_cast<uint32_t>(view->num_pois());
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      EXPECT_EQ(*pack->Distance(s, t), *view->Distance(s, t))
          << s << "," << t;
    }
  }
}

TEST(FormatStability, CorruptV1PairsFailConversionCleanly) {
  // Conversion re-indexes the v1 pairs, so a duplicated pair or one on the
  // reserved empty-slot key is an InvalidArgument at open (checksums off).
  const std::string v1 = GoldenFlatMinor1();
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(v1);
  ASSERT_TRUE(info.ok());
  uint64_t pairs_offset = 0;
  for (const FlatSectionEntry& e : info->sections) {
    if (e.id == kFlatPairs) pairs_offset = e.offset;
  }
  ASSERT_NE(pairs_offset, 0u);
  std::string duplicate = v1;
  std::memcpy(duplicate.data() + pairs_offset + sizeof(NodePair),
              v1.data() + pairs_offset, sizeof(NodePair));
  std::string reserved = v1;
  std::memcpy(reserved.data() + pairs_offset, &kEmptyPairSlot,
              sizeof(NodePair));
  for (const std::string& bad : {duplicate, reserved}) {
    StatusOr<OracleView> view = OracleView::FromBuffer(bad);
    ASSERT_FALSE(view.ok());
    EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(view.status().ToString().find("node-pairs"), std::string::npos)
        << view.status().ToString();
  }
}

TEST(FormatStability, FreshBuildSaveLoadSaveIsByteStable) {
  // Independent of which golden seeded it: any oracle serialized, opened,
  // and re-serialized must be byte-stable.
  const std::string flat = GoldenFlatV2();
  const std::string once = Reserialize(flat);
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(Reserialize(once), flat);
}

}  // namespace
}  // namespace tso
