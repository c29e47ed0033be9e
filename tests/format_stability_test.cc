// Format-stability gate: the on-disk oracle format is a frozen contract.
// Golden files (tests/golden/) are loaded and re-serialized; any byte
// difference means the format changed and kFlatFormatVersion /
// kFlatFormatMinorVersion must be bumped and the goldens regenerated.
// Loading + re-serializing involves no floating-point computation, so these
// comparisons are exact on every platform. The CI `format-stability` job
// runs this suite as a blocking gate.
//
// Four flat goldens hold the same oracle:
//   oracle-v1.tsoflat    v1.0 (10 sections, FKS hash, no ancestor table) —
//     generated once with `tso build-oracle --dataset sf-small
//     --vertices 150 --pois 12 --solver dijkstra --epsilon 0.25 --seed 7`
//   oracle-v1.1.tsoflat  v1.1 (11 sections, + ancestors) — the same oracle
//     re-serialized by the v1.1 writer.
//   oracle-v2.tsoflat    v2.0 (7 sections, pilot hash, pairs in hash
//     order, both orientations of every pair) — the same oracle
//     re-serialized by the v2 writer.
//   oracle-v3.tsoflat    v3.0 (the v2 sections, one canonical record a <= b
//     per unordered pair) — the v2 golden opened by the current reader,
//     which converts it, and written out as view.buffer(); no FP.
// The v1 and v2 goldens are the backward-compatibility gate: current
// readers must keep opening and answering from them, by converting to v3
// at open. The v3 golden is the byte-identity gate for what the writer
// emits today.

#include <cmath>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/crc32.h"
#include "geodesic/mmp_solver.h"
#include "oracle/flat_format.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"
#include "oracle/pack_view.h"
#include "oracle/se_oracle.h"
#include "terrain/dataset.h"

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
std::string GoldenFlatV3() {
  return ReadFile(std::string(TSO_GOLDEN_DIR) + "/oracle-v3.tsoflat");
}

/// 144 ordered records before v3 (12 self pairs, both orientations of 66
/// others); 78 canonical records after.
void ExpectGoldenShape(const OracleView& view) {
  EXPECT_EQ(view.num_pois(), 12u);
  EXPECT_DOUBLE_EQ(view.epsilon(), 0.25);
  EXPECT_EQ(view.height(), 3);
  EXPECT_EQ(view.pair_set().size(), 78u);
  EXPECT_EQ(view.stored_num_pairs(), view.converted_from() != 0 ? 144u : 78u);
  EXPECT_TRUE(view.tree().CheckInvariants().ok());
  for (const NodePair& p : view.pair_set().pairs()) EXPECT_LE(p.a, p.b);
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
  EXPECT_EQ(view->converted_from(), 1u);
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
  EXPECT_EQ(view->converted_from(), 1u);
  EXPECT_TRUE(view->tree().has_ancestor_table());
  ExpectGoldenShape(*view);
}

TEST(FormatStability, GoldenV2ConvertsAtOpen) {
  // A v2 file stores both orientations of every pair; it converts to v3 at
  // open by keeping the a <= b records, with no FP work.
  const std::string blob = GoldenFlatV2();
  ASSERT_FALSE(blob.empty());
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->header.version, 2u);
  EXPECT_EQ(info->header.minor_version, 0u);
  ASSERT_EQ(info->sections.size(), kFlatSectionCountV2);
  StatusOr<OracleView> view = OracleView::FromBuffer(blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->converted_from(), 2u);
  ExpectGoldenShape(*view);
  EXPECT_EQ(view->buffer(), GoldenFlatV3());
}

TEST(FormatStability, GoldenV3OpensZeroCopyAndAnswersLikeV1) {
  const std::string blob = GoldenFlatV3();
  ASSERT_FALSE(blob.empty());
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->header.version, kFlatFormatVersion);
  EXPECT_EQ(info->header.minor_version, kFlatFormatMinorVersion);
  ASSERT_EQ(info->sections.size(), kFlatSectionCountV2);
  StatusOr<OracleView> view = OracleView::FromBuffer(blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->converted_from(), 0u);
  EXPECT_EQ(view->buffer().data(), blob.data());  // served in place
  ExpectGoldenShape(*view);
  StatusOr<OracleView> v1 = OracleView::FromBuffer(GoldenFlatMinor1());
  ASSERT_TRUE(v1.ok());
  const uint32_t n = static_cast<uint32_t>(view->num_pois());
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      EXPECT_EQ(*view->Distance(s, t), *v1->Distance(s, t)) << s << "," << t;
      EXPECT_EQ(*view->Distance(s, t), *view->Distance(t, s))
          << s << "," << t;
    }
  }
  EXPECT_NEAR(*view->Distance(0, 1), 782.040311, 1e-6);
  EXPECT_NEAR(*view->Distance(11, 4), 1089.404627, 1e-6);
}

TEST(FormatStability, CurrentWriterMatchesV3GoldenByteForByte) {
  // Opening ANY golden and re-serializing its components must reproduce
  // the v3 golden exactly: the writer always emits the current version,
  // rebuilds the pilot hash from the pair set, and recomputes the ancestor
  // table from the tree.
  const std::string v3 = GoldenFlatV3();
  ASSERT_FALSE(v3.empty());
  for (const std::string& blob :
       {GoldenFlatMinor0(), GoldenFlatMinor1(), GoldenFlatV2(), v3}) {
    const std::string reserialized = Reserialize(blob);
    ASSERT_EQ(reserialized.size(), v3.size())
        << "flat format layout drifted — bump kFlatFormatMinorVersion (or "
           "the major version) and regenerate tests/golden/";
    EXPECT_EQ(reserialized, v3)
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
  // absorbs the print rounding of the recorded literals (and the last-ulp
  // difference between a pair's two pre-v3 orientations). Checked on every
  // golden, so the ancestor-table path answers the same recorded numbers
  // as the walk path.
  for (const std::string& blob : {GoldenFlatMinor0(), GoldenFlatMinor1(),
                                  GoldenFlatV2(), GoldenFlatV3()}) {
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

/// A one-shard TSOPACK around `flat` (a v1 or v2 file, which the current
/// pack writer cannot emit): every POI and node routes to shard 0, and the
/// pair total is the shard file's own count, as the writers of those
/// versions recorded it.
std::string WrapAsOneShardPack(const std::string& flat) {
  StatusOr<OracleView> view = OracleView::FromBuffer(flat);
  EXPECT_TRUE(view.ok());
  if (!view.ok()) return "";
  PackMeta meta{};
  meta.epsilon = view->epsilon();
  meta.num_pois = view->num_pois();
  meta.num_tree_nodes = view->tree().num_nodes();
  meta.num_pairs_total = view->stored_num_pairs();
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

TEST(FormatStability, OldPackShardsConvertAtOpen) {
  // Pack shards open through OracleView::FromBuffer, so a pack of v1 or v2
  // shards converts shard by shard and answers like the v3 golden.
  const std::string v3 = GoldenFlatV3();
  StatusOr<OracleView> view = OracleView::FromBuffer(v3);
  ASSERT_TRUE(view.ok());
  const uint32_t n = static_cast<uint32_t>(view->num_pois());
  for (const auto& [blob, version] :
       {std::pair(GoldenFlatMinor1(), 1u), std::pair(GoldenFlatV2(), 2u)}) {
    const std::string pack_bytes = WrapAsOneShardPack(blob);
    ASSERT_FALSE(pack_bytes.empty());
    StatusOr<PackView> pack =
        PackView::FromBuffer(pack_bytes, {.verify_checksums = true});
    ASSERT_TRUE(pack.ok()) << pack.status().ToString();
    EXPECT_EQ(pack->shard(0).converted_from(), version);
    EXPECT_EQ(pack->shard(0).buffer(), v3);
    for (uint32_t s = 0; s < n; ++s) {
      for (uint32_t t = 0; t < n; ++t) {
        EXPECT_EQ(*pack->Distance(s, t), *view->Distance(s, t))
            << s << "," << t;
      }
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

/// The v2 file a pre-v3 build of `oracle` wrote: every canonical record
/// plus its reverse orientation, whose distance came from the opposite SSAD
/// source and may differ in the last bits (modelled here by one ulp), in
/// the same sections under version 2.
std::string AsV2File(const OracleView& oracle) {
  std::vector<NodePair> both;
  for (const NodePair& p : oracle.pair_set().pairs()) {
    both.push_back(p);
    if (p.a != p.b) {
      both.push_back({p.b, p.a, std::nextafter(p.distance, 1e300)});
    }
  }
  StatusOr<NodePairSet> set = NodePairSet::FromPairs(both);
  EXPECT_TRUE(set.ok());
  if (!set.ok()) return "";
  std::string bytes = SerializeSeOracleFlat(oracle.epsilon(), oracle.pois(),
                                            oracle.tree(), set->view());
  const uint32_t version = 2;  // the header is not covered by a checksum
  std::memcpy(bytes.data() + offsetof(FlatHeader, version), &version,
              sizeof(version));
  return bytes;
}

TEST(FormatStability, V2BuildConvertsToTheFreshV3Build) {
  // An MMP build at ε = 0.1, as the wire_p2p benchmark serves (smaller):
  // its v2 form, converted at open, is byte for byte the v3 build, and the
  // reverse records' last-ulp differences are gone from every answer.
  StatusOr<Dataset> ds =
      MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 40, 21);
  ASSERT_TRUE(ds.ok());
  MmpSolver solver(*ds->mesh);
  SeOracleOptions options;
  options.epsilon = 0.1;
  StatusOr<SeOracle> fresh =
      SeOracle::Build(*ds->mesh, ds->pois, solver, options, nullptr);
  ASSERT_TRUE(fresh.ok());
  const std::string v2 = AsV2File(*fresh);
  ASSERT_FALSE(v2.empty());
  StatusOr<OracleView> converted =
      OracleView::FromBytes(v2, {.verify_checksums = true});
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  EXPECT_EQ(converted->converted_from(), 2u);
  size_t self_pairs = 0;
  for (const NodePair& p : fresh->pair_set().pairs()) self_pairs += p.a == p.b;
  EXPECT_EQ(converted->stored_num_pairs(),
            2 * fresh->pair_set().size() - self_pairs);
  EXPECT_EQ(converted->buffer(), fresh->buffer());
  const uint32_t n = static_cast<uint32_t>(fresh->num_pois());
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      EXPECT_EQ(*converted->Distance(s, t), *fresh->Distance(t, s))
          << s << "," << t;
    }
  }
}

TEST(FormatStability, FreshBuildSaveLoadSaveIsByteStable) {
  // Independent of which golden seeded it: any oracle serialized, opened,
  // and re-serialized must be byte-stable.
  const std::string flat = GoldenFlatV3();
  const std::string once = Reserialize(flat);
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(Reserialize(once), flat);
}

}  // namespace
}  // namespace tso
