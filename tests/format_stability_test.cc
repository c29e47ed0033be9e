// Format-stability gate: the on-disk oracle format is a frozen contract.
// Golden files (tests/golden/) are loaded and re-serialized; any byte
// difference means the format changed and kFlatFormatVersion /
// kFlatFormatMinorVersion must be bumped and the goldens regenerated.
// Loading + re-serializing involves no floating-point computation, so these
// comparisons are exact on every platform. The CI `format-stability` job
// runs this suite as a blocking gate.
//
// Five flat goldens hold the same oracle:
//   oracle-v1.tsoflat    v1.0 (10 sections, FKS hash, no ancestor table) —
//     generated once with `tso build-oracle --dataset sf-small
//     --vertices 150 --pois 12 --solver dijkstra --epsilon 0.25 --seed 7`
//   oracle-v1.1.tsoflat  v1.1 (11 sections, + ancestors) — the same oracle
//     re-serialized by the v1.1 writer.
//   oracle-v2.tsoflat    v2.0 (7 sections, pilot hash, pairs in hash
//     order, both orientations of every pair) — the same oracle
//     re-serialized by the v2 writer.
//   oracle-v3.tsoflat    v3.0 (the v2 sections, one canonical record a <= b
//     per unordered pair) — the v2 golden opened by the v3 reader, which
//     converted it, and written out as view.buffer(); no FP.
//   oracle-v4.tsoflat    v4.0 (the records split into a 4-byte key section
//     and an 8-byte distance section, same slot order) — the v3 golden
//     opened by the current reader, which converts it, and written out as
//     view.buffer(); no FP.
// The v1-v3 goldens are the backward-compatibility gate: current readers
// must keep opening and answering from them, by converting to v4 at open.
// The v4 golden is the byte-identity gate for what the writer emits today.

#include <cmath>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
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
std::string GoldenFlatV4() {
  return ReadFile(std::string(TSO_GOLDEN_DIR) + "/oracle-v4.tsoflat");
}

/// 144 ordered records before v3 (12 self pairs, both orientations of 66
/// others); 78 canonical records after.
void ExpectGoldenShape(const OracleView& view) {
  EXPECT_EQ(view.num_pois(), 12u);
  EXPECT_DOUBLE_EQ(view.epsilon(), 0.25);
  EXPECT_EQ(view.height(), 3);
  EXPECT_EQ(view.pair_set().size(), 78u);
  const bool both_orientations =
      view.converted_from() == 1 || view.converted_from() == 2;
  EXPECT_EQ(view.stored_num_pairs(), both_orientations ? 144u : 78u);
  EXPECT_TRUE(view.tree().CheckInvariants().ok());
  for (const NodePair& p : view.pair_set().pairs()) EXPECT_LE(p.a, p.b);
}

TEST(FormatStability, GoldenMinor0StillOpensAndValidates) {
  // The backward-compat contract: a v1.0 file, written before the ancestor
  // table existed, keeps opening. It is converted to v4 at open, and v4
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
  // A v2 file stores both orientations of every pair; it converts to v4 at
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
  EXPECT_EQ(view->buffer(), GoldenFlatV4());
}

TEST(FormatStability, GoldenV3ConvertsAtOpen) {
  // A v3 file stores 16-byte canonical records; it converts to v4 at open
  // by splitting them into keys and distances in the same slot order.
  const std::string blob = GoldenFlatV3();
  ASSERT_FALSE(blob.empty());
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->header.version, 3u);
  EXPECT_EQ(info->header.minor_version, 0u);
  ASSERT_EQ(info->sections.size(), kFlatSectionCountV2);
  StatusOr<OracleView> view = OracleView::FromBuffer(blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->converted_from(), 3u);
  ExpectGoldenShape(*view);
  EXPECT_EQ(view->buffer(), GoldenFlatV4());
}

TEST(FormatStability, GoldenV4OpensZeroCopyAndAnswersLikeV1) {
  const std::string blob = GoldenFlatV4();
  ASSERT_FALSE(blob.empty());
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->header.version, kFlatFormatVersion);
  EXPECT_EQ(info->header.minor_version, kFlatFormatMinorVersion);
  ASSERT_EQ(info->sections.size(), kFlatSectionCountV4);
  StatusOr<OracleView> view = OracleView::FromBuffer(blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->converted_from(), 0u);
  EXPECT_EQ(view->buffer().data(), blob.data());  // served in place
  ExpectGoldenShape(*view);
  EXPECT_EQ(view->pair_set().key_width(), 4u);
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

TEST(FormatStability, CurrentWriterMatchesV4GoldenByteForByte) {
  // Opening ANY golden and re-serializing its components must reproduce
  // the v4 golden exactly: the writer always emits the current version,
  // rebuilds the pilot hash from the pair set, and recomputes the ancestor
  // table from the tree.
  const std::string v4 = GoldenFlatV4();
  ASSERT_FALSE(v4.empty());
  for (const std::string& blob : {GoldenFlatMinor0(), GoldenFlatMinor1(),
                                  GoldenFlatV2(), GoldenFlatV3(), v4}) {
    const std::string reserialized = Reserialize(blob);
    ASSERT_EQ(reserialized.size(), v4.size())
        << "flat format layout drifted — bump kFlatFormatMinorVersion (or "
           "the major version) and regenerate tests/golden/";
    EXPECT_EQ(reserialized, v4)
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
  for (const std::string& blob :
       {GoldenFlatMinor0(), GoldenFlatMinor1(), GoldenFlatV2(),
        GoldenFlatV3(), GoldenFlatV4()}) {
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

/// One section of a hand-framed file.
struct TestSection {
  uint32_t id;
  std::string_view bytes;
  uint64_t count;
};

/// Frames `sections` as the writers do: the header, the CRC'd section
/// table, then the payloads at 64-byte-aligned offsets.
std::string FrameSections(const char (&magic)[8], uint32_t version,
                          std::span<const TestSection> sections) {
  std::vector<FlatSectionEntry> table(sections.size());
  uint64_t cursor =
      sizeof(FlatHeader) + table.size() * sizeof(FlatSectionEntry);
  for (size_t i = 0; i < sections.size(); ++i) {
    table[i].id = sections[i].id;
    table[i].offset = (cursor + kFlatSectionAlign - 1) / kFlatSectionAlign *
                      kFlatSectionAlign;
    table[i].size = sections[i].bytes.size();
    table[i].count = sections[i].count;
    table[i].crc32 = Crc32(sections[i].bytes.data(), table[i].size);
    cursor = table[i].offset + table[i].size;
  }
  const size_t table_bytes = table.size() * sizeof(FlatSectionEntry);
  FlatHeader header{};
  std::memcpy(header.magic, magic, sizeof(header.magic));
  header.endian_tag = kFlatEndianTag;
  header.version = version;
  header.file_size = cursor;
  header.section_count = static_cast<uint32_t>(table.size());
  header.section_table_crc = Crc32(table.data(), table_bytes);
  std::string out(reinterpret_cast<const char*>(&header), sizeof(header));
  out.append(reinterpret_cast<const char*>(table.data()), table_bytes);
  for (size_t i = 0; i < sections.size(); ++i) {
    out.append(table[i].offset - out.size(), '\0');
    out.append(sections[i].bytes);
  }
  return out;
}

template <typename T>
std::string_view Bytes(const std::vector<T>& v) {
  return {reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T)};
}

/// A one-shard TSOPACK around `flat` (a v1-v3 file, which the current
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
  const TestSection sections[] = {
      {kPackMeta, {reinterpret_cast<const char*>(&meta), sizeof(meta)}, 1},
      {kPackShardOfPoi, Bytes(shard_of_poi), meta.num_pois},
      {kPackShardOfNode, Bytes(shard_of_node), meta.num_tree_nodes},
      {kPackShardBase, flat, 1}};
  return FrameSections(kPackMagic, kPackFormatVersion, sections);
}

TEST(FormatStability, OldPackShardsConvertAtOpen) {
  // Pack shards open through OracleView::FromBuffer, so a pack of v1-v3
  // shards converts shard by shard and answers like the v4 golden.
  const std::string v4 = GoldenFlatV4();
  StatusOr<OracleView> view = OracleView::FromBuffer(v4);
  ASSERT_TRUE(view.ok());
  const uint32_t n = static_cast<uint32_t>(view->num_pois());
  for (const auto& [blob, version] :
       {std::pair(GoldenFlatMinor1(), 1u), std::pair(GoldenFlatV2(), 2u),
        std::pair(GoldenFlatV3(), 3u)}) {
    const std::string pack_bytes = WrapAsOneShardPack(blob);
    ASSERT_FALSE(pack_bytes.empty());
    StatusOr<PackView> pack =
        PackView::FromBuffer(pack_bytes, {.verify_checksums = true});
    ASSERT_TRUE(pack.ok()) << pack.status().ToString();
    EXPECT_EQ(pack->shard(0).converted_from(), version);
    EXPECT_EQ(pack->shard(0).buffer(), v4);
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
/// source and may differ in the last bits (modelled here by one ulp), as
/// 16-byte records in the slot order of the pilot hash over both
/// orientations, in the v2 sections.
std::string AsV2File(const OracleView& oracle) {
  std::vector<NodePair> both;
  for (const NodePair& p : oracle.pair_set().pairs()) {
    both.push_back(p);
    if (p.a != p.b) {
      both.push_back({p.b, p.a, std::nextafter(p.distance, 1e300)});
    }
  }
  StatusOr<NodePairSet> set = NodePairSet::FromPairs(
      both, static_cast<uint32_t>(oracle.tree().num_nodes()));
  EXPECT_TRUE(set.ok());
  if (!set.ok()) return "";
  const NodePairSetView pairs = set->view();
  std::vector<NodePair> records(pairs.num_slots(), kEmptyPairSlot);
  for (const NodePair& p : pairs.pairs()) {
    records[pairs.hash().Slot(PairKey(p.a, p.b))] = p;
  }
  // The other sections are the current writer's: only the pair sections
  // changed from v2 to v4.
  const std::string v4 = SerializeSeOracleFlat(
      oracle.epsilon(), oracle.pois(), oracle.tree(), pairs);
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(v4);
  EXPECT_TRUE(info.ok());
  if (!info.ok()) return "";
  std::vector<TestSection> sections;
  for (const FlatSectionEntry& e : info->sections) {
    if (e.id == kFlatPairKeys) {
      sections.push_back({kFlatPairs, Bytes(records), records.size()});
    } else if (e.id != kFlatPairDistances) {
      sections.push_back(
          {e.id, std::string_view(v4).substr(e.offset, e.size), e.count});
    }
  }
  return FrameSections(kFlatMagic, 2, sections);
}

TEST(FormatStability, V2BuildConvertsToTheFreshBuild) {
  // An MMP build at ε = 0.1, as the wire_p2p benchmark serves (smaller):
  // its v2 form, converted at open, is byte for byte the fresh build, and
  // the reverse records' last-ulp differences are gone from every answer.
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
  const std::string flat = GoldenFlatV4();
  const std::string once = Reserialize(flat);
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(Reserialize(once), flat);
}

}  // namespace
}  // namespace tso
