// Format-stability gate: the on-disk oracle format is a frozen contract.
// Golden files (tests/golden/) are loaded and re-serialized; any byte
// difference means the format changed and kFlatFormatVersion /
// kFlatFormatMinorVersion must be bumped and the goldens regenerated.
// Loading + re-serializing involves no floating-point computation, so these
// comparisons are exact on every platform. The CI `format-stability` job
// runs this suite as a blocking gate.
//
// Two flat goldens are checked in:
//   oracle-v1.tsoflat    minor 0 (10 sections, no ancestor table) —
//     generated once with `tso build-oracle --dataset sf-small
//     --vertices 150 --pois 12 --solver dijkstra --epsilon 0.25 --seed 7`
//     It is the backward-compatibility gate: current readers must keep
//     opening and answering from it forever (within major version 1).
//   oracle-v1.1.tsoflat  minor 1 (11 sections, + ancestors) — the same
//     oracle re-serialized by the current writer (open + serialize the
//     view's components, no FP). It is the byte-identity gate for what the
//     writer emits today.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "oracle/flat_format.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"

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

void ExpectGoldenShape(const OracleView& view) {
  EXPECT_EQ(view.num_pois(), 12u);
  EXPECT_DOUBLE_EQ(view.epsilon(), 0.25);
  EXPECT_EQ(view.height(), 3);
  EXPECT_EQ(view.pair_set().size(), 144u);
  EXPECT_TRUE(view.tree().CheckInvariants().ok());
}

TEST(FormatStability, GoldenMinor0StillOpensAndValidates) {
  // The backward-compat contract: a file written before the ancestor table
  // existed keeps opening (walk path, no table).
  const std::string blob = GoldenFlatMinor0();
  ASSERT_FALSE(blob.empty());
  ASSERT_TRUE(LooksLikeFlatOracle(blob));
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->header.minor_version, 0u);
  ASSERT_EQ(info->sections.size(), kFlatSectionCount);
  StatusOr<OracleView> view = OracleView::FromBuffer(blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view->tree().has_ancestor_table());
  ExpectGoldenShape(*view);
}

TEST(FormatStability, GoldenMinor1OpensAndValidates) {
  const std::string blob = GoldenFlatMinor1();
  ASSERT_FALSE(blob.empty());
  ASSERT_TRUE(LooksLikeFlatOracle(blob));
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->header.minor_version, 1u);
  ASSERT_EQ(info->sections.size(), kFlatSectionCountMinor1);
  StatusOr<OracleView> view = OracleView::FromBuffer(blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->tree().has_ancestor_table());
  ExpectGoldenShape(*view);
}

TEST(FormatStability, CurrentWriterMatchesMinor1GoldenByteForByte) {
  // Opening EITHER golden and re-serializing its components must reproduce
  // the minor-1 golden exactly: the writer always emits the current minor
  // version and recomputes the ancestor table from the tree.
  const std::string minor1 = GoldenFlatMinor1();
  ASSERT_FALSE(minor1.empty());
  for (const std::string& blob : {GoldenFlatMinor0(), minor1}) {
    const std::string reserialized = Reserialize(blob);
    ASSERT_EQ(reserialized.size(), minor1.size())
        << "flat format layout drifted — bump kFlatFormatMinorVersion (or "
           "the major version) and regenerate tests/golden/";
    EXPECT_EQ(reserialized, minor1)
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

TEST(FormatStability, FreshBuildSaveLoadSaveIsByteStable) {
  // Independent of which golden seeded it: any oracle serialized, opened,
  // and re-serialized must be byte-stable.
  const std::string flat = GoldenFlatMinor1();
  const std::string once = Reserialize(flat);
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(Reserialize(once), flat);
}

}  // namespace
}  // namespace tso
