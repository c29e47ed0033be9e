// The zero-copy oracle path: OracleView over the flat format must answer
// bit-identically to the built SeOracle it was serialized from, across the
// full query surface (Distance / kNN / range / batch), and must fail with a
// clean Status — never crash or read garbage — on truncated or corrupted
// input. The corruption loops below cut the file at every section boundary
// and flip bytes inside every section; the ASan/UBSan CI job runs this
// suite instrumented.

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geodesic/dijkstra_solver.h"
#include "oracle/flat_format.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"
#include "query/batch.h"
#include "terrain/dataset.h"
#include "flat_reseal.h"

namespace tso {
namespace {

struct FlatFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<DijkstraSolver> solver;
  std::unique_ptr<SeOracle> oracle;
  std::string blob;  // flat serialization of *oracle

  FlatFixture()
      : ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 20, 11)) {
    TSO_CHECK(ds.ok());
    solver = std::make_unique<DijkstraSolver>(*ds->mesh);
    SeOracleOptions options;
    options.epsilon = 0.25;
    StatusOr<SeOracle> built =
        SeOracle::Build(*ds->mesh, ds->pois, *solver, options, nullptr);
    TSO_CHECK(built.ok());
    oracle = std::make_unique<SeOracle>(std::move(*built));
    blob = SerializeSeOracleFlat(*oracle);
  }
};

FlatFixture& Fixture() {
  static FlatFixture* fx = new FlatFixture();
  return *fx;
}

TEST(FlatFormat, HeaderAndSectionTableWellFormed) {
  FlatFixture& fx = Fixture();
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(fx.blob);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->header.version, kFlatFormatVersion);
  EXPECT_EQ(info->header.file_size, fx.blob.size());
  EXPECT_EQ(info->header.minor_version, kFlatFormatMinorVersion);
  ASSERT_EQ(info->sections.size(), kFlatSectionCountV4);
  uint64_t prev_end = 0;
  for (const FlatSectionEntry& e : info->sections) {
    EXPECT_EQ(e.offset % kFlatSectionAlign, 0u) << FlatSectionName(e.id);
    EXPECT_GE(e.offset, prev_end);
    prev_end = e.offset + e.size;
  }
  EXPECT_EQ(prev_end, fx.blob.size());
}

TEST(FlatFormat, ViewAnswersBitIdenticalToOracle) {
  FlatFixture& fx = Fixture();
  StatusOr<OracleView> view = OracleView::FromBuffer(fx.blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->num_pois(), fx.oracle->num_pois());
  EXPECT_EQ(view->epsilon(), fx.oracle->epsilon());
  EXPECT_EQ(view->height(), fx.oracle->height());
  EXPECT_TRUE(view->tree().CheckInvariants().ok());
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      EXPECT_EQ(*view->Distance(s, t), *fx.oracle->Distance(s, t))
          << s << "," << t;
      EXPECT_EQ(*view->DistanceNaive(s, t), *fx.oracle->DistanceNaive(s, t))
          << s << "," << t;
    }
  }
}

TEST(FlatFormat, QueryEnginesMatchAcrossRepresentations) {
  FlatFixture& fx = Fixture();
  StatusOr<OracleView> view = OracleView::FromBuffer(fx.blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());

  for (uint32_t q : {0u, 3u, n - 1}) {
    // kNN: linear, pruned, and sharded variants.
    for (size_t k : {size_t{1}, size_t{5}, size_t{n}}) {
      StatusOr<std::vector<KnnResult>> a = KnnQuery(MakeSource(*fx.oracle), q, k);
      StatusOr<std::vector<KnnResult>> b = KnnQuery(MakeSource(*view), q, k);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a->size(), b->size());
      for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ((*a)[i].poi, (*b)[i].poi);
        EXPECT_EQ((*a)[i].distance, (*b)[i].distance);
      }
      StatusOr<std::vector<KnnResult>> ap = KnnQueryPruned(MakeSource(*fx.oracle), q, k);
      StatusOr<std::vector<KnnResult>> bp = KnnQueryPruned(MakeSource(*view), q, k);
      ASSERT_TRUE(ap.ok() && bp.ok());
      ASSERT_EQ(ap->size(), bp->size());
      for (size_t i = 0; i < ap->size(); ++i) {
        EXPECT_EQ((*ap)[i].poi, (*bp)[i].poi);
        EXPECT_EQ((*ap)[i].distance, (*bp)[i].distance);
      }
      StatusOr<std::vector<KnnResult>> bs = KnnQueryParallel(MakeSource(*view), q, k, 4);
      ASSERT_TRUE(bs.ok());
      ASSERT_EQ(a->size(), bs->size());
      for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ((*a)[i].poi, (*bs)[i].poi);
        EXPECT_EQ((*a)[i].distance, (*bs)[i].distance);
      }
    }
    // Range.
    for (double radius : {0.0, 500.0, 1e9}) {
      StatusOr<std::vector<uint32_t>> a = RangeQuery(MakeSource(*fx.oracle), q, radius);
      StatusOr<std::vector<uint32_t>> b = RangeQuery(MakeSource(*view), q, radius);
      StatusOr<std::vector<uint32_t>> bs =
          RangeQueryParallel(MakeSource(*view), q, radius, 4);
      ASSERT_TRUE(a.ok() && b.ok() && bs.ok());
      EXPECT_EQ(*a, *b);
      EXPECT_EQ(*a, *bs);
    }
  }

  // Distance batch, serial and sharded.
  std::vector<std::pair<uint32_t, uint32_t>> queries;
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) queries.emplace_back(s, t);
  }
  StatusOr<std::vector<double>> a = DistanceBatch(MakeSource(*fx.oracle), queries, 1);
  StatusOr<std::vector<double>> b = DistanceBatch(MakeSource(*view), queries, 1);
  StatusOr<std::vector<double>> bp = DistanceBatch(MakeSource(*view), queries, 4);
  ASSERT_TRUE(a.ok() && b.ok() && bp.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, *bp);
}

TEST(FlatFormat, OpenServesFromMappedFile) {
  FlatFixture& fx = Fixture();
  const std::string path = testing::TempDir() + "/oracle_map.tso";
  ASSERT_TRUE(SaveSeOracleFlat(*fx.oracle, path).ok());
  StatusOr<OracleView> view = OracleView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->SizeBytes(), fx.blob.size());
  // Copies share the mapping; queries keep working after the original view
  // goes out of scope.
  OracleView copy = *view;
  view = Status::InvalidArgument("dropped");
  EXPECT_EQ(*copy.Distance(1, 2), *fx.oracle->Distance(1, 2));
  EXPECT_EQ(*copy.Distance(0, 19), *fx.oracle->Distance(0, 19));
}

TEST(FlatFormat, OwnedBytesRoundTripByteIdentically) {
  FlatFixture& fx = Fixture();
  StatusOr<OracleView> back =
      OracleView::FromBytes(fx.blob, {.verify_checksums = true});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SerializeSeOracleFlat(back->epsilon(), back->pois(), back->tree(),
                                  back->pair_set()),
            fx.blob);
  EXPECT_EQ(*back->Distance(2, 7), *fx.oracle->Distance(2, 7));
  // Open with checksums on reads a saved flat file.
  const std::string path = testing::TempDir() + "/oracle_auto.tso";
  ASSERT_TRUE(SaveSeOracleFlat(*fx.oracle, path).ok());
  StatusOr<OracleView> loaded =
      OracleView::Open(path, {.verify_checksums = true});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded->Distance(2, 7), *fx.oracle->Distance(2, 7));
}

TEST(FlatFormat, SerializationIsDeterministic) {
  FlatFixture& fx = Fixture();
  EXPECT_EQ(SerializeSeOracleFlat(*fx.oracle), fx.blob);
}

// --- Corruption handling -------------------------------------------------

TEST(FlatFormat, TruncationAtEverySectionBoundaryFailsCleanly) {
  FlatFixture& fx = Fixture();
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(fx.blob);
  ASSERT_TRUE(info.ok());
  std::vector<size_t> cuts = {0, 1, sizeof(FlatHeader) - 1,
                              sizeof(FlatHeader),
                              sizeof(FlatHeader) + sizeof(FlatSectionEntry)};
  for (const FlatSectionEntry& e : info->sections) {
    cuts.push_back(e.offset);          // section start
    cuts.push_back(e.offset + 1);      // one byte in
    cuts.push_back(e.offset + e.size - 1);  // one byte short of the end
    cuts.push_back(e.offset + e.size);      // section end
  }
  cuts.push_back(fx.blob.size() - 1);
  for (size_t cut : cuts) {
    if (cut >= fx.blob.size()) continue;
    const std::string truncated = fx.blob.substr(0, cut);
    StatusOr<OracleView> view = OracleView::FromBuffer(truncated);
    EXPECT_FALSE(view.ok()) << "cut=" << cut;
    StatusOr<OracleView> owned =
        OracleView::FromBytes(truncated, {.verify_checksums = true});
    EXPECT_FALSE(owned.ok()) << "cut=" << cut;
  }
  // Trailing garbage changes file_size vs header and must also fail.
  EXPECT_FALSE(OracleView::FromBuffer(fx.blob + "zz").ok());
}

TEST(FlatFormat, ByteFlipInEverySectionDetectedByChecksum) {
  FlatFixture& fx = Fixture();
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(fx.blob);
  ASSERT_TRUE(info.ok());
  OracleView::Options verify;
  verify.verify_checksums = true;
  for (const FlatSectionEntry& e : info->sections) {
    for (size_t rel : {size_t{0}, e.size / 2, e.size - 1}) {
      std::string corrupt = fx.blob;
      corrupt[e.offset + rel] ^= 0x40;
      StatusOr<OracleView> view = OracleView::FromBuffer(corrupt, verify);
      EXPECT_FALSE(view.ok())
          << FlatSectionName(e.id) << " flip at +" << rel;
    }
  }
}

TEST(FlatFormat, ByteFlipsWithoutChecksumsNeverCrash) {
  // With verification off, structural validation must still keep every
  // opened view memory-safe: exercise the whole query surface under
  // ASan/UBSan and only require no crash.
  FlatFixture& fx = Fixture();
  OracleView::Options no_verify;
  no_verify.verify_checksums = false;
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  for (size_t pos = 0; pos < fx.blob.size();
       pos += 97) {  // prime stride, hits every section
    std::string corrupt = fx.blob;
    corrupt[pos] ^= 0x55;
    StatusOr<OracleView> view = OracleView::FromBuffer(corrupt, no_verify);
    if (!view.ok()) continue;  // rejected structurally: fine
    QueryScratch scratch;
    for (uint32_t s = 0; s < n; s += 7) {
      for (uint32_t t = 0; t < n; t += 5) {
        (void)view->Distance(s, t, scratch);  // must not crash
      }
    }
  }
}

TEST(FlatFormat, SiblingCycleRejectedWithoutChecksums) {
  // A crafted child-list cycle passes the link-bounds and parent-layer
  // checks; the child-list validation must still reject it at open (with
  // checksums off), or tree traversals like KnnQueryPruned would never
  // terminate.
  FlatFixture& fx = Fixture();
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(fx.blob);
  ASSERT_TRUE(info.ok());
  const FlatSectionEntry* nodes_entry = nullptr;
  for (const FlatSectionEntry& e : info->sections) {
    if (e.id == kFlatTreeNodes) nodes_entry = &e;
  }
  ASSERT_NE(nodes_entry, nullptr);
  std::string corrupt = fx.blob;
  auto* nodes = reinterpret_cast<CompressedTreeNode*>(
      corrupt.data() + nodes_entry->offset);
  bool patched = false;
  for (uint64_t i = 0; i < nodes_entry->count && !patched; ++i) {
    if (nodes[i].next_sibling != kInvalidId) {
      nodes[i].next_sibling = static_cast<uint32_t>(i);  // self-cycle
      patched = true;
    }
  }
  ASSERT_TRUE(patched) << "fixture tree has no sibling chains";
  OracleView::Options no_verify;
  no_verify.verify_checksums = false;
  EXPECT_FALSE(OracleView::FromBuffer(corrupt, no_verify).ok());
  EXPECT_TRUE(OracleView::FromBuffer(fx.blob, no_verify).ok());
}

TEST(FlatFormat, PilotHashShapeMismatchRejected) {
  // The probe trusts the pilot hash's shape: Slot() < records.size() holds
  // only if the meta counts match the sections. Each mismatch must fail the
  // open with a Status, checksums off (the meta CRC is not consulted).
  FlatFixture& fx = Fixture();
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(fx.blob);
  ASSERT_TRUE(info.ok());
  uint64_t meta_offset = 0;
  for (const FlatSectionEntry& e : info->sections) {
    if (e.id == kFlatMeta) meta_offset = e.offset;
  }
  ASSERT_NE(meta_offset, 0u);
  FlatMeta meta;
  std::memcpy(&meta, fx.blob.data() + meta_offset, sizeof(meta));
  ASSERT_GE(meta.hash_num_slots, meta.num_pairs);
  const auto patched = [&](auto&& edit) {
    FlatMeta bad_meta = meta;
    edit(bad_meta);
    std::string bad = fx.blob;
    std::memcpy(bad.data() + meta_offset, &bad_meta, sizeof(bad_meta));
    return bad;
  };
  const std::string cases[] = {
      patched([](FlatMeta& m) { m.hash_num_buckets += 1; }),
      patched([](FlatMeta& m) { m.hash_num_buckets = 0; }),
      patched([](FlatMeta& m) { m.hash_num_slots -= 1; }),
      patched([](FlatMeta& m) { m.num_pairs = m.hash_num_slots + 1; }),
  };
  for (const std::string& bad : cases) {
    StatusOr<OracleView> view = OracleView::FromBuffer(bad);
    ASSERT_FALSE(view.ok());
    EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument)
        << view.status().ToString();
  }
  EXPECT_TRUE(OracleView::FromBuffer(fx.blob).ok());
}

TEST(FlatFormat, PairSectionCountMismatchRejected) {
  // The key and distance sections must each hold hash_num_slots entries:
  // a probe reads both at a slot < hash_num_slots. A section table that
  // drops the last key or the last distance (size and count alike, with
  // every checksum resealed) must fail the open, even with checksums on.
  FlatFixture& fx = Fixture();
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(fx.blob);
  ASSERT_TRUE(info.ok());
  for (uint32_t id : {kFlatPairKeys, kFlatPairDistances}) {
    std::string bad = fx.blob;
    for (size_t i = 0; i < info->sections.size(); ++i) {
      FlatSectionEntry e = info->sections[i];
      if (e.id != id) continue;
      e.size -= e.size / e.count;
      e.count -= 1;
      std::memcpy(bad.data() + sizeof(FlatHeader) + i * sizeof(e), &e,
                  sizeof(e));
    }
    ResealFlatChecksums(&bad);
    StatusOr<OracleView> view =
        OracleView::FromBuffer(bad, {.verify_checksums = true});
    ASSERT_FALSE(view.ok()) << FlatSectionName(id);
    EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument)
        << view.status().ToString();
  }
}

TEST(FlatFormat, HeaderCorruptionRejected) {
  FlatFixture& fx = Fixture();
  {  // Bad magic.
    std::string bad = fx.blob;
    bad[0] = 'X';
    EXPECT_FALSE(OracleView::FromBuffer(bad).ok());
  }
  {  // Foreign-architecture endian tag (byte-reversed by a BE writer).
    std::string bad = fx.blob;
    const uint32_t reversed = 0x04030201u;
    std::memcpy(bad.data() + 8, &reversed, sizeof(reversed));
    StatusOr<OracleView> view = OracleView::FromBuffer(bad);
    ASSERT_FALSE(view.ok());
    EXPECT_NE(view.status().ToString().find("endianness"), std::string::npos);
  }
  {  // Unsupported future version.
    std::string bad = fx.blob;
    const uint32_t version = kFlatFormatVersion + 1;
    std::memcpy(bad.data() + 12, &version, sizeof(version));
    EXPECT_FALSE(OracleView::FromBuffer(bad).ok());
  }
  {  // Section table corruption (caught by the table CRC).
    std::string bad = fx.blob;
    bad[sizeof(FlatHeader) + 4] ^= 0xff;
    EXPECT_FALSE(OracleView::FromBuffer(bad).ok());
  }
}

TEST(FlatFormat, LoadRejectsNonOracleFile) {
  // Any file without the TSOFLAT magic is a clean InvalidArgument, whatever
  // its length: shorter than a magic, or a full header's worth of text.
  for (const std::string& bytes :
       {std::string(), std::string("abc"), std::string(4096, 'x')}) {
    const std::string path = testing::TempDir() + "/not_an_oracle.bin";
    {
      std::ofstream out(path, std::ios::binary);
      out << bytes;
    }
    StatusOr<OracleView> loaded =
        OracleView::Open(path, {.verify_checksums = true});
    ASSERT_FALSE(loaded.ok()) << bytes.size();
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace tso
