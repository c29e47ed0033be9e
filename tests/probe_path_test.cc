// The query's one scalar probe path: OracleDistance probes each §3.4
// candidate as it is generated and stops at the first stored pair. Its
// answers must be bit-identical on every representation (built oracle,
// mapped view, pack, degraded pack), equal to the O(h²) naive scan, and
// equal to answers recorded before the probe path was rewritten; and its
// probe count must be exactly the position of the matching pair in the
// candidate sequence. Exhaustive over all n² pairs of a small fixture.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/crc32.h"
#include "base/histogram.h"
#include "base/probe_stats.h"
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

struct ProbeFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<DijkstraSolver> solver;
  std::unique_ptr<SeOracle> oracle;
  std::string flat_blob;
  std::unique_ptr<OracleView> view;
  std::string pack_blob;
  std::unique_ptr<PackView> pack;
  std::string degraded_blob;
  std::unique_ptr<PackView> degraded;

  ProbeFixture()
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

ProbeFixture& Fixture() {
  static ProbeFixture* fx = new ProbeFixture();
  return *fx;
}

uint64_t Bits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(double));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// All-pairs answers, recorded as (ok, bits-or-code) so error paths
/// (degraded kUnavailable) participate in the comparison too. `naive`
/// selects the O(h²) scan instead of the §3.4 query.
std::vector<std::pair<bool, uint64_t>> DistanceSweep(
    const DistanceSource& source, uint32_t n, bool naive = false) {
  std::vector<std::pair<bool, uint64_t>> out;
  QueryScratch scratch;
  out.reserve(static_cast<size_t>(n) * n);
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      StatusOr<double> d = naive ? source.DistanceNaive(s, t, scratch)
                                 : source.Distance(s, t, scratch);
      if (d.ok()) {
        out.emplace_back(true, Bits(*d));
      } else {
        out.emplace_back(false, static_cast<uint64_t>(d.status().code()));
      }
    }
  }
  return out;
}

TEST(ProbePath, DistanceBitIdenticalAcrossRepresentations) {
  ProbeFixture& fx = Fixture();
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
  const auto reference = DistanceSweep(MakeSource(*fx.view), n);
  for (const auto& s : sources) {
    const auto got = DistanceSweep(s.source, n);
    EXPECT_EQ(got, DistanceSweep(s.source, n, /*naive=*/true)) << s.name;
    // Healthy representations hold byte-identical records.
    if (std::string(s.name) != "degraded") {
      EXPECT_EQ(got, reference) << s.name;
    }
  }
}

TEST(ProbePath, AnswersMatchRecordedCrc) {
  // CRC-32 of the bits of all n² answers of the fixture oracle, in row-major
  // (s, t) order, recorded when the oracle started storing each unordered
  // pair once (a <= b): (s, t) and (t, s) now read the same record. Any
  // change to candidate order, early exit or the stored records shows up
  // here.
  constexpr uint32_t kRecordedCrc = 3271587171u;
  ProbeFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  for (const DistanceSource& source :
       {MakeSource(*fx.oracle), MakeSource(*fx.view), MakeSource(*fx.pack)}) {
    uint32_t crc = 0;
    for (const auto& [ok, bits] : DistanceSweep(source, n)) {
      ASSERT_TRUE(ok);
      crc = Crc32(&bits, sizeof(bits), crc);
    }
    EXPECT_EQ(crc, kRecordedCrc);
  }
}

/// The §3.4 candidate sequence for (s, t), enumerated here from the
/// ancestor arrays independently of the library's visitor: same layer,
/// then first-higher, then first-lower.
std::vector<std::pair<uint32_t, uint32_t>> CandidateSequence(
    const CompressedTreeView& tree, uint32_t s, uint32_t t) {
  std::vector<uint32_t> as, at;
  tree.AncestorArray(tree.leaf_of_poi(s), &as);
  tree.AncestorArray(tree.leaf_of_poi(t), &at);
  const int h = tree.height();
  std::vector<std::pair<uint32_t, uint32_t>> seq;
  for (int i = 0; i <= h; ++i) {
    if (as[i] != kInvalidId && at[i] != kInvalidId) {
      seq.emplace_back(as[i], at[i]);
    }
  }
  // first-higher: <O, O'> with O' in A_t, O in A_s at the layers from
  // Layer(parent(O')) up to (excluding) Layer(O').
  for (int i = 1; i <= h; ++i) {
    if (at[i] == kInvalidId || tree.node(at[i]).parent == kInvalidId) continue;
    for (int k = tree.node(tree.node(at[i]).parent).layer; k < i; ++k) {
      if (as[k] != kInvalidId) seq.emplace_back(as[k], at[i]);
    }
  }
  // first-lower: the mirror image.
  for (int i = 1; i <= h; ++i) {
    if (as[i] == kInvalidId || tree.node(as[i]).parent == kInvalidId) continue;
    for (int k = tree.node(tree.node(as[i]).parent).layer; k < i; ++k) {
      if (at[k] != kInvalidId) seq.emplace_back(as[i], at[k]);
    }
  }
  return seq;
}

TEST(ProbePath, ProbesStopAtFirstHit) {
  ProbeFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  // A stored pair answers a probe in either orientation.
  std::set<std::pair<uint32_t, uint32_t>> stored;
  for (const NodePair& p : fx.view->pair_set().pairs()) {
    stored.emplace(p.a, p.b);
    stored.emplace(p.b, p.a);
  }
  const CompressedTreeView& tree = fx.view->tree();
  for (const DistanceSource& source :
       {MakeSource(*fx.view), MakeSource(*fx.pack)}) {
    QueryScratch scratch;
    for (uint32_t s = 0; s < n; ++s) {
      for (uint32_t t = 0; t < n; ++t) {
        uint64_t expected = 0;
        if (s != t) {
          const auto seq = CandidateSequence(tree, s, t);
          while (expected < seq.size() && !stored.contains(seq[expected])) {
            ++expected;
          }
          ASSERT_LT(expected, seq.size()) << s << "->" << t;
          ++expected;  // 1-based position of the first stored pair
        }
        ProbeCounters counters;
        {
          ProbeCounterScope scope(&counters);
          ASSERT_TRUE(source.Distance(s, t, scratch).ok());
        }
        EXPECT_EQ(counters.probes, expected) << s << "->" << t;
        EXPECT_EQ(counters.hits, s != t ? 1u : 0u) << s << "->" << t;
        // The built oracle carries the ancestor table: no tree walks.
        EXPECT_EQ(counters.prefetches, 0u) << s << "->" << t;
      }
    }
  }
}

TEST(ProbePath, QueryEnginesMatchNaive) {
  ProbeFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  std::vector<std::pair<uint32_t, uint32_t>> queries;
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) queries.emplace_back(s, t);
  }
  for (const DistanceSource& source :
       {MakeSource(*fx.view), MakeSource(*fx.pack)}) {
    // Naive reference: all-pairs answers from the O(h²) scan...
    QueryScratch scratch;
    auto naive = [&](uint32_t s, uint32_t t) {
      StatusOr<double> d = source.DistanceNaive(s, t, scratch);
      TSO_CHECK(d.ok());
      return *d;
    };
    std::vector<double> ref_batch;
    for (const auto& [s, t] : queries) ref_batch.push_back(naive(s, t));
    std::vector<KnnResult> ref_knn;
    for (uint32_t p = 0; p < n; ++p) {
      if (p != 3) ref_knn.push_back({p, naive(3, p)});
    }
    std::sort(ref_knn.begin(), ref_knn.end(), KnnBefore);
    ref_knn.resize(7);
    std::vector<std::pair<double, uint32_t>> in_range;
    for (uint32_t p = 0; p < n; ++p) {
      if (p != 5 && naive(5, p) <= 900.0) in_range.emplace_back(naive(5, p), p);
    }
    std::sort(in_range.begin(), in_range.end());
    std::vector<uint32_t> ref_range;
    for (const auto& [d, p] : in_range) ref_range.push_back(p);

    // ...must be what every engine returns, bit for bit.
    const auto batch = DistanceBatch(source, queries, 1);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(*batch, ref_batch);
    const auto knn = KnnQuery(source, 3, 7);
    const auto pruned = KnnQueryPruned(source, 3, 7);
    ASSERT_TRUE(knn.ok() && pruned.ok());
    ASSERT_EQ(knn->size(), ref_knn.size());
    for (size_t i = 0; i < knn->size(); ++i) {
      EXPECT_EQ((*knn)[i].poi, ref_knn[i].poi);
      EXPECT_EQ((*knn)[i].distance, ref_knn[i].distance);
    }
    ASSERT_EQ(pruned->size(), ref_knn.size());
    for (size_t i = 0; i < pruned->size(); ++i) {
      EXPECT_EQ((*pruned)[i].poi, ref_knn[i].poi);
      EXPECT_EQ((*pruned)[i].distance, ref_knn[i].distance);
    }
    const auto range = RangeQuery(source, 5, 900.0);
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(*range, ref_range);
  }
}

TEST(ProbePath, AncestorTableMatchesWalk) {
  ProbeFixture& fx = Fixture();
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
