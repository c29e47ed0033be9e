#include "base/perfect_hash.h"

#include <algorithm>
#include <unordered_map>

#include <gtest/gtest.h>

#include "base/rng.h"

namespace tso {
namespace {

TEST(PerfectHash, EmptyTable) {
  StatusOr<PerfectHash> ph = PerfectHash::Build({});
  ASSERT_TRUE(ph.ok());
  EXPECT_EQ(ph->size(), 0u);
  EXPECT_FALSE(ph->Contains(0));
  EXPECT_FALSE(ph->Contains(123));
}

TEST(PerfectHash, SingleEntry) {
  StatusOr<PerfectHash> ph = PerfectHash::Build({{42, 7}});
  ASSERT_TRUE(ph.ok());
  uint64_t v;
  EXPECT_TRUE(ph->Lookup(42, &v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(ph->Lookup(41, &v));
}

TEST(PerfectHash, ManyEntriesAllFound) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  Rng rng(101);
  std::unordered_map<uint64_t, uint64_t> ref;
  while (ref.size() < 10000) {
    const uint64_t k = rng.NextU64();
    const uint64_t v = rng.NextU64();
    if (ref.emplace(k, v).second) entries.emplace_back(k, v);
  }
  StatusOr<PerfectHash> ph = PerfectHash::Build(entries);
  ASSERT_TRUE(ph.ok());
  EXPECT_EQ(ph->size(), 10000u);
  for (const auto& [k, v] : ref) {
    uint64_t got;
    ASSERT_TRUE(ph->Lookup(k, &got)) << k;
    EXPECT_EQ(got, v);
  }
}

TEST(PerfectHash, AbsentKeysRejected) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t k = 0; k < 1000; ++k) entries.emplace_back(k * 2, k);
  StatusOr<PerfectHash> ph = PerfectHash::Build(entries);
  ASSERT_TRUE(ph.ok());
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(ph->Contains(k * 2));
    EXPECT_FALSE(ph->Contains(k * 2 + 1));
  }
}

TEST(PerfectHash, AdversarialKeys) {
  // Sequential, high-bit, and power-of-two keys all in one table.
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t k = 0; k < 256; ++k) entries.emplace_back(k, k);
  for (int b = 8; b < 64; ++b) entries.emplace_back(1ull << b, b);
  StatusOr<PerfectHash> ph = PerfectHash::Build(entries);
  ASSERT_TRUE(ph.ok());
  for (const auto& [k, v] : entries) {
    uint64_t got;
    ASSERT_TRUE(ph->Lookup(k, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(PerfectHash, DuplicateKeysFail) {
  StatusOr<PerfectHash> ph = PerfectHash::Build({{5, 1}, {5, 2}});
  EXPECT_FALSE(ph.ok());
}

TEST(PerfectHash, DeterministicBySeed) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t k = 0; k < 100; ++k) entries.emplace_back(k * 31, k);
  StatusOr<PerfectHash> a = PerfectHash::Build(entries, 9);
  StatusOr<PerfectHash> b = PerfectHash::Build(entries, 9);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->view().mul1(), b->view().mul1());
  EXPECT_TRUE(std::ranges::equal(a->view().bucket_mul(),
                                 b->view().bucket_mul()));
}

TEST(PerfectHash, LinearSpace) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  Rng rng(7);
  for (uint64_t k = 0; k < 50000; ++k) {
    entries.emplace_back((k << 20) ^ rng.NextU64() % (1 << 20), k);
  }
  // Dedup keys.
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                entries.end());
  StatusOr<PerfectHash> ph = PerfectHash::Build(entries);
  ASSERT_TRUE(ph.ok());
  // FKS guarantees O(n) slots; we built with sum b_i^2 <= 4n + 8.
  EXPECT_LE(ph->SizeBytes(), entries.size() * 150 + 4096);
}

TEST(PerfectHash, RawRoundTrip) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t k = 0; k < 500; ++k) entries.emplace_back(k * k + 1, k);
  StatusOr<PerfectHash> ph = PerfectHash::Build(entries);
  ASSERT_TRUE(ph.ok());
  // A view rebuilt from the tables the flat writer reads (as a mapped
  // oracle file holds them) answers like the owning table.
  const PerfectHashView t = ph->view();
  const PerfectHashView copy(t.mul1(), t.num_buckets(), t.size(),
                             t.bucket_mul(), t.bucket_offset(), t.slot_key(),
                             t.slot_value(), t.slot_used());
  for (const auto& [k, v] : entries) {
    uint64_t got;
    ASSERT_TRUE(copy.Lookup(k, &got));
    EXPECT_EQ(got, v);
  }
  uint64_t unused;
  EXPECT_FALSE(copy.Lookup(0, &unused));
}

TEST(PerfectHash, PairKeyOrdering) {
  EXPECT_NE(PairKey(1, 2), PairKey(2, 1));
  EXPECT_EQ(PairKey(1, 2), PairKey(1, 2));
  EXPECT_EQ(PairKey(0xffffffff, 0), 0xffffffff00000000ull);
}

}  // namespace
}  // namespace tso
