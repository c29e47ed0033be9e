#include "base/perfect_hash.h"

#include <algorithm>
#include <random>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "base/rng.h"

namespace tso {
namespace {

/// The caller's half of the pilot hash, as NodePairSetView does it: every
/// key stored at its slot, and a lookup that compares the stored key.
struct KeyTable {
  PerfectHash hash;
  std::vector<uint64_t> key_at;
  std::vector<uint8_t> used;

  bool Contains(uint64_t key) const {
    const uint64_t slot = hash.Slot(key);
    return used[slot] != 0 && key_at[slot] == key;
  }
};

StatusOr<KeyTable> BuildTable(const std::vector<uint64_t>& keys,
                              uint64_t seed = PerfectHash::kDefaultSeed) {
  StatusOr<PerfectHash> hash = PerfectHash::Build(keys, seed);
  if (!hash.ok()) return hash.status();
  KeyTable table{std::move(*hash), {}, {}};
  table.key_at.assign(table.hash.num_slots(), 0);
  table.used.assign(table.hash.num_slots(), 0);
  for (uint64_t key : keys) {
    const uint64_t slot = table.hash.Slot(key);
    if (table.used[slot] != 0) {
      return Status::Internal("two keys share a slot");
    }
    table.used[slot] = 1;
    table.key_at[slot] = key;
  }
  return table;
}

TEST(PerfectHash, EmptyTable) {
  StatusOr<KeyTable> t = BuildTable({});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->hash.num_slots(), 1u);
  EXPECT_EQ(t->hash.view().num_buckets(), 1u);
  EXPECT_FALSE(t->Contains(0));
  EXPECT_FALSE(t->Contains(123));
  // A default view is the same empty table: every key maps to slot 0.
  const PerfectHashView empty;
  EXPECT_EQ(empty.Slot(0), 0u);
  EXPECT_EQ(empty.Slot(~0ull), 0u);
}

TEST(PerfectHash, SingleEntry) {
  StatusOr<KeyTable> t = BuildTable({42});
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->Contains(42));
  EXPECT_FALSE(t->Contains(41));
}

TEST(PerfectHash, ManyEntriesAllFound) {
  std::vector<uint64_t> keys;
  std::unordered_set<uint64_t> ref;
  Rng rng(101);
  while (ref.size() < 10000) {
    const uint64_t k = rng.NextU64();
    if (ref.insert(k).second) keys.push_back(k);
  }
  StatusOr<KeyTable> t = BuildTable(keys);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  std::set<uint64_t> slots;
  for (uint64_t k : keys) {
    ASSERT_TRUE(t->Contains(k)) << k;
    ASSERT_LT(t->hash.Slot(k), t->hash.num_slots());
    slots.insert(t->hash.Slot(k));
  }
  EXPECT_EQ(slots.size(), keys.size());  // perfect: no two keys share a slot
}

TEST(PerfectHash, AbsentKeysRejected) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 1000; ++k) keys.push_back(k * 2);
  StatusOr<KeyTable> t = BuildTable(keys);
  ASSERT_TRUE(t.ok());
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(t->Contains(k * 2));
    EXPECT_FALSE(t->Contains(k * 2 + 1));
  }
}

TEST(PerfectHash, AdversarialKeys) {
  // Sequential, power-of-two, and dense node-pair grid keys in one table.
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 256; ++k) keys.push_back(k);
  for (int b = 8; b < 64; ++b) keys.push_back(1ull << b);
  for (uint32_t a = 1; a < 60; ++a) {
    for (uint32_t b = 0; b < 60; ++b) keys.push_back(PairKey(a, b));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  StatusOr<KeyTable> t = BuildTable(keys);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  for (uint64_t k : keys) ASSERT_TRUE(t->Contains(k)) << k;
}

TEST(PerfectHash, DuplicateKeysFail) {
  StatusOr<PerfectHash> ph = PerfectHash::Build(std::vector<uint64_t>{5, 7, 5});
  ASSERT_FALSE(ph.ok());
  EXPECT_EQ(ph.status().code(), StatusCode::kInvalidArgument);
}

TEST(PerfectHash, DeterministicBySeed) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 3000; ++k) keys.push_back(k * 31);
  StatusOr<PerfectHash> a = PerfectHash::Build(keys, 9);
  // The same key set in another order: the layout depends only on the set.
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(5));
  StatusOr<PerfectHash> b = PerfectHash::Build(keys, 9);
  StatusOr<PerfectHash> c = PerfectHash::Build(keys, 10);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->view().seed(), b->view().seed());
  EXPECT_TRUE(std::ranges::equal(a->view().pilots(), b->view().pilots()));
  for (uint64_t k : keys) ASSERT_EQ(a->Slot(k), b->Slot(k));
  EXPECT_FALSE(std::ranges::equal(a->view().pilots(), c->view().pilots()));
}

TEST(PerfectHash, BytesPerKeyBound) {
  std::vector<uint64_t> keys;
  Rng rng(7);
  for (uint64_t k = 0; k < 50000; ++k) {
    keys.push_back((k << 20) ^ rng.NextU64() % (1 << 20));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  StatusOr<PerfectHash> ph = PerfectHash::Build(keys);
  ASSERT_TRUE(ph.ok());
  const double n = static_cast<double>(keys.size());
  // About 1% empty slots, and about 2/3 byte of pilot per key.
  EXPECT_LE(static_cast<double>(ph->num_slots()), 1.02 * n);
  EXPECT_LE(static_cast<double>(ph->SizeBytes()), 0.7 * n + 64);
  // With 16-byte node-pair records in the slots: under 18 bytes per pair.
  EXPECT_LE((16.0 * ph->num_slots() + ph->SizeBytes()) / n, 18.0);
}

TEST(PerfectHash, RawRoundTrip) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 500; ++k) keys.push_back(k * k + 1);
  StatusOr<PerfectHash> ph = PerfectHash::Build(keys);
  ASSERT_TRUE(ph.ok());
  // A view rebuilt from the fields the flat writer stores (as a mapped
  // oracle file holds them) maps every key to the same slot.
  const PerfectHashView t = ph->view();
  const std::vector<uint16_t> pilots(t.pilots().begin(), t.pilots().end());
  const PerfectHashView copy(t.seed(), t.num_slots(), pilots);
  for (uint64_t k : keys) EXPECT_EQ(copy.Slot(k), ph->Slot(k));
  EXPECT_EQ(copy.Slot(0), ph->Slot(0));
}

TEST(PerfectHash, PairKeyOrdering) {
  EXPECT_NE(PairKey(1, 2), PairKey(2, 1));
  EXPECT_EQ(PairKey(1, 2), PairKey(1, 2));
  EXPECT_EQ(PairKey(0xffffffff, 0), 0xffffffff00000000ull);
}

}  // namespace
}  // namespace tso
