#include "base/perfect_hash.h"

#include <algorithm>

namespace tso {

StatusOr<PerfectHash> PerfectHash::Build(
    const std::vector<std::pair<uint64_t, uint64_t>>& entries, uint64_t seed) {
  PerfectHash ph;
  Raw& raw = ph.raw_;
  const size_t n = entries.size();
  raw.num_keys = n;
  raw.num_buckets = static_cast<uint32_t>(std::max<size_t>(1, n));

  Rng rng(seed);
  const uint32_t m = raw.num_buckets;
  std::vector<std::vector<size_t>> buckets(m);

  // First level: retry the multiplier until sum of squared bucket sizes is
  // linear (expected O(1) retries for a universal family).
  constexpr int kMaxAttempts = 64;
  bool ok_first = false;
  for (int attempt = 0; attempt < kMaxAttempts && !ok_first; ++attempt) {
    raw.mul1 = rng.NextU64() | 1;
    for (auto& b : buckets) b.clear();
    for (size_t i = 0; i < n; ++i) {
      buckets[Mix(entries[i].first, raw.mul1) % m].push_back(i);
    }
    size_t sum_sq = 0;
    for (const auto& b : buckets) sum_sq += b.size() * b.size();
    ok_first = sum_sq <= 4 * n + 8;
  }
  if (!ok_first) {
    return Status::Internal("perfect hash: first-level multiplier not found");
  }

  raw.bucket_mul.assign(m, 0);
  raw.bucket_offset.assign(m + 1, 0);
  for (uint32_t b = 0; b < m; ++b) {
    const size_t sz = buckets[b].size();
    raw.bucket_offset[b + 1] = raw.bucket_offset[b] +
                               static_cast<uint32_t>(sz * sz);
  }
  const size_t total_slots = raw.bucket_offset[m];
  raw.slot_key.assign(total_slots, 0);
  raw.slot_value.assign(total_slots, 0);
  raw.slot_used.assign(total_slots, 0);

  // Second level: per-bucket collision-free tables of quadratic size.
  std::vector<uint32_t> scratch;
  for (uint32_t b = 0; b < m; ++b) {
    const auto& bucket = buckets[b];
    if (bucket.empty()) continue;
    const uint32_t width = static_cast<uint32_t>(bucket.size() * bucket.size());
    const uint32_t base = raw.bucket_offset[b];
    bool placed = false;
    for (int attempt = 0; attempt < 1024 && !placed; ++attempt) {
      const uint64_t mul = rng.NextU64() | 1;
      scratch.clear();
      placed = true;
      for (size_t idx : bucket) {
        const uint64_t key = entries[idx].first;
        const uint32_t slot = static_cast<uint32_t>(Mix(key, mul) % width);
        if (std::find(scratch.begin(), scratch.end(), slot) != scratch.end()) {
          placed = false;
          break;
        }
        scratch.push_back(slot);
      }
      if (placed) {
        raw.bucket_mul[b] = mul;
        for (size_t k = 0; k < bucket.size(); ++k) {
          const size_t idx = bucket[k];
          const uint32_t slot = base + scratch[k];
          if (raw.slot_used[slot]) {
            return Status::Internal("perfect hash: duplicate key detected");
          }
          raw.slot_used[slot] = 1;
          raw.slot_key[slot] = entries[idx].first;
          raw.slot_value[slot] = entries[idx].second;
        }
      }
    }
    if (!placed) {
      // With distinct keys this is astronomically unlikely; duplicates are
      // the realistic cause.
      return Status::InvalidArgument(
          "perfect hash: second-level placement failed (duplicate keys?)");
    }
  }
  return ph;
}

size_t PerfectHash::SizeBytes() const {
  const Raw& raw = raw_;
  return sizeof(*this) + raw.bucket_mul.size() * sizeof(uint64_t) +
         raw.bucket_offset.size() * sizeof(uint32_t) +
         raw.slot_key.size() * sizeof(uint64_t) +
         raw.slot_value.size() * sizeof(uint64_t) +
         raw.slot_used.size() * sizeof(uint8_t);
}

}  // namespace tso
