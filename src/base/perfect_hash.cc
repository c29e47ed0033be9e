#include "base/perfect_hash.h"

#include <algorithm>

#include "base/logging.h"
#include "base/simd.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TSO_X86_SIMD 1
#include <immintrin.h>
#endif

namespace tso {

namespace {

constexpr uint64_t kAvalancheMul = 0xff51afd7ed558ccdULL;

void MixBatchScalar(const uint64_t* keys, const uint64_t* muls, size_t n,
                    uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = PerfectHashView::Mix(keys[i], muls[i]);
  }
}

#ifdef TSO_X86_SIMD

// 64x64 -> low-64 multiply from 32-bit halves: lo*lo plus the two cross
// products shifted up 32; the hi*hi product only feeds bits >= 64 and is
// dropped. Exact mod 2^64, matching the scalar `key * mul`.
inline __m128i MulLo64Sse2(__m128i a, __m128i b) {
  const __m128i lo = _mm_mul_epu32(a, b);
  const __m128i cross =
      _mm_add_epi64(_mm_mul_epu32(_mm_srli_epi64(a, 32), b),
                    _mm_mul_epu32(a, _mm_srli_epi64(b, 32)));
  return _mm_add_epi64(lo, _mm_slli_epi64(cross, 32));
}

void MixBatchSse2(const uint64_t* keys, const uint64_t* muls, size_t n,
                  uint64_t* out) {
  const __m128i avalanche =
      _mm_set1_epi64x(static_cast<long long>(kAvalancheMul));
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128i h = MulLo64Sse2(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(muls + i)));
    h = _mm_xor_si128(h, _mm_srli_epi64(h, 33));
    h = MulLo64Sse2(h, avalanche);
    h = _mm_xor_si128(h, _mm_srli_epi64(h, 33));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), h);
  }
  MixBatchScalar(keys + i, muls + i, n - i, out + i);
}

__attribute__((target("avx2"))) inline __m256i MulLo64Avx2(__m256i a,
                                                           __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) void MixBatchAvx2(const uint64_t* keys,
                                                  const uint64_t* muls,
                                                  size_t n, uint64_t* out) {
  const __m256i avalanche =
      _mm256_set1_epi64x(static_cast<long long>(kAvalancheMul));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i h = MulLo64Avx2(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(muls + i)));
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    h = MulLo64Avx2(h, avalanche);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  MixBatchScalar(keys + i, muls + i, n - i, out + i);
}

#endif  // TSO_X86_SIMD

}  // namespace

void PerfectHashView::MixBatch(const uint64_t* keys, const uint64_t* muls,
                               size_t n, uint64_t* out) {
#ifdef TSO_X86_SIMD
  switch (ActiveSimdLevel()) {
    case SimdLevel::kAvx2:
      MixBatchAvx2(keys, muls, n, out);
      return;
    case SimdLevel::kSse2:
      MixBatchSse2(keys, muls, n, out);
      return;
    case SimdLevel::kScalar:
      break;
  }
#endif
  MixBatchScalar(keys, muls, n, out);
}

void PerfectHashView::LookupBatch(const uint64_t* keys, size_t n,
                                  uint64_t* values, uint8_t* found) const {
  TSO_DCHECK(n <= kProbeBatchWidth);
  uint64_t issued_prefetches = 0;
  uint64_t hit_count = 0;
  if (num_keys_ == 0) {
    std::fill_n(found, n, uint8_t{0});
  } else {
    // Stage 1: first-level hash for every lane, then prefetch each lane's
    // bucket header (offset + second-level multiplier) before any is read.
    uint64_t h1[kProbeBatchWidth];
    uint64_t mul1s[kProbeBatchWidth];
    std::fill_n(mul1s, kProbeBatchWidth, mul1_);
    MixBatch(keys, mul1s, n, h1);
    uint32_t bucket[kProbeBatchWidth];
    for (size_t i = 0; i < n; ++i) {
      bucket[i] = static_cast<uint32_t>(h1[i] % num_buckets_);
      PrefetchRead(&bucket_offset_[bucket[i]]);
      PrefetchRead(&bucket_mul_[bucket[i]]);
      issued_prefetches += 2;
    }
    // Stage 2: read bucket extents, second-level hash in lock step (empty
    // lanes hash with a dummy multiplier to keep the lanes uniform), then
    // prefetch every live lane's slot lines before the first compare.
    uint64_t base[kProbeBatchWidth];
    uint64_t width[kProbeBatchWidth];
    uint64_t mul2[kProbeBatchWidth] = {};
    for (size_t i = 0; i < n; ++i) {
      base[i] = bucket_offset_[bucket[i]];
      const uint64_t next = bucket_offset_[bucket[i] + 1];
      width[i] = next > base[i] ? next - base[i] : 0;
      mul2[i] = width[i] != 0 ? bucket_mul_[bucket[i]] : 1;
    }
    uint64_t h2[kProbeBatchWidth];
    MixBatch(keys, mul2, n, h2);
    uint64_t slot[kProbeBatchWidth];
    for (size_t i = 0; i < n; ++i) {
      if (width[i] == 0) {  // empty (or corrupt non-monotone) bucket
        found[i] = 0;
        continue;
      }
      slot[i] = base[i] + h2[i] % width[i];
      if (slot[i] >= slot_used_.size()) {  // corrupt offset table
        found[i] = 0;
        continue;
      }
      found[i] = 1;
      PrefetchRead(&slot_used_[slot[i]]);
      PrefetchRead(&slot_key_[slot[i]]);
      PrefetchRead(&slot_value_[slot[i]]);
      issued_prefetches += 3;
    }
    // Stage 3: the actual compares, issued only after all prefetches.
    for (size_t i = 0; i < n; ++i) {
      if (!found[i]) continue;
      if (!slot_used_[slot[i]] || slot_key_[slot[i]] != keys[i]) {
        found[i] = 0;
        continue;
      }
      values[i] = slot_value_[slot[i]];
      hit_count++;
    }
  }
  if (ProbeCounters* pc = ProbeCounterScope::Active(); pc != nullptr) {
    pc->probes += n;
    pc->hits += hit_count;
    pc->batches++;
    pc->lanes += n;
    pc->prefetches += issued_prefetches;
  }
}

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
