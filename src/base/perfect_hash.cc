#include "base/perfect_hash.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>

namespace tso {
namespace {

constexpr int kMaxSeedAttempts = 8;
constexpr uint32_t kNumPilots = 1u << 16;

/// The smallest pilot that sends every key of `bucket` to a free slot, no
/// two keys to the same one, and marks those slots taken; nullopt if no
/// 16-bit pilot does.
std::optional<uint16_t> PlaceBucket(const PerfectHashView& hv,
                                    std::span<const uint64_t> bucket,
                                    std::vector<uint8_t>& taken,
                                    std::vector<uint64_t>& slots) {
  for (uint32_t p = 0; p < kNumPilots; ++p) {
    const uint16_t pilot = static_cast<uint16_t>(p);
    slots.clear();
    for (uint64_t key : bucket) {
      const uint64_t slot = hv.PilotSlot(key, pilot);
      if (taken[slot] != 0 ||
          std::find(slots.begin(), slots.end(), slot) != slots.end()) {
        break;
      }
      slots.push_back(slot);
    }
    if (slots.size() == bucket.size()) {
      for (uint64_t slot : slots) taken[slot] = 1;
      return pilot;
    }
  }
  return std::nullopt;
}

bool HasDuplicate(std::span<const uint64_t> bucket) {
  for (size_t i = 0; i < bucket.size(); ++i) {
    for (size_t j = i + 1; j < bucket.size(); ++j) {
      if (bucket[i] == bucket[j]) return true;
    }
  }
  return false;
}

}  // namespace

StatusOr<PerfectHash> PerfectHash::Build(std::span<const uint64_t> keys,
                                         uint64_t seed) {
  const uint64_t n = keys.size();
  if (n >= std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("perfect hash: too many keys");
  }
  const uint64_t num_slots = NumSlotsFor(n);
  const uint64_t num_buckets = NumBucketsFor(n);

  // Per-attempt scratch, reused across seeds.
  std::vector<uint32_t> bucket_of(n);
  std::vector<uint32_t> bucket_start(num_buckets + 1);
  std::vector<uint64_t> sorted_keys(n);  // grouped by bucket
  std::vector<uint32_t> order(num_buckets);
  std::vector<uint8_t> taken(num_slots);
  std::vector<uint64_t> slots;

  for (int attempt = 0; attempt < kMaxSeedAttempts; ++attempt) {
    PerfectHash ph;
    ph.seed_ = seed + static_cast<uint64_t>(attempt);
    ph.num_slots_ = num_slots;
    ph.pilots_.assign(num_buckets, 0);
    const PerfectHashView hv = ph.view();

    // Counting sort of the keys by bucket.
    std::fill(bucket_start.begin(), bucket_start.end(), 0);
    for (uint64_t i = 0; i < n; ++i) {
      bucket_of[i] = static_cast<uint32_t>(hv.Bucket(keys[i]));
      ++bucket_start[bucket_of[i] + 1];
    }
    std::partial_sum(bucket_start.begin(), bucket_start.end(),
                     bucket_start.begin());
    std::vector<uint32_t> fill(bucket_start.begin(), bucket_start.end() - 1);
    for (uint64_t i = 0; i < n; ++i) {
      sorted_keys[fill[bucket_of[i]]++] = keys[i];
    }

    // Largest buckets first, ties by bucket index: the order, and so the
    // layout, depends only on the key set.
    const auto size_of = [&](uint32_t b) {
      return bucket_start[b + 1] - bucket_start[b];
    };
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
      return size_of(x) > size_of(y);
    });

    std::fill(taken.begin(), taken.end(), 0);
    bool placed_all = true;
    for (uint32_t b : order) {
      const std::span<const uint64_t> bucket(
          sorted_keys.data() + bucket_start[b], size_of(b));
      if (bucket.empty()) break;  // sorted by size: the rest are empty too
      // Equal keys always share a bucket, so this finds every duplicate.
      if (HasDuplicate(bucket)) {
        return Status::InvalidArgument("perfect hash: duplicate key");
      }
      const std::optional<uint16_t> pilot =
          PlaceBucket(hv, bucket, taken, slots);
      if (!pilot.has_value()) {
        placed_all = false;
        break;
      }
      ph.pilots_[b] = *pilot;
    }
    if (placed_all) return ph;
  }
  return Status::Internal("perfect hash: no seed placed every bucket");
}

}  // namespace tso
