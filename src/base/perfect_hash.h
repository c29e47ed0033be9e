#ifndef TSO_BASE_PERFECT_HASH_H_
#define TSO_BASE_PERFECT_HASH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "base/status.h"

namespace tso {

/// Maps a 64-bit hash onto [0, n) with one multiply and a shift (Lemire's
/// "fastrange"): no division, and the result is < n for every hash, so a
/// table of n entries needs no bounds check behind it. n must be >= 1.
inline uint64_t FastRange(uint64_t hash, uint64_t n) {
  return static_cast<uint64_t>((static_cast<unsigned __int128>(hash) * n) >>
                               64);
}

/// Non-owning probe form of a pilot-table perfect hash (PTHash, Pibiri–Trani
/// SIGIR 2021; CHD, Belazzougui–Botelho–Dietzfelbinger ESA 2009): a key's
/// slot is
///
///   bucket = FastRange(Mix(key, bucket_mul), num_buckets)
///   slot   = FastRange(Mix(key ^ pilot[bucket] · φ, slot_mul), num_slots)
///
/// with both multipliers derived from one seed. The pilot enters before the
/// final Mix, not after it: FastRange reads only the top bits, so with
/// `Mix(key) ^ f(pilot)` two keys of one bucket whose hashes share their top
/// bits would collide under every pilot.
///
/// The table stores no keys: it maps each of the n build keys to a distinct
/// slot in [0, num_slots), and any other key to some slot. Callers store
/// their records at the slots and compare the probed record's own key
/// (NodePairSetView::Lookup), so one probe reads one pilot and one record.
///
/// The shape is validated once by whoever hands in the spans (num_slots >=
/// 1, at least one pilot); after that Slot() is branch-free and never
/// leaves [0, num_slots). A default-constructed view is the empty table:
/// one pilot, one slot.
class PerfectHashView {
 public:
  PerfectHashView() : PerfectHashView(0, 1, kZeroPilot) {}
  PerfectHashView(uint64_t seed, uint64_t num_slots,
                  std::span<const uint16_t> pilots)
      : seed_(seed),
        bucket_mul_(SeedMul(seed, 0)),
        slot_mul_(SeedMul(seed, 1)),
        num_slots_(num_slots),
        pilots_(pilots) {}

  uint64_t Slot(uint64_t key) const {
    return PilotSlot(key, pilots_[Bucket(key)]);
  }

  // The two steps of Slot(), exposed for the builder's pilot search.
  uint64_t Bucket(uint64_t key) const {
    return FastRange(Mix(key, bucket_mul_), pilots_.size());
  }
  uint64_t PilotSlot(uint64_t key, uint16_t pilot) const {
    return FastRange(Mix(key ^ (pilot * 0x9e3779b97f4a7c15ULL), slot_mul_),
                     num_slots_);
  }

  uint64_t seed() const { return seed_; }
  uint64_t num_slots() const { return num_slots_; }
  uint32_t num_buckets() const { return static_cast<uint32_t>(pilots_.size()); }
  std::span<const uint16_t> pilots() const { return pilots_; }

  static uint64_t Mix(uint64_t key, uint64_t mul) {
    // Multiply-xorshift universal-ish hash (xxhash-style avalanche).
    uint64_t h = key * mul;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }

 private:
  static constexpr uint16_t kZeroPilot[1] = {0};

  /// Odd multiplier number `which` of `seed` (splitmix64 finalizer).
  static uint64_t SeedMul(uint64_t seed, uint64_t which) {
    uint64_t z = seed + (which + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) | 1;
  }

  uint64_t seed_;
  uint64_t bucket_mul_;
  uint64_t slot_mul_;
  uint64_t num_slots_;
  std::span<const uint16_t> pilots_;
};

/// The owning, build-time form: a deterministic pilot search over distinct
/// uint64 keys. Keys are split into about three per bucket, the buckets are
/// placed largest first (ties by bucket index), and each gets the smallest
/// 16-bit pilot that sends all its keys to free, distinct slots of a table
/// about 1% larger than the key count. If some bucket exhausts its pilots
/// the build retries with the next seed; the seed that succeeded is part of
/// the result. The layout depends only on the key set and the seed, never
/// on the key order.
class PerfectHash {
 public:
  static constexpr uint64_t kDefaultSeed = 0x5eed;

  PerfectHash() = default;

  /// Builds the table. Duplicate keys are InvalidArgument.
  static StatusOr<PerfectHash> Build(std::span<const uint64_t> keys,
                                     uint64_t seed = kDefaultSeed);

  /// Table size for n keys: n / 0.99, and at least one slot.
  static uint64_t NumSlotsFor(uint64_t n) { return n + n / 99 + 1; }
  /// Bucket count for n keys: about three keys per bucket, at least one.
  static uint64_t NumBucketsFor(uint64_t n) { return n / 3 + 1; }

  uint64_t Slot(uint64_t key) const { return view().Slot(key); }
  PerfectHashView view() const {
    return PerfectHashView(seed_, num_slots_, pilots_);
  }
  uint64_t num_slots() const { return num_slots_; }

  /// Memory footprint of the pilot table in bytes.
  size_t SizeBytes() const {
    return sizeof(*this) + pilots_.size() * sizeof(uint16_t);
  }

 private:
  uint64_t seed_ = 0;
  uint64_t num_slots_ = 1;
  std::vector<uint16_t> pilots_ = {0};
};

/// Packs an ordered pair of 32-bit ids into the uint64 key space used for
/// node-pair hashing. The pair is ordered: Key(a, b) != Key(b, a).
inline uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace tso

#endif  // TSO_BASE_PERFECT_HASH_H_
