#ifndef TSO_BASE_PERFECT_HASH_H_
#define TSO_BASE_PERFECT_HASH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "base/probe_stats.h"
#include "base/rng.h"
#include "base/status.h"

namespace tso {

/// Non-owning FKS lookup over pointer+count table views: the single
/// implementation of the two-level probe, shared by the owning PerfectHash
/// (heap-backed vectors) and the zero-copy OracleView (spans into a mapped
/// oracle file). A default-constructed view behaves as an empty table.
class PerfectHashView {
 public:
  PerfectHashView() = default;
  PerfectHashView(uint64_t mul1, uint32_t num_buckets, uint64_t num_keys,
                  std::span<const uint64_t> bucket_mul,
                  std::span<const uint32_t> bucket_offset,
                  std::span<const uint64_t> slot_key,
                  std::span<const uint64_t> slot_value,
                  std::span<const uint8_t> slot_used)
      : mul1_(mul1),
        num_buckets_(num_buckets),
        num_keys_(num_keys),
        bucket_mul_(bucket_mul),
        bucket_offset_(bucket_offset),
        slot_key_(slot_key),
        slot_value_(slot_value),
        slot_used_(slot_used) {}

  /// Returns true and sets *value if key is present. O(1): two Mix
  /// evaluations and one slot probe.
  ///
  /// The probe is hardened against untrusted tables: the slot index is
  /// bounds-checked before the arrays are touched, so a view over a
  /// corrupt/adversarial mapped file degrades to NotFound instead of an
  /// out-of-bounds read. For well-formed tables the guard branch is never
  /// taken (perfectly predicted), which keeps the mapped open path free of
  /// any O(table) validation scan.
  bool Lookup(uint64_t key, uint64_t* value) const {
    const bool found = LookupImpl(key, value);
    if (ProbeCounters* pc = ProbeCounterScope::Active(); pc != nullptr) {
      pc->probes++;
      if (found) pc->hits++;
    }
    return found;
  }

  size_t size() const { return num_keys_; }

  // The tables this view probes, in the order the flat oracle format stores
  // them (read by the flat writer, oracle/oracle_serde.cc).
  uint64_t mul1() const { return mul1_; }
  uint32_t num_buckets() const { return num_buckets_; }
  std::span<const uint64_t> bucket_mul() const { return bucket_mul_; }
  std::span<const uint32_t> bucket_offset() const { return bucket_offset_; }
  std::span<const uint64_t> slot_key() const { return slot_key_; }
  std::span<const uint64_t> slot_value() const { return slot_value_; }
  std::span<const uint8_t> slot_used() const { return slot_used_; }

  static uint64_t Mix(uint64_t key, uint64_t mul) {
    // Multiply-xorshift universal-ish hash (xxhash-style avalanche).
    uint64_t h = key * mul;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }

 private:
  bool LookupImpl(uint64_t key, uint64_t* value) const {
    if (num_keys_ == 0) return false;
    const uint32_t b = static_cast<uint32_t>(Mix(key, mul1_) % num_buckets_);
    const uint64_t base = bucket_offset_[b];
    const uint64_t next = bucket_offset_[b + 1];
    if (next <= base) return false;  // empty (or corrupt non-monotone) bucket
    const uint64_t slot = base + Mix(key, bucket_mul_[b]) % (next - base);
    if (slot >= slot_used_.size()) return false;  // corrupt offset table
    if (!slot_used_[slot] || slot_key_[slot] != key) return false;
    *value = slot_value_[slot];
    return true;
  }

  uint64_t mul1_ = 0;
  uint32_t num_buckets_ = 0;
  uint64_t num_keys_ = 0;
  std::span<const uint64_t> bucket_mul_;
  std::span<const uint32_t> bucket_offset_;
  std::span<const uint64_t> slot_key_;
  std::span<const uint64_t> slot_value_;
  std::span<const uint8_t> slot_used_;
};

/// Static perfect hash table from uint64 keys to uint64 values, built with
/// the FKS two-level scheme the paper cites ([7], CLRS §11.5): a first-level
/// universal hash splits the keys into n buckets; each bucket of size b gets
/// a collision-free second-level table of size b². Expected construction is
/// linear; lookups are two hash evaluations — the O(1) node-pair probe that
/// §3.3 and §3.4 rely on.
///
/// Keys must be distinct. Lookups of absent keys return NotFound (keys are
/// stored for verification). This is the owning build-time form; the probe
/// itself lives in PerfectHashView so a mapped oracle can share it without
/// materializing the tables.
class PerfectHash {
 public:
  PerfectHash() = default;

  /// Builds the table. `seed` makes construction deterministic.
  static StatusOr<PerfectHash> Build(
      const std::vector<std::pair<uint64_t, uint64_t>>& entries,
      uint64_t seed = 0x5eed);

  /// Returns true and sets *value if key is present.
  bool Lookup(uint64_t key, uint64_t* value) const {
    return view().Lookup(key, value);
  }
  bool Contains(uint64_t key) const {
    uint64_t unused;
    return Lookup(key, &unused);
  }

  size_t size() const { return raw_.num_keys; }
  /// Memory footprint of the index structures in bytes.
  size_t SizeBytes() const;

  /// The non-owning probe form over this table's storage.
  PerfectHashView view() const {
    return PerfectHashView(raw_.mul1, raw_.num_buckets, raw_.num_keys,
                           raw_.bucket_mul, raw_.bucket_offset, raw_.slot_key,
                           raw_.slot_value, raw_.slot_used);
  }

 private:
  struct Raw {
    uint64_t mul1;
    uint32_t num_buckets;
    uint64_t num_keys;
    std::vector<uint64_t> bucket_mul;
    std::vector<uint32_t> bucket_offset;  // size num_buckets + 1
    std::vector<uint64_t> slot_key;
    std::vector<uint64_t> slot_value;
    std::vector<uint8_t> slot_used;
  };

  static uint64_t Mix(uint64_t key, uint64_t mul) {
    return PerfectHashView::Mix(key, mul);
  }

  Raw raw_{};
};

/// Packs an ordered pair of 32-bit ids into the uint64 key space used for
/// node-pair hashing. The pair is ordered: Key(a, b) != Key(b, a).
inline uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace tso

#endif  // TSO_BASE_PERFECT_HASH_H_
