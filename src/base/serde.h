#ifndef TSO_BASE_SERDE_H_
#define TSO_BASE_SERDE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/status.h"

namespace tso {

/// Every serialized artifact (flat oracle sections and wire frames alike)
/// stores little-endian fixed-width integers and IEEE doubles. POD
/// arrays are written by memcpy, so the host must already be little-endian;
/// a big-endian port would need byte-swapping shims in this file. The
/// static_asserts below turn a silent garbage-read on such a port into a
/// compile error, and the on-disk endian tags turn a foreign-arch *file*
/// into a clean runtime error.
static_assert(std::endian::native == std::endian::little,
              "tso serialization requires a little-endian host");

/// Compile-time gate for types stored as raw bytes: trivially copyable and
/// free of invisible padding (sizeof must be fully accounted for by the
/// caller via explicit fields). Used by PutPodVector, FlatReader, and the
/// flat-format section structs.
template <typename T>
inline constexpr bool kIsPodSerializable =
    std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>;

/// Append-only binary encoder for oracle serialization.
///
/// Format: little-endian fixed-width integers and IEEE doubles, plus LEB128
/// varints for counts. The matching decoder is BinaryReader.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutFixed(&v, sizeof(v)); }
  void PutDouble(double v) { PutFixed(&v, sizeof(v)); }

  void PutVarint64(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }

  void PutString(const std::string& s) {
    PutVarint64(s.size());
    buffer_.append(s);
  }

  template <typename T>
  void PutPodVector(const std::vector<T>& v) {
    static_assert(kIsPodSerializable<T>,
                  "PutPodVector element must be trivially copyable");
    static_assert(std::endian::native == std::endian::little,
                  "raw POD bytes are defined as little-endian on disk");
    PutVarint64(v.size());
    if (!v.empty()) {
      const char* raw = reinterpret_cast<const char*>(v.data());
      buffer_.append(raw, raw + v.size() * sizeof(T));
    }
  }

  const std::string& data() const { return buffer_; }
  std::string&& Release() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  void PutFixed(const void* p, size_t n) {
    buffer_.append(reinterpret_cast<const char*>(p), n);
  }

  std::string buffer_;
};

/// Bounds-checked decoder matching BinaryWriter. All getters return an error
/// (and leave the output untouched) on truncated input.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data)
      : data_(data.data()), size_(data.size()) {}
  // The reader aliases the input buffer; a temporary would dangle as soon as
  // the full-expression ends.
  explicit BinaryReader(std::string&&) = delete;
  BinaryReader(const char* data, size_t size) : data_(data), size_(size) {}

  Status GetU8(uint8_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetI64(int64_t* out);
  Status GetDouble(double* out);
  Status GetVarint64(uint64_t* out);
  Status GetString(std::string* out);

  template <typename T>
  Status GetPodVector(std::vector<T>* out) {
    static_assert(kIsPodSerializable<T>);
    uint64_t n = 0;
    TSO_RETURN_IF_ERROR(GetVarint64(&n));
    if (n > (size_ - pos_) / sizeof(T)) {
      return Status::OutOfRange("truncated POD vector");
    }
    out->resize(n);
    if (n > 0) {
      std::memcpy(out->data(), data_ + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return Status::Ok();
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status GetFixed(void* out, size_t n);

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Zero-copy accessor over a frozen buffer (a mapped oracle file): instead
/// of decoding into freshly allocated vectors the way BinaryReader does,
/// FlatReader hands out bounds- and alignment-checked `std::span`s that
/// alias the buffer in place. The buffer must outlive every span (for a
/// mapped file, OracleView keeps the mapping alive).
///
/// All accessors are absolute-offset (no cursor): the flat format locates
/// data through a section table, not by sequential parsing.
class FlatReader {
 public:
  explicit FlatReader(std::string_view data) : data_(data) {}

  size_t size() const { return data_.size(); }

  /// Copies one POD T out of the buffer (for small headers where a copy is
  /// cheaper than alignment bookkeeping).
  template <typename T>
  Status ReadPod(size_t offset, T* out) const {
    static_assert(kIsPodSerializable<T>);
    if (offset > data_.size() || data_.size() - offset < sizeof(T)) {
      return Status::OutOfRange("flat buffer truncated");
    }
    std::memcpy(out, data_.data() + offset, sizeof(T));
    return Status::Ok();
  }

  /// Views `count` elements of T starting at `offset` without copying.
  /// Fails if the range leaves the buffer or the element address is
  /// misaligned for T (checked on the absolute address: an mmap base is
  /// page-aligned and a heap buffer at least pointer-aligned, but a
  /// deliberately offset buffer is rejected rather than read through an
  /// unaligned pointer).
  template <typename T>
  Status ViewArray(size_t offset, size_t count, std::span<const T>* out) const {
    static_assert(kIsPodSerializable<T>,
                  "zero-copy views require trivially copyable elements");
    static_assert(std::endian::native == std::endian::little,
                  "raw POD bytes are defined as little-endian on disk");
    if (offset > data_.size() ||
        count > (data_.size() - offset) / sizeof(T)) {
      return Status::OutOfRange("flat buffer truncated");
    }
    const char* base = data_.data() + offset;
    if (reinterpret_cast<uintptr_t>(base) % alignof(T) != 0) {
      return Status::InvalidArgument("flat section misaligned");
    }
    *out = std::span<const T>(reinterpret_cast<const T*>(base), count);
    return Status::Ok();
  }

  /// Raw byte view of [offset, offset + size).
  Status ViewBytes(size_t offset, size_t size, std::string_view* out) const {
    if (offset > data_.size() || data_.size() - offset < size) {
      return Status::OutOfRange("flat buffer truncated");
    }
    *out = data_.substr(offset, size);
    return Status::Ok();
  }

 private:
  std::string_view data_;
};

}  // namespace tso

#endif  // TSO_BASE_SERDE_H_
