// Bounds-checked binary serialization primitives.
//
// Everything GulfStream puts on the (simulated) wire goes through Writer and
// comes back through Reader. Integers are little-endian fixed width; strings
// and vectors are u32-length-prefixed. Reader never throws and never reads
// out of bounds: any malformed input flips a sticky error flag and all
// subsequent reads return zero values, so decode functions check ok() once
// at the end. This mirrors how a hardened daemon treats untrusted frames.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gs::wire {

class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { bytes_.reserve(reserve); }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    append_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  // Out of line: GCC 12 at -O3 inlines the vector append into callers and
  // issues spurious stringop-overflow errors for it.
  void str(std::string_view s);

  void raw(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  // Writes a u32 element count followed by per-element encoding.
  template <typename T, typename Fn>
  void vec(const std::vector<T>& items, Fn&& encode_one) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const T& item : items) encode_one(*this, item);
  }

  // Patches a previously written u32 at `offset` (for frame length fields).
  void patch_u32(std::size_t offset, std::uint32_t v);

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

  // Rewinds to empty while keeping the allocation, so a long-lived scratch
  // Writer reaches a steady state with zero per-message heap traffic.
  void clear() { bytes_.clear(); }

 private:
  template <typename T>
  void append_le(T v) {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i)
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool boolean() { return u8() != 0; }

  std::string str();

  // Reads a u32 count then `decode_one` per element. Guards against a
  // hostile count by bounding it with remaining(); on overflow the error
  // flag is set and an empty vector returned.
  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& decode_one) {
    const std::uint32_t n = u32();
    std::vector<T> out;
    if (failed_) return out;
    if (n > remaining()) {  // each element needs >= 1 byte
      fail();
      return out;
    }
    out.reserve(n);
    for (std::uint32_t i = 0; i < n && !failed_; ++i)
      out.push_back(decode_one(*this));
    if (failed_) out.clear();
    return out;
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  // Declares decoding complete: ok() and the whole buffer consumed.
  [[nodiscard]] bool finish() { return ok() && at_end(); }

  void skip(std::size_t n);

  // Marks the input malformed, for checks beyond the byte layout such as an
  // enum value out of range.
  void fail() { failed_ = true; }

 private:

  template <typename T>
  T read_le() {
    if (failed_ || remaining() < sizeof(T)) {
      fail();
      return T{};
    }
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<std::uint64_t>(data_[pos_ + i])
                              << (8 * i)));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace gs::wire
