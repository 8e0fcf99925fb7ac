// Byte-level state serialization for deterministic checkpoints.
//
// StateWriter/StateReader are deliberately header-only and dependency-
// free: every layer of the stack (sim, bus, power, soc, jcvm) includes
// this header to implement its `saveState`/`loadState` pair without
// linking against the ckpt library. The encoding is fixed little-endian
// regardless of host, so an on-disk snapshot is portable across
// machines; doubles round-trip through their IEEE-754 bit pattern, so
// restored energy accumulators are bit-identical to the values saved —
// a hard requirement for the restore-equivalence suite, which compares
// femtojoule totals with operator== rather than a tolerance.
#ifndef SCT_CKPT_STATE_IO_H
#define SCT_CKPT_STATE_IO_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sct::ckpt {

/// Any malformed, truncated or version-skewed snapshot lands here —
/// a catchable error with a human-readable message, never UB.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class StateWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { putLe(v, 2); }
  void u32(std::uint32_t v) { putLe(v, 4); }
  void u64(std::uint64_t v) { putLe(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  /// IEEE-754 bit pattern: restores compare equal, -0.0 and NaN
  /// payloads included.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Length-prefixed string (u32 length + raw bytes).
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void putLe(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

class StateReader {
 public:
  StateReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit StateReader(const std::vector<std::uint8_t>& buf)
      : StateReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return takeLe(1) & 0xFFu; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(takeLe(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(takeLe(4)); }
  std::uint64_t u64() { return takeLe(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b() { return u8() != 0; }
  double f64() { return std::bit_cast<double>(u64()); }

  void bytes(void* dst, std::size_t n) {
    need(n);
    // memcpy with a null pointer is UB even for n == 0, and an empty
    // destination (e.g. an empty vector's data()) may be null.
    if (n == 0) return;
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw CheckpointError("checkpoint payload truncated: need " +
                            std::to_string(n) + " bytes, have " +
                            std::to_string(size_ - pos_));
    }
  }

  std::uint64_t takeLe(int n) {
    need(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(
                                                       i)])
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

} // namespace sct::ckpt

#endif // SCT_CKPT_STATE_IO_H
