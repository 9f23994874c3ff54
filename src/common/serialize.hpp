// Portable wire format for inter-task and control messages.
//
// The paper's Data Manager "provides data conversions that might be
// needed when an application execution environment includes heterogeneous
// machines".  We implement that as an explicit network byte order
// (big-endian) wire format: every value is converted on write and read
// regardless of host endianness, so a message produced on any machine is
// readable on any other.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace vdce::common {

/// Append-only encoder producing big-endian bytes.
class WireWriter {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 double carried as its big-endian bit pattern.
  void write_f64(double v);
  /// Length-prefixed (u32) byte string.
  void write_string(std::string_view s);
  /// Length-prefixed (u32) raw bytes.
  void write_bytes(std::span<const std::byte> bytes);
  /// Length-prefixed (u32) vector of doubles.
  void write_f64_vector(std::span<const double> values);
  /// The doubles alone, no count: the bytes of write_f64 on each, in
  /// one resize.
  void write_f64_span(std::span<const double> values);
  /// Room for `n` bytes in all, so a message of known size is written
  /// into one exact allocation.
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] const std::vector<std::byte>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::byte> buf_;
};

/// Decoder over a byte span; throws ParseError on truncated input.
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint16_t read_u16();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64() {
    return static_cast<std::int64_t>(read_u64());
  }
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] std::vector<std::byte> read_bytes();
  [[nodiscard]] std::vector<double> read_f64_vector();
  /// Fills `out` with doubles written by write_f64_span (no count);
  /// throws ParseError, reading nothing, unless all of them are there.
  void read_f64_span(std::span<double> out);
  /// Reads a u32 element count and throws ParseError unless that many
  /// elements of at least `min_element_bytes` each still fit in the
  /// message, so a garbage count can never size an allocation.
  [[nodiscard]] std::uint32_t read_count(std::size_t min_element_bytes);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw ParseError("wire message truncated");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace vdce::common
