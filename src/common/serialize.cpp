#include "common/serialize.hpp"

#include <bit>

namespace vdce::common {

namespace {
// Writes `v`'s bytes most-significant first.
template <typename T>
void put_be(std::vector<std::byte>& buf, T v) {
  for (int shift = (sizeof(T) - 1) * 8; shift >= 0; shift -= 8) {
    buf.push_back(std::byte{static_cast<std::uint8_t>(v >> shift)});
  }
}
}  // namespace

void WireWriter::write_u16(std::uint16_t v) { put_be(buf_, v); }
void WireWriter::write_u32(std::uint32_t v) { put_be(buf_, v); }
void WireWriter::write_u64(std::uint64_t v) { put_be(buf_, v); }

void WireWriter::write_f64(double v) {
  write_u64(std::bit_cast<std::uint64_t>(v));
}

void WireWriter::write_string(std::string_view s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void WireWriter::write_bytes(std::span<const std::byte> bytes) {
  write_u32(static_cast<std::uint32_t>(bytes.size()));
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void WireWriter::write_f64_vector(std::span<const double> values) {
  write_u32(static_cast<std::uint32_t>(values.size()));
  for (double v : values) write_f64(v);
}

std::uint8_t WireReader::read_u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t WireReader::read_u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v = static_cast<std::uint16_t>((v << 8) |
                                   static_cast<std::uint8_t>(data_[pos_++]));
  return v;
}

std::uint32_t WireReader::read_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v = (v << 8) | static_cast<std::uint8_t>(data_[pos_++]);
  return v;
}

std::uint64_t WireReader::read_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v = (v << 8) | static_cast<std::uint8_t>(data_[pos_++]);
  return v;
}

double WireReader::read_f64() { return std::bit_cast<double>(read_u64()); }

std::string WireReader::read_string() {
  const std::uint32_t n = read_u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::byte> WireReader::read_bytes() {
  const std::uint32_t n = read_u32();
  need(n);
  std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                             data_.begin() +
                                 static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::uint32_t WireReader::read_count(std::size_t min_element_bytes) {
  const std::uint32_t n = read_u32();
  if (min_element_bytes != 0 && n > remaining() / min_element_bytes) {
    throw ParseError("wire element count exceeds the message");
  }
  return n;
}

std::vector<double> WireReader::read_f64_vector() {
  const std::uint32_t n = read_count(8);
  std::vector<double> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(read_f64());
  return out;
}

}  // namespace vdce::common
