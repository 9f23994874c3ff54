#include "common/serialize.hpp"

#include <bit>
#include <cstddef>

namespace vdce::common {

namespace {
// Writes `v`'s bytes most-significant first.
template <typename T>
void put_be(std::vector<std::byte>& buf, T v) {
  for (int shift = (sizeof(T) - 1) * 8; shift >= 0; shift -= 8) {
    buf.push_back(std::byte{static_cast<std::uint8_t>(v >> shift)});
  }
}

// The same 8 bytes, into storage already sized for them.  Spelled out
// byte by byte so that -O2, not only -O3, compiles each to one swap.
void store_be64(std::byte* out, std::uint64_t v) {
  out[0] = std::byte(v >> 56), out[1] = std::byte(v >> 48);
  out[2] = std::byte(v >> 40), out[3] = std::byte(v >> 32);
  out[4] = std::byte(v >> 24), out[5] = std::byte(v >> 16);
  out[6] = std::byte(v >> 8), out[7] = std::byte(v);
}

std::uint64_t load_be64(const std::byte* in) {
  const auto at = [in](int i) {
    return std::uint64_t{std::to_integer<std::uint8_t>(in[i])};
  };
  return at(0) << 56 | at(1) << 48 | at(2) << 40 | at(3) << 32 |
         at(4) << 24 | at(5) << 16 | at(6) << 8 | at(7);
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
  write_f64_span(values);
}

void WireWriter::write_f64_span(std::span<const double> values) {
  const std::size_t at = buf_.size();
  buf_.resize(at + 8 * values.size());
  std::byte* out = buf_.data() + at;
  for (double v : values) {
    store_be64(out, std::bit_cast<std::uint64_t>(v));
    out += 8;
  }
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
  const std::uint64_t v = load_be64(data_.data() + pos_);
  pos_ += 8;
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
  std::vector<double> out(read_count(8));
  read_f64_span(out);
  return out;
}

void WireReader::read_f64_span(std::span<double> out) {
  need(8 * out.size());
  const std::byte* in = data_.data() + pos_;
  for (double& v : out) {
    v = std::bit_cast<double>(load_be64(in));
    in += 8;
  }
  pos_ += 8 * out.size();
}

}  // namespace vdce::common
