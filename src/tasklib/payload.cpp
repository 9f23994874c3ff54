#include "tasklib/payload.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace vdce::tasklib {

using common::ParseError;
using common::StateError;
using common::WireReader;
using common::WireWriter;

namespace {
// A complex value travels as two doubles, real then imaginary: the
// array layout [complex.numbers] guarantees for std::complex storage.
std::span<const double> as_doubles(const std::vector<Complex>& v) {
  return {reinterpret_cast<const double*>(v.data()), 2 * v.size()};
}
std::span<double> as_doubles(std::vector<Complex>& v) {
  return {reinterpret_cast<double*>(v.data()), 2 * v.size()};
}
}  // namespace

std::string to_string(PayloadType t) {
  switch (t) {
    case PayloadType::kScalar:         return "scalar";
    case PayloadType::kVector:         return "vector";
    case PayloadType::kMatrix:         return "matrix";
    case PayloadType::kLuFactors:      return "lu_factors";
    case PayloadType::kComplexVector:  return "complex_vector";
    case PayloadType::kReportScans:    return "report_scans";
    case PayloadType::kDetectionScans: return "detection_scans";
    case PayloadType::kTracks:         return "tracks";
    case PayloadType::kThreats:        return "threats";
    case PayloadType::kText:           return "text";
  }
  return "unknown";
}

void Payload::require(PayloadType t) const {
  if (type_ != t) {
    throw StateError("payload type mismatch: have " + to_string(type_) +
                     ", want " + to_string(t));
  }
}

Payload Payload::of_scalar(double v) {
  WireWriter w;
  w.write_f64(v);
  return Payload(PayloadType::kScalar, w.take());
}

Payload Payload::of_vector(const std::vector<double>& v) {
  WireWriter w;
  w.write_f64_vector(v);
  return Payload(PayloadType::kVector, w.take());
}

Payload Payload::of_matrix(const Matrix& m) {
  WireWriter w;
  w.write_u32(static_cast<std::uint32_t>(m.rows()));
  w.write_u32(static_cast<std::uint32_t>(m.cols()));
  w.write_f64_span(m.data());
  return Payload(PayloadType::kMatrix, w.take());
}

Payload Payload::of_lu(const LuFactors& f) {
  WireWriter w;
  // n, the n*n factors, the n-entry permutation, its sign.
  w.reserve(4 + 8 * f.lu.data().size() + 4 * f.perm.size() + 1);
  w.write_u32(static_cast<std::uint32_t>(f.lu.rows()));
  w.write_f64_span(f.lu.data());
  for (std::size_t p : f.perm) w.write_u32(static_cast<std::uint32_t>(p));
  w.write_u8(f.perm_sign > 0 ? 1 : 0);
  return Payload(PayloadType::kLuFactors, w.take());
}

Payload Payload::of_complex_vector(const std::vector<Complex>& v) {
  WireWriter w;
  w.write_u32(static_cast<std::uint32_t>(v.size()));
  w.write_f64_span(as_doubles(v));
  return Payload(PayloadType::kComplexVector, w.take());
}

Payload Payload::of_report_scans(
    const std::vector<std::vector<SensorReport>>& scans) {
  WireWriter w;
  w.write_u32(static_cast<std::uint32_t>(scans.size()));
  for (const auto& scan : scans) {
    w.write_u32(static_cast<std::uint32_t>(scan.size()));
    for (const SensorReport& r : scan) {
      w.write_f64(r.x);
      w.write_f64(r.y);
      w.write_f64(r.intensity);
      w.write_f64(r.time_s);
    }
  }
  return Payload(PayloadType::kReportScans, w.take());
}

Payload Payload::of_detection_scans(
    const std::vector<std::vector<Detection>>& scans) {
  WireWriter w;
  w.write_u32(static_cast<std::uint32_t>(scans.size()));
  for (const auto& scan : scans) {
    w.write_u32(static_cast<std::uint32_t>(scan.size()));
    for (const Detection& d : scan) {
      w.write_f64(d.x);
      w.write_f64(d.y);
      w.write_f64(d.strength);
      w.write_f64(d.time_s);
    }
  }
  return Payload(PayloadType::kDetectionScans, w.take());
}

Payload Payload::of_tracks(const std::vector<Track>& tracks) {
  WireWriter w;
  w.write_u32(static_cast<std::uint32_t>(tracks.size()));
  for (const Track& t : tracks) {
    w.write_u32(t.id);
    w.write_f64(t.x);
    w.write_f64(t.y);
    w.write_f64(t.vx);
    w.write_f64(t.vy);
    w.write_f64(t.last_update_s);
    w.write_u32(static_cast<std::uint32_t>(t.misses));
    w.write_u32(static_cast<std::uint32_t>(t.hits));
  }
  return Payload(PayloadType::kTracks, w.take());
}

Payload Payload::of_threats(const std::vector<Threat>& threats) {
  WireWriter w;
  w.write_u32(static_cast<std::uint32_t>(threats.size()));
  for (const Threat& t : threats) {
    w.write_u32(t.track_id);
    w.write_f64(t.score);
  }
  return Payload(PayloadType::kThreats, w.take());
}

Payload Payload::of_text(const std::string& text) {
  WireWriter w;
  w.write_string(text);
  return Payload(PayloadType::kText, w.take());
}

std::vector<std::byte> Payload::to_wire() const {
  std::vector<std::byte> out;
  out.reserve(bytes_.size() + 1);
  out.push_back(std::byte{static_cast<std::uint8_t>(type_)});
  out.insert(out.end(), bytes_.begin(), bytes_.end());
  return out;
}

void Payload::write_wire(std::span<std::byte> out) const {
  if (out.size() != wire_size()) {
    throw StateError("write_wire buffer size mismatch");
  }
  out[0] = std::byte{static_cast<std::uint8_t>(type_)};
  if (!bytes_.empty()) {
    std::memcpy(out.data() + 1, bytes_.data(), bytes_.size());
  }
}

Payload Payload::from_wire(std::vector<std::byte> wire) {
  if (wire.empty()) throw ParseError("empty payload wire image");
  const auto tag = static_cast<std::uint8_t>(wire.front());
  if (tag < static_cast<std::uint8_t>(PayloadType::kScalar) ||
      tag > static_cast<std::uint8_t>(PayloadType::kText)) {
    throw ParseError("unknown payload type tag");
  }
  wire.erase(wire.begin());
  return Payload(static_cast<PayloadType>(tag), std::move(wire));
}

double Payload::as_scalar() const {
  require(PayloadType::kScalar);
  WireReader r(bytes_);
  return r.read_f64();
}

std::vector<double> Payload::as_vector() const {
  require(PayloadType::kVector);
  WireReader r(bytes_);
  return r.read_f64_vector();
}

Matrix Payload::as_matrix() const {
  require(PayloadType::kMatrix);
  WireReader r(bytes_);
  const std::uint32_t rows = r.read_u32();
  const std::uint32_t cols = r.read_count(std::size_t{8} * rows);  // columns
  Matrix m(rows, cols);
  r.read_f64_span(m.data());
  return m;
}

LuFactors Payload::as_lu() const {
  require(PayloadType::kLuFactors);
  WireReader r(bytes_);
  // n rows of n doubles plus a 4-byte permutation entry each.
  const std::uint32_t n = r.read_count(12);
  if (std::uint64_t{n} * n > r.remaining() / 8) {
    throw ParseError("lu factors exceed the message");
  }
  LuFactors f;
  f.lu = Matrix(n, n);
  r.read_f64_span(f.lu.data());
  f.perm.resize(n);
  for (auto& p : f.perm) p = r.read_u32();
  f.perm_sign = r.read_u8() != 0 ? 1 : -1;
  return f;
}

std::vector<Complex> Payload::as_complex_vector() const {
  require(PayloadType::kComplexVector);
  WireReader r(bytes_);
  std::vector<Complex> out(r.read_count(16));
  r.read_f64_span(as_doubles(out));
  return out;
}

std::vector<std::vector<SensorReport>> Payload::as_report_scans() const {
  require(PayloadType::kReportScans);
  WireReader r(bytes_);
  const std::uint32_t nscans = r.read_count(4);
  std::vector<std::vector<SensorReport>> out;
  out.reserve(nscans);
  for (std::uint32_t s = 0; s < nscans; ++s) {
    const std::uint32_t n = r.read_count(32);
    std::vector<SensorReport> scan;
    scan.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      SensorReport rep;
      rep.x = r.read_f64();
      rep.y = r.read_f64();
      rep.intensity = r.read_f64();
      rep.time_s = r.read_f64();
      scan.push_back(rep);
    }
    out.push_back(std::move(scan));
  }
  return out;
}

std::vector<std::vector<Detection>> Payload::as_detection_scans() const {
  require(PayloadType::kDetectionScans);
  WireReader r(bytes_);
  const std::uint32_t nscans = r.read_count(4);
  std::vector<std::vector<Detection>> out;
  out.reserve(nscans);
  for (std::uint32_t s = 0; s < nscans; ++s) {
    const std::uint32_t n = r.read_count(32);
    std::vector<Detection> scan;
    scan.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Detection d;
      d.x = r.read_f64();
      d.y = r.read_f64();
      d.strength = r.read_f64();
      d.time_s = r.read_f64();
      scan.push_back(d);
    }
    out.push_back(std::move(scan));
  }
  return out;
}

std::vector<Track> Payload::as_tracks() const {
  require(PayloadType::kTracks);
  WireReader r(bytes_);
  const std::uint32_t n = r.read_count(52);
  std::vector<Track> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Track t;
    t.id = r.read_u32();
    t.x = r.read_f64();
    t.y = r.read_f64();
    t.vx = r.read_f64();
    t.vy = r.read_f64();
    t.last_update_s = r.read_f64();
    t.misses = static_cast<int>(r.read_u32());
    t.hits = static_cast<int>(r.read_u32());
    out.push_back(t);
  }
  return out;
}

std::vector<Threat> Payload::as_threats() const {
  require(PayloadType::kThreats);
  WireReader r(bytes_);
  const std::uint32_t n = r.read_count(12);
  std::vector<Threat> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Threat t;
    t.track_id = r.read_u32();
    t.score = r.read_f64();
    out.push_back(t);
  }
  return out;
}

std::string Payload::as_text() const {
  require(PayloadType::kText);
  WireReader r(bytes_);
  return r.read_string();
}

}  // namespace vdce::tasklib
