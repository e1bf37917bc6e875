#include "tensor/serialize.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

namespace shrinkbench {

namespace {
constexpr int64_t kTensorMagic = 0x5342544e53523031;  // "SBTNSR01"
}

void write_i64(std::ostream& os, int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

int64_t read_i64(std::istream& is) {
  int64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("read_i64: truncated stream");
  return v;
}

void write_u64(std::ostream& os, uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint64_t read_u64(std::istream& is) {
  uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("read_u64: truncated stream");
  return v;
}

void write_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

double read_f64(std::istream& is) {
  double v = 0.0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("read_f64: truncated stream");
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_i64(os, static_cast<int64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const int64_t n = read_i64(is);
  if (n < 0 || n > (1 << 20)) throw std::runtime_error("read_string: implausible length");
  std::string s(static_cast<size_t>(n), '\0');
  is.read(s.data(), n);
  if (!is) throw std::runtime_error("read_string: truncated stream");
  return s;
}

void write_tensor(std::ostream& os, const Tensor& t) {
  write_i64(os, kTensorMagic);
  write_i64(os, t.dim());
  for (int64_t d : t.shape()) write_i64(os, d);
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

namespace {

// Bytes between the read position and the end of a seekable stream; -1
// when the stream cannot seek.
int64_t bytes_left(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return -1;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.clear();
  is.seekg(here);
  return end == std::istream::pos_type(-1) ? -1 : static_cast<int64_t>(end - here);
}

}  // namespace

Tensor read_tensor(std::istream& is) {
  if (read_i64(is) != kTensorMagic) throw std::runtime_error("read_tensor: bad magic");
  const int64_t rank = read_i64(is);
  if (rank < 0 || rank > 8) throw std::runtime_error("read_tensor: implausible rank");
  Shape shape(static_cast<size_t>(rank));
  // A corrupted header must fail here, before the payload is allocated:
  // each dim is checked, then the element count, then its bytes against
  // what the stream still holds.
  int64_t numel = 1;
  for (auto& d : shape) {
    d = read_i64(is);
    if (d < 0) throw std::runtime_error("read_tensor: negative dimension");
    if (__builtin_mul_overflow(numel, d, &numel) ||
        numel > std::numeric_limits<int64_t>::max() / static_cast<int64_t>(sizeof(float))) {
      throw std::runtime_error("read_tensor: element count overflows");
    }
  }
  const int64_t payload = numel * static_cast<int64_t>(sizeof(float));
  const int64_t left = bytes_left(is);
  if (left >= 0 && payload > left) {
    throw std::runtime_error("read_tensor: payload of " + std::to_string(payload) +
                             " bytes exceeds the " + std::to_string(left) + " left in the stream");
  }
  Tensor t(shape);
  is.read(reinterpret_cast<char*>(t.data()), static_cast<std::streamsize>(payload));
  if (!is) throw std::runtime_error("read_tensor: truncated payload");
  return t;
}

}  // namespace shrinkbench
