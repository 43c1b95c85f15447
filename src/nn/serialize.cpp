#include "nn/serialize.h"

#include <istream>
#include <ostream>

#include "common/error.h"
#include "common/io.h"

namespace mandipass::nn {
namespace {

constexpr char kTensorTag[4] = {'T', 'N', 'S', 'R'};

}  // namespace

void write_u64(std::ostream& os, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  common::write_exact(os, buf, 8, "u64");
}

std::uint64_t read_u64(std::istream& is) {
  char buf[8];
  common::read_exact(is, buf, 8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return v;
}

void write_tag(std::ostream& os, const std::string& tag) {
  MANDIPASS_EXPECTS(!tag.empty());
  write_u64(os, tag.size());
  common::write_exact(os, tag.data(), tag.size(), "tag");
}

void expect_tag(std::istream& is, const std::string& tag) {
  MANDIPASS_EXPECTS(!tag.empty());
  const std::uint64_t len = read_u64(is);
  if (len != tag.size()) {
    throw SerializationError("tag length mismatch, expected '" + tag + "'");
  }
  std::string got(static_cast<std::size_t>(len), '\0');
  common::read_exact(is, got.data(), got.size(), "tag");
  if (got != tag) {
    throw SerializationError("tag mismatch, expected '" + tag + "' got '" + got + "'");
  }
}

void write_tensor(std::ostream& os, const Tensor& t) {
  MANDIPASS_EXPECTS(t.rank() > 0);
  common::write_exact(os, kTensorTag, 4, "tensor tag");
  write_u64(os, t.rank());
  for (std::size_t i = 0; i < t.rank(); ++i) {
    write_u64(os, t.dim(i));
  }
  common::write_exact(os, t.data(), t.size() * sizeof(float), "tensor data");
}

Tensor read_tensor(std::istream& is) {
  char tag[4];
  common::read_exact(is, tag, 4, "tensor tag");
  if (tag[0] != 'T' || tag[1] != 'N' || tag[2] != 'S' || tag[3] != 'R') {
    throw SerializationError("bad tensor tag");
  }
  const std::uint64_t rank = read_u64(is);
  if (rank == 0 || rank > 4) {
    throw SerializationError("bad tensor rank");
  }
  Shape shape(rank);
  std::size_t total = 1;
  for (auto& d : shape) {
    d = read_u64(is);
    if (d == 0 || d > (1ULL << 32)) {
      throw SerializationError("bad tensor dimension");
    }
    // Cap the running product each step: total <= 2^30 and d <= 2^32, so
    // total * d <= 2^62 never wraps std::size_t. Checking only after the
    // loop would let a hostile header overflow the product past 2^64.
    total *= d;
    if (total > (1ULL << 30)) {
      throw SerializationError("tensor too large");
    }
  }
  Tensor t(shape);
  common::read_exact(is, t.data(), t.size() * sizeof(float), "tensor data");
  return t;
}

}  // namespace mandipass::nn
