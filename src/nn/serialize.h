// Binary (de)serialisation helpers for tensors and layer state.
//
// Format: little-endian, each tensor is  [u32 rank][u64 dims...][f32 data...]
// preceded by a 4-byte tag so corrupted streams fail loudly instead of
// silently misaligning.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "nn/tensor.h"

namespace mandipass::nn {

/// Writes a tagged tensor.
void write_tensor(std::ostream& os, const Tensor& t);

/// Reads a tagged tensor; throws SerializationError on malformed input.
Tensor read_tensor(std::istream& is);

/// Writes / checks a fixed-length ASCII tag (layer names, file magic).
void write_tag(std::ostream& os, const std::string& tag);
void expect_tag(std::istream& is, const std::string& tag);

/// Raw scalar helpers.
void write_u64(std::ostream& os, std::uint64_t v);
std::uint64_t read_u64(std::istream& is);

}  // namespace mandipass::nn
