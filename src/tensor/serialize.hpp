// Binary tensor (de)serialization.
//
// Used by the checkpoint store so that pretrained models are trained once
// and reused by every bench/example (the paper's "use the same initial
// model" recommendation, made literal). Format: magic, rank, dims, raw
// float32 payload, all little-endian.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "tensor/tensor.hpp"

namespace shrinkbench {

void write_tensor(std::ostream& os, const Tensor& t);
/// Throws std::runtime_error on a corrupted or truncated record. A bad
/// header (magic, rank, a negative dim, an element count that overflows,
/// or, on a seekable stream, a payload longer than the bytes left) fails
/// before the payload is allocated.
Tensor read_tensor(std::istream& is);

void write_string(std::ostream& os, const std::string& s);
std::string read_string(std::istream& is);

void write_i64(std::ostream& os, int64_t v);
int64_t read_i64(std::istream& is);

void write_u64(std::ostream& os, uint64_t v);
uint64_t read_u64(std::istream& is);

void write_f64(std::ostream& os, double v);
double read_f64(std::istream& is);

}  // namespace shrinkbench
