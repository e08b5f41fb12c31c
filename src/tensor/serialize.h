// Minimal binary (de)serialization for tensors and parameter sets. Only the
// tensor round-trip tests use it: solver snapshots (core::SgdSolver) and
// swfault checkpoints (fault/checkpoint.h) each write their own format.
// Format: magic, axis count, dims, then raw float data (little-endian host
// order; the simulator only targets one host).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace swcaffe::tensor {

void write_tensor(std::ostream& os, const Tensor& t);
void read_tensor(std::istream& is, Tensor& t);

/// Writes/reads a named parameter set (e.g. all learnable weights of a net).
void write_tensors(const std::string& path,
                   const std::vector<const Tensor*>& tensors);
void read_tensors(const std::string& path, std::vector<Tensor*>& tensors);

}  // namespace swcaffe::tensor
