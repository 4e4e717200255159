// Per-call cost of the crypto primitives at the log workloads' sizes,
// timed through the library's public functions.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// (metric name, microseconds per call) for SHA-256, Reed–Solomon and
/// Merkle at n fragments, k = f + 1 data fragments and `value_bytes`.
std::vector<std::pair<std::string, double>> crypto_per_call_us(
    std::size_t n, std::size_t k, std::size_t value_bytes);

}  // namespace perfbench
