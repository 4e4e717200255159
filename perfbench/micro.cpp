#include "micro.h"

#include <algorithm>
#include <chrono>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/merkle.h"
#include "crypto/reed_solomon.h"
#include "crypto/sha256.h"

namespace perfbench {

namespace cc = coincidence;

namespace {

// Keeps results observable so the timed calls cannot be elided.
volatile std::uint64_t g_sink = 0;

/// Median over 5 batches of the per-call time of `op`, each batch
/// repeating it for at least 4 ms.
template <typename Op>
double per_call_us(Op op) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    std::size_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0;
    do {
      for (int i = 0; i < 8; ++i) g_sink = g_sink + op();
      calls += 8;
      elapsed = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count();
    } while (elapsed < 4000);
    batches.push_back(elapsed / static_cast<double>(calls));
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

}  // namespace

std::vector<std::pair<std::string, double>> crypto_per_call_us(
    std::size_t n, std::size_t k, std::size_t value_bytes) {
  cc::Rng rng(0x5eed);
  const cc::Bytes value = rng.next_bytes(value_bytes);
  const cc::crypto::ReedSolomon rs(n, k);
  const std::vector<cc::Bytes> fragments = rs.encode(value);
  // Decode from parity fragments only, so reconstruction does real work.
  std::vector<std::pair<std::size_t, cc::Bytes>> parity;
  for (std::size_t i = n - k; i < n; ++i) parity.emplace_back(i, fragments[i]);
  const cc::crypto::MerkleTree tree(fragments);
  const std::size_t leaf = n / 2;
  const std::vector<cc::crypto::Digest> branch = tree.branch(leaf);
  const cc::crypto::Digest root = tree.root();

  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("crypto.sha256_us_2k", per_call_us([&] {
    return std::uint64_t{cc::crypto::sha256(value)[0]};
  }));
  out.emplace_back("crypto.rs_build_us", per_call_us([&] {
    return std::uint64_t{cc::crypto::ReedSolomon(n, k).n()};
  }));
  out.emplace_back("crypto.rs_encode_us_2k", per_call_us([&] {
    return std::uint64_t{rs.encode(value).back()[0]};
  }));
  out.emplace_back("crypto.rs_decode_us_2k", per_call_us([&] {
    return std::uint64_t{rs.decode(parity, value.size())[0]};
  }));
  out.emplace_back("crypto.merkle_build_us", per_call_us([&] {
    return std::uint64_t{cc::crypto::MerkleTree(fragments).root()[0]};
  }));
  out.emplace_back("crypto.merkle_verify_us", per_call_us([&] {
    return std::uint64_t{cc::crypto::MerkleTree::verify(
        root, n, leaf, fragments[leaf], branch)};
  }));
  return out;
}

}  // namespace perfbench
