// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the hash underlying every derived primitive in the library:
// HMAC, HMAC-DRBG, the hash-to-group map of the DDH VRF, the FastVrf and
// the simulated signature scheme. Tested against the FIPS/NIST vectors.
//
// The block compression has two backends behind one function pointer,
// chosen once per process: the x86 SHA extensions (SHA-NI) when the
// build is x86-64 GCC/Clang and the CPU reports them, else the portable
// C++ rounds. The portable path is the reference: it is the only path
// on other CPUs, and the tests check the SHA-NI path against it.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace coincidence::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// The compression backends, exposed so tests and micro-benches can run
/// both on one machine.
namespace detail {
/// Folds `blocks` consecutive 64-byte blocks at `data` into `state`.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks);
/// The SHA-NI compress, or nullptr when the build or the CPU lacks it.
CompressFn compress_shani();
/// The backend every Sha256 uses by default, chosen once per process:
/// SHA-NI when available, else portable.
CompressFn compress();
/// "shani" or "portable", naming compress().
const char* compress_backend();
}  // namespace detail

/// Incremental SHA-256. Usage: Sha256 h; h.update(a); h.update(b);
/// Digest d = h.finish();  finish() may be called exactly once.
class Sha256 {
 public:
  /// `compress` pins a backend (tests); the default is detail::compress().
  explicit Sha256(detail::CompressFn compress = detail::compress());

  void update(BytesView data);
  Digest finish();

 private:
  detail::CompressFn compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kSha256BlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

/// One-shot convenience.
Digest sha256(BytesView data);

/// One-shot returning a Bytes (handy for serialization paths).
Bytes sha256_bytes(BytesView data);

}  // namespace coincidence::crypto
