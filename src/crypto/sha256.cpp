#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COINCIDENCE_SHA256_SHANI 1
#include <immintrin.h>
#endif

#include "common/errors.h"

namespace coincidence::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#ifdef COINCIDENCE_SHA256_SHANI
// Four rounds per sha256rnds2 pair; the state travels as the (ABEF, CDGH)
// lane split the instructions expect. W[16..63] come from msg1/msg2 over
// the four previous message quads, W[t-7] via alignr.
__attribute__((target("sha,sse4.1"))) void compress_shani_impl(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);    // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1b);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);

  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      if (q < 4) {
        w[q] = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(data + 16 * q)),
            kByteSwap);
      } else {
        __m128i next = _mm_sha256msg1_epu32(w[q & 3], w[(q + 1) & 3]);
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(w[(q + 3) & 3], w[(q + 2) & 3], 4));
        w[q & 3] = _mm_sha256msg2_epu32(next, w[(q + 3) & 3]);
      }
      __m128i msg = _mm_add_epi32(
          w[q & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * q)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1b);    // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);   // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xf0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}
#endif

}  // namespace

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn compress_shani() {
#ifdef COINCIDENCE_SHA256_SHANI
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"))
    return compress_shani_impl;
#endif
  return nullptr;
}

CompressFn compress() {
  static const CompressFn fn = [] {
    const CompressFn shani = compress_shani();
    return shani != nullptr ? shani : compress_portable;
  }();
  return fn;
}

const char* compress_backend() {
  return compress() == compress_portable ? "portable" : "shani";
}

}  // namespace detail

Sha256::Sha256(detail::CompressFn compress) : compress_(compress) {
  std::memcpy(state_.data(), kInit, sizeof(kInit));
}

void Sha256::update(BytesView data) {
  COIN_REQUIRE(!finished_, "Sha256: update after finish");
  if (data.empty()) return;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t len = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kSha256BlockSize - buffer_len_, len);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < kSha256BlockSize) return;
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t blocks = len / kSha256BlockSize;
  if (blocks > 0) {
    compress_(state_.data(), p, blocks);
    p += blocks * kSha256BlockSize;
    len -= blocks * kSha256BlockSize;
  }
  std::memcpy(buffer_.data(), p, len);
  buffer_len_ = len;
}

Digest Sha256::finish() {
  COIN_REQUIRE(!finished_, "Sha256: finish called twice");
  finished_ = true;

  // Pad with 0x80 and zeros to 56 mod 64 (spilling into a second block
  // when fewer than 9 bytes are left), then the 64-bit big-endian length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kSha256BlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0,
                kSha256BlockSize - buffer_len_);
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0,
              kSha256BlockSize - 8 - buffer_len_);
  std::uint64_t bit_len = total_len_ * 8;
  for (int i = 7; i >= 0; --i) {
    buffer_[kSha256BlockSize - 8 + i] =
        static_cast<std::uint8_t>(bit_len & 0xff);
    bit_len >>= 8;
  }
  compress_(state_.data(), buffer_.data(), 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Bytes sha256_bytes(BytesView data) {
  Digest d = sha256(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace coincidence::crypto
