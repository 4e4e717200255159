#include "crypto/reed_solomon.h"

#include <algorithm>

#include "common/errors.h"

namespace coincidence::crypto {

namespace gf256 {
namespace {

// log/exp tables for the primitive element 0x02 modulo x^8+x^4+x^3+x^2+1.
// exp_ is doubled so mul can skip the mod-255 reduction on the sum.
struct Tables {
  std::uint8_t log[256];
  std::uint8_t exp[510];

  Tables() {
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      exp[i + 255] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    log[0] = 0;  // never read: mul/inv guard zero explicitly
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

// The full 256×256 product table (64 KB): row a holds a·b for every b,
// so a codec inner loop multiplying by a fixed weight is one load per
// byte with no zero branches.
struct Products {
  std::uint8_t row[256][256];

  Products() {
    const Tables& t = tables();
    for (int a = 0; a < 256; ++a)
      for (int b = 0; b < 256; ++b)
        row[a][b] = (a == 0 || b == 0) ? 0 : t.exp[t.log[a] + t.log[b]];
  }
};

const std::uint8_t* mul_row(std::uint8_t a) {
  static const Products p;
  return p.row[a];
}

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) { return mul_row(a)[b]; }

std::uint8_t inv(std::uint8_t a) {
  COIN_REQUIRE(a != 0, "gf256::inv: zero has no inverse");
  const Tables& t = tables();
  return t.exp[255 - t.log[a]];
}

}  // namespace gf256

ReedSolomon::ReedSolomon(std::size_t n, std::size_t k) : n_(n), k_(k) {
  COIN_REQUIRE(k >= 1 && k <= n, "ReedSolomon: requires 1 <= k <= n");
  COIN_REQUIRE(n <= 255, "ReedSolomon: GF(2^8) caps n at 255 fragments");
  std::vector<std::uint8_t> data_xs(k_);
  for (std::size_t m = 0; m < k_; ++m)
    data_xs[m] = static_cast<std::uint8_t>(m);
  parity_rows_.reserve(n_ - k_);
  for (std::size_t i = k_; i < n_; ++i)
    parity_rows_.push_back(
        lagrange_row(data_xs, static_cast<std::uint8_t>(i)));
}

std::vector<std::uint8_t> ReedSolomon::lagrange_row(
    const std::vector<std::uint8_t>& xs, std::uint8_t target) const {
  const std::size_t k = xs.size();
  std::vector<std::uint8_t> row(k);
  for (std::size_t s = 0; s < k; ++s) {
    // c_s = Π_{l≠s} (target − x_l) / (x_s − x_l); in GF(2^8) subtraction
    // is xor, and target never coincides with an interpolation point.
    std::uint8_t num = 1;
    std::uint8_t den = 1;
    for (std::size_t l = 0; l < k; ++l) {
      if (l == s) continue;
      num = gf256::mul(num, target ^ xs[l]);
      den = gf256::mul(den, xs[s] ^ xs[l]);
    }
    row[s] = gf256::mul(num, gf256::inv(den));
  }
  return row;
}

std::vector<Bytes> ReedSolomon::encode(BytesView value) const {
  const std::size_t len = fragment_size(value.size());
  std::vector<Bytes> fragments(n_);
  for (std::size_t m = 0; m < k_; ++m) {
    fragments[m].assign(len, 0);
    const std::size_t off = m * len;
    const std::size_t avail =
        off < value.size() ? std::min(len, value.size() - off) : 0;
    std::copy_n(value.begin() + static_cast<std::ptrdiff_t>(off), avail,
                fragments[m].begin());
  }
  for (std::size_t i = k_; i < n_; ++i) {
    const std::vector<std::uint8_t>& row = parity_rows_[i - k_];
    Bytes& out = fragments[i];
    out.assign(len, 0);
    for (std::size_t m = 0; m < k_; ++m) {
      const std::uint8_t w = row[m];
      if (w == 0) continue;
      const std::uint8_t* prod = gf256::mul_row(w);
      const Bytes& data = fragments[m];
      for (std::size_t j = 0; j < len; ++j) out[j] ^= prod[data[j]];
    }
  }
  return fragments;
}

Bytes ReedSolomon::decode(
    const std::vector<std::pair<std::size_t, Bytes>>& fragments,
    std::size_t value_size) const {
  if (fragments.size() != k_)
    throw CodecError("ReedSolomon::decode: needs exactly k fragments");
  const std::size_t len = fragment_size(value_size);
  std::vector<bool> seen(n_, false);
  std::vector<std::uint8_t> xs(k_);
  for (std::size_t s = 0; s < k_; ++s) {
    const auto& [idx, frag] = fragments[s];
    if (idx >= n_)
      throw CodecError("ReedSolomon::decode: fragment index out of range");
    if (seen[idx])
      throw CodecError("ReedSolomon::decode: duplicate fragment index");
    seen[idx] = true;
    if (frag.size() != len)
      throw CodecError("ReedSolomon::decode: fragment length mismatch");
    xs[s] = static_cast<std::uint8_t>(idx);
  }

  Bytes value(value_size, 0);
  for (std::size_t m = 0; m < k_; ++m) {
    const std::size_t off = m * len;
    if (off >= value_size && value_size != 0) break;
    const std::size_t take =
        value_size == 0 ? 0 : std::min(len, value_size - off);
    if (seen[m]) {
      // Systematic fragment present: copy it straight through.
      for (std::size_t s = 0; s < k_; ++s)
        if (fragments[s].first == m)
          std::copy_n(fragments[s].second.begin(), take,
                      value.begin() + static_cast<std::ptrdiff_t>(off));
      continue;
    }
    const std::vector<std::uint8_t> row =
        lagrange_row(xs, static_cast<std::uint8_t>(m));
    std::uint8_t* out = value.data() + off;  // zero-initialized
    for (std::size_t s = 0; s < k_; ++s) {
      const std::uint8_t* prod = gf256::mul_row(row[s]);
      const Bytes& frag = fragments[s].second;
      for (std::size_t j = 0; j < take; ++j) out[j] ^= prod[frag[j]];
    }
  }
  return value;
}

}  // namespace coincidence::crypto
