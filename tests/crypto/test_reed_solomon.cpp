#include "crypto/reed_solomon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/errors.h"
#include "common/rng.h"

namespace coincidence::crypto {
namespace {

Bytes random_value(Rng& rng, std::size_t size) {
  Bytes v(size);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
  return v;
}

TEST(Gf256, MulInvRoundTrip) {
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256::mul(x, gf256::inv(x)), 1) << a;
  }
  EXPECT_EQ(gf256::mul(0, 37), 0);
  EXPECT_EQ(gf256::mul(37, 0), 0);
  EXPECT_THROW(gf256::inv(0), PreconditionError);
}

TEST(Gf256, MulMatchesSchoolbook) {
  // Carry-less multiply reduced mod x^8+x^4+x^3+x^2+1, checked against
  // the product table on every one of the 65,536 pairs.
  auto slow_mul = [](std::uint8_t a, std::uint8_t b) {
    std::uint16_t acc = 0;
    std::uint16_t aa = a;
    for (int i = 0; i < 8; ++i) {
      if (b & (1 << i)) acc ^= static_cast<std::uint16_t>(aa << i);
    }
    for (int i = 15; i >= 8; --i)
      if (acc & (1 << i)) acc ^= static_cast<std::uint16_t>(0x11d << (i - 8));
    return static_cast<std::uint8_t>(acc);
  };
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      ASSERT_EQ(gf256::mul(x, y), slow_mul(x, y)) << a << "*" << b;
    }
  }
}

TEST(ReedSolomon, SystematicPrefixIsTheValue) {
  ReedSolomon rs(7, 3);
  const Bytes value = bytes_of("systematic-check!");
  const auto frags = rs.encode(value);
  ASSERT_EQ(frags.size(), 7u);
  const std::size_t len = rs.fragment_size(value.size());
  Bytes joined;
  for (std::size_t m = 0; m < 3; ++m) {
    ASSERT_EQ(frags[m].size(), len);
    append(joined, frags[m]);
  }
  joined.resize(value.size());
  EXPECT_EQ(joined, value);
}

TEST(ReedSolomon, RoundTripAcrossGrids) {
  // (n, f) grids with k = f+1, value sizes straddling the fragment
  // boundary cases (empty, < k, exact multiple, ragged tail).
  const std::size_t grid[][2] = {{4, 1}, {7, 2}, {16, 5}, {48, 15}, {255, 84}};
  Rng rng(11);
  for (const auto& [n, f] : grid) {
    const std::size_t k = f + 1;
    ReedSolomon rs(n, k);
    for (std::size_t size : {std::size_t{0}, std::size_t{1}, k - 1, k, k + 1,
                             8 * k, 8 * k + 3, std::size_t{257}}) {
      const Bytes value = random_value(rng, size);
      const auto frags = rs.encode(value);
      ASSERT_EQ(frags.size(), n);
      // Decode from the k lexicographically-first fragments, the k last
      // (parity-heavy), and a random k-subset.
      std::vector<std::size_t> idx(n);
      std::iota(idx.begin(), idx.end(), 0u);
      for (int pick = 0; pick < 3; ++pick) {
        std::vector<std::size_t> chosen;
        if (pick == 0) {
          chosen.assign(idx.begin(), idx.begin() + static_cast<long>(k));
        } else if (pick == 1) {
          chosen.assign(idx.end() - static_cast<long>(k), idx.end());
        } else {
          std::vector<std::size_t> pool = idx;
          for (std::size_t s = 0; s < k; ++s) {
            const std::size_t r =
                s + static_cast<std::size_t>(rng.next_u64() %
                                             (pool.size() - s));
            std::swap(pool[s], pool[r]);
            chosen.push_back(pool[s]);
          }
        }
        std::vector<std::pair<std::size_t, Bytes>> subset;
        for (std::size_t i : chosen) subset.emplace_back(i, frags[i]);
        EXPECT_EQ(rs.decode(subset, size), value)
            << "n=" << n << " k=" << k << " size=" << size
            << " pick=" << pick;
      }
    }
  }
}

TEST(ReedSolomon, EveryKSubsetDecodesSmall) {
  // Exhaustive over all C(6,3) erasure patterns.
  ReedSolomon rs(6, 3);
  const Bytes value = bytes_of("exhaustive erasure patterns");
  const auto frags = rs.encode(value);
  for (std::size_t a = 0; a < 6; ++a)
    for (std::size_t b = a + 1; b < 6; ++b)
      for (std::size_t c = b + 1; c < 6; ++c) {
        std::vector<std::pair<std::size_t, Bytes>> subset = {
            {a, frags[a]}, {b, frags[b]}, {c, frags[c]}};
        EXPECT_EQ(rs.decode(subset, value.size()), value)
            << a << "," << b << "," << c;
      }
}

TEST(ReedSolomon, CorruptedFragmentChangesDecode) {
  // RS itself does not detect corruption (that is the Merkle layer's
  // job): a flipped byte in a used fragment must surface as a different
  // value, never as a silent pass-through of the original.
  ReedSolomon rs(7, 3);
  const Bytes value = bytes_of("integrity is the tree's job");
  auto frags = rs.encode(value);
  frags[4][0] ^= 0x5a;
  std::vector<std::pair<std::size_t, Bytes>> subset = {
      {1, frags[1]}, {4, frags[4]}, {6, frags[6]}};
  EXPECT_NE(rs.decode(subset, value.size()), value);
}

TEST(ReedSolomon, DecodeRejectsMalformedInput) {
  ReedSolomon rs(7, 3);
  const Bytes value = bytes_of("abcdef");
  const auto frags = rs.encode(value);
  using Subset = std::vector<std::pair<std::size_t, Bytes>>;
  Subset too_few = {{0, frags[0]}, {1, frags[1]}};
  EXPECT_THROW(rs.decode(too_few, value.size()), CodecError);
  Subset dup = {{0, frags[0]}, {0, frags[0]}, {1, frags[1]}};
  EXPECT_THROW(rs.decode(dup, value.size()), CodecError);
  Subset oob = {{0, frags[0]}, {1, frags[1]}, {7, frags[2]}};
  EXPECT_THROW(rs.decode(oob, value.size()), CodecError);
  Subset short_frag = {{0, frags[0]}, {1, frags[1]}, {2, Bytes{1}}};
  EXPECT_THROW(rs.decode(short_frag, value.size()), CodecError);
}

TEST(ReedSolomon, ConstructorEnforcesFieldLimits) {
  EXPECT_THROW(ReedSolomon(256, 8), PreconditionError);
  EXPECT_THROW(ReedSolomon(4, 0), PreconditionError);
  EXPECT_THROW(ReedSolomon(4, 5), PreconditionError);
  ReedSolomon ok(255, 1);  // degenerate repetition code is legal
  const auto frags = ok.encode(bytes_of("x"));
  for (const auto& f : frags) EXPECT_EQ(f, bytes_of("x"));
}

}  // namespace
}  // namespace coincidence::crypto
