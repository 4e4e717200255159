#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "common/rng.h"

namespace coincidence::crypto {
namespace {

std::string hex_digest(BytesView data) {
  Digest d = sha256(data);
  return to_hex(BytesView(d.data(), d.size()));
}

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_digest({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_digest(bytes_of("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      hex_digest(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  Digest d = h.finish();
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding must spill into a second block.
  Bytes msg(64, 'x');
  Digest once = sha256(msg);
  Sha256 split;
  split.update(BytesView(msg.data(), 13));
  split.update(BytesView(msg.data() + 13, 51));
  EXPECT_EQ(once, split.finish());
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes leaves exactly one byte for 0x80 pad; 56 forces a new block.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
    Bytes msg(len, 'q');
    Digest once = sha256(msg);
    Sha256 inc;
    for (std::size_t i = 0; i < len; ++i)
      inc.update(BytesView(msg.data() + i, 1));
    EXPECT_EQ(once, inc.finish()) << "len=" << len;
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes msg = bytes_of("the quick brown fox jumps over the lazy dog");
  Sha256 h;
  h.update(BytesView(msg.data(), 10));
  h.update(BytesView(msg.data() + 10, msg.size() - 10));
  EXPECT_EQ(h.finish(), sha256(msg));
}

TEST(Sha256, FinishTwiceThrows) {
  Sha256 h;
  h.update(bytes_of("x"));
  h.finish();
  EXPECT_THROW(h.finish(), PreconditionError);
}

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 h;
  h.finish();
  EXPECT_THROW(h.update(bytes_of("x")), PreconditionError);
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256(bytes_of("a")), sha256(bytes_of("b")));
  EXPECT_NE(sha256(bytes_of("")), sha256(Bytes{0}));
}

TEST(Sha256, BytesHelperMatches) {
  Digest d = sha256(bytes_of("abc"));
  Bytes b = sha256_bytes(bytes_of("abc"));
  EXPECT_TRUE(std::equal(d.begin(), d.end(), b.begin(), b.end()));
}

// Hashes `msg` with a pinned backend, fed in random-size update() splits.
Digest split_digest(detail::CompressFn compress, BytesView msg, Rng& rng) {
  Sha256 h(compress);
  std::size_t off = 0;
  while (off < msg.size()) {
    const std::size_t take = std::min<std::size_t>(
        msg.size() - off, 1 + rng.next_u64() % 150);
    h.update(msg.subspan(off, take));
    off += take;
  }
  return h.finish();
}

TEST(Sha256, CompressBackendsAgree) {
  const detail::CompressFn shani = detail::compress_shani();
  if (shani == nullptr)
    GTEST_SKIP() << "no SHA-NI on this CPU/build: only the portable "
                    "compress exists here";
  EXPECT_STREQ(detail::compress_backend(), "shani");

  // FIPS 180-4 vectors through each backend directly.
  const std::pair<std::string, std::string> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"}};
  for (const auto& [msg, hex] : vectors) {
    for (detail::CompressFn fn : {detail::compress_portable, shani}) {
      Sha256 h(fn);
      h.update(bytes_of(msg));
      const Digest d = h.finish();
      EXPECT_EQ(to_hex(BytesView(d.data(), d.size())), hex) << msg;
    }
  }

  // Seeded fuzz over the padding edges and multi-block runs, each length
  // fed in several random split patterns.
  Rng rng(2024);
  for (std::size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 129u,
                          2048u, 4999u, 5000u}) {
    const Bytes msg = rng.next_bytes(len);
    for (int trial = 0; trial < 8; ++trial) {
      const Digest portable =
          split_digest(detail::compress_portable, msg, rng);
      EXPECT_EQ(split_digest(shani, msg, rng), portable)
          << "len=" << len << " trial=" << trial;
      EXPECT_EQ(sha256(msg), portable) << "len=" << len;
    }
  }
}

}  // namespace
}  // namespace coincidence::crypto
