#include "crypto/signer.h"

#include "common/errors.h"
#include "crypto/hmac.h"

namespace coincidence::crypto {

Signer::Signer(std::shared_ptr<const KeyRegistry> registry)
    : registry_(std::move(registry)) {
  COIN_REQUIRE(registry_ != nullptr, "Signer needs a key registry");
}

Bytes Signer::sign(ProcessId id, BytesView message) const {
  Bytes tagged = concat({bytes_of("sig"), message});
  return hmac_sha256_bytes(registry_->sk_of(id), tagged);
}

bool Signer::verify(ProcessId id, BytesView message, BytesView sig) const {
  if (!registry_->has(id)) return false;
  Bytes tagged = concat({bytes_of("sig"), message});
  Digest expect = hmac_sha256(registry_->sk_of(id), tagged);
  return ct_equal(BytesView(expect.data(), expect.size()), sig);
}

}  // namespace coincidence::crypto
