#include "committee/sampler.h"

#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::committee {

Sampler::Sampler(std::shared_ptr<const crypto::Vrf> vrf,
                 std::shared_ptr<const crypto::KeyRegistry> registry,
                 double lambda_over_n)
    : vrf_(std::move(vrf)),
      registry_(std::move(registry)),
      lambda_over_n_(lambda_over_n) {
  COIN_REQUIRE(vrf_ != nullptr && registry_ != nullptr,
               "Sampler needs vrf and registry");
  COIN_REQUIRE(lambda_over_n_ > 0.0 && lambda_over_n_ <= 1.0,
               "Sampler: lambda/n must be in (0, 1]");
}

Bytes Sampler::vrf_input(std::string_view seed) const {
  Writer w;
  w.str("cmte").str(seed);
  return w.take();
}

Sampler::Election Sampler::sample(ProcessId i, const std::string& seed) const {
  crypto::VrfOutput out = vrf_->eval(registry_->sk_of(i), vrf_input(seed));
  bool sampled = crypto::vrf_value_as_unit_double(out.value) < lambda_over_n_;
  Writer w;
  w.blob(out.value).blob(out.proof);
  return {sampled, w.take()};
}

bool Sampler::committee_val(const std::string& seed, ProcessId i,
                            BytesView proof) const {
  if (!registry_->has(i)) return false;
  BytesView value, vrf_proof;
  try {
    Reader r(proof);
    value = r.blob_view();
    vrf_proof = r.blob_view();
    r.done();
  } catch (const CodecError&) {
    return false;
  }
  if (value.size() < 8) return false;
  if (!vrf_->verify(registry_->pk_of(i), vrf_input(seed), value, vrf_proof))
    return false;
  return crypto::vrf_value_as_unit_double(value) < lambda_over_n_;
}

void Sampler::committee_val_batch(std::span<const ValCheck> checks,
                                  std::vector<char>& out) const {
  out.assign(checks.size(), 0);
  // Structural pass, mirroring committee_val: checks that fail registry
  // lookup / decoding are rejected without entering the VRF batch.
  std::vector<Bytes> inputs(checks.size());  // owns the VRF input bytes
  std::vector<crypto::VrfBatchEntry> entries;
  std::vector<std::size_t> entry_of;  // entries[j] came from checks[entry_of[j]]
  entries.reserve(checks.size());
  entry_of.reserve(checks.size());
  std::vector<BytesView> values(checks.size());
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const ValCheck& c = checks[i];
    if (!registry_->has(c.id)) continue;
    BytesView value, vrf_proof;
    try {
      Reader r(c.proof);
      value = r.blob_view();
      vrf_proof = r.blob_view();
      r.done();
    } catch (const CodecError&) {
      continue;
    }
    if (value.size() < 8) continue;
    inputs[i] = vrf_input(c.seed);
    values[i] = value;
    entries.push_back(crypto::VrfBatchEntry{registry_->pk_of(c.id), inputs[i],
                                            value, vrf_proof});
    entry_of.push_back(i);
  }
  std::vector<char> verdicts;
  vrf_->batch_verify(entries, verdicts);
  for (std::size_t j = 0; j < entries.size(); ++j) {
    std::size_t i = entry_of[j];
    out[i] = (verdicts[j] &&
              crypto::vrf_value_as_unit_double(values[i]) < lambda_over_n_)
                 ? 1
                 : 0;
  }
}

CachingSampler::CachingSampler(
    std::shared_ptr<const crypto::Vrf> vrf,
    std::shared_ptr<const crypto::KeyRegistry> registry, double lambda_over_n)
    : Sampler(std::move(vrf), std::move(registry), lambda_over_n) {}

bool CachingSampler::committee_val(const std::string& seed, ProcessId i,
                                   BytesView proof) const {
  const ValCheck key{seed, i, proof};
  if (std::optional<bool> hit = memo_.lookup(key)) return *hit;
  const bool ok = Sampler::committee_val(seed, i, proof);
  memo_.store(key, ok);
  return ok;
}

void CachingSampler::committee_val_batch(std::span<const ValCheck> checks,
                                         std::vector<char>& out) const {
  out.assign(checks.size(), 0);
  std::vector<ValCheck> misses;
  std::vector<std::size_t> miss_of;  // misses[j] is checks[miss_of[j]]
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (std::optional<bool> hit = memo_.lookup(checks[i])) {
      out[i] = *hit ? 1 : 0;
    } else {
      misses.push_back(checks[i]);
      miss_of.push_back(i);
    }
  }
  if (misses.empty()) return;
  std::vector<char> verdicts;
  Sampler::committee_val_batch(misses, verdicts);
  for (std::size_t j = 0; j < misses.size(); ++j) {
    out[miss_of[j]] = verdicts[j];
    memo_.store(misses[j], verdicts[j] != 0);
  }
}

}  // namespace coincidence::committee
