// E7 — crypto substrate microbenchmarks (google-benchmark).
//
// Quantifies the per-word costs behind §2's accounting and the DESIGN.md
// substitution table: SHA-256 / HMAC throughput, bignum modular
// exponentiation at several group sizes, the real DDH-VRF (eval+verify)
// vs the simulation-grade FastVrf, committee sampling, and Shamir
// share/reconstruct for the dealer-coin baseline. The JSON context's
// "sha256_backend" names the compress every SHA-256 above ran on.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "committee/sampler.h"
#include "common/rng.h"
#include "crypto/ddh_vrf.h"
#include "crypto/fast_vrf.h"
#include "crypto/hmac.h"
#include "crypto/prime_group.h"
#include "crypto/shamir.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"

using namespace coincidence;
using namespace coincidence::crypto;

namespace {

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(2);
  Bytes key = rng.next_bytes(32);
  Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

// One SHA-256 compress backend over 16 KiB (256 blocks), without padding
// or digest output: main() registers /portable always and /shani only
// when the CPU has SHA-NI, so one run prices both on the same machine.
void BM_Sha256Compress(benchmark::State& state, detail::CompressFn compress) {
  Rng rng(1);
  const Bytes data = rng.next_bytes(16384);
  std::uint32_t st[8] = {};
  for (auto _ : state) {
    compress(st, data.data(), data.size() / kSha256BlockSize);
    benchmark::DoNotOptimize(st);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}

void BM_BignumModExp(benchmark::State& state) {
  auto bits = static_cast<std::size_t>(state.range(0));
  PrimeGroup group = bits <= 256 ? PrimeGroup::generate(bits, 7)
                                 : PrimeGroup::rfc3526_1536();
  Rng rng(3);
  Bignum base = group.hash_to_group(rng.next_bytes(32));
  Bignum exp = Bignum::from_bytes_be(rng.next_bytes(group.byte_len())) %
               group.q();
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.exp(base, exp));
  }
}
BENCHMARK(BM_BignumModExp)->Arg(128)->Arg(256)->Arg(1536)
    ->Unit(benchmark::kMicrosecond);

PrimeGroup group_of_bits(std::size_t bits) {
  return bits <= 256 ? PrimeGroup::generate(bits, 9)
                     : PrimeGroup::rfc3526_1536();
}

void BM_DdhVrfEval(benchmark::State& state) {
  DdhVrf vrf(group_of_bits(static_cast<std::size_t>(state.range(0))));
  Rng rng(4);
  VrfKeyPair kp = vrf.keygen(rng);
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf.eval(kp.sk, bytes_of_u64(round++)));
  }
}
BENCHMARK(BM_DdhVrfEval)->Arg(128)->Arg(256)->Arg(1536)
    ->Unit(benchmark::kMicrosecond);

void BM_DdhVrfVerify(benchmark::State& state) {
  DdhVrf vrf(group_of_bits(static_cast<std::size_t>(state.range(0))));
  Rng rng(5);
  VrfKeyPair kp = vrf.keygen(rng);
  VrfOutput out = vrf.eval(kp.sk, bytes_of("round"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf.verify(kp.pk, bytes_of("round"), out));
  }
}
BENCHMARK(BM_DdhVrfVerify)->Arg(128)->Arg(256)->Arg(1536)
    ->Unit(benchmark::kMicrosecond);

// The Montgomery substrate behind the 1536-bit numbers above: one REDC
// multiply/square, the reference divmod multiply for contrast, and the
// two ladders DdhVrf::verify actually runs.
void BM_MontMul(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  const MontgomeryCtx& ctx = group.mont();
  Rng rng(21);
  Bignum a = ctx.to_mont(group.hash_to_group(rng.next_bytes(32)));
  Bignum b = ctx.to_mont(group.hash_to_group(rng.next_bytes(32)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.mont_mul(a, b));
  }
}
BENCHMARK(BM_MontMul);

void BM_MontSqr(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  const MontgomeryCtx& ctx = group.mont();
  Rng rng(22);
  Bignum a = ctx.to_mont(group.hash_to_group(rng.next_bytes(32)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.mont_sqr(a));
  }
}
BENCHMARK(BM_MontSqr);

void BM_MulModRef(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  Rng rng(23);
  Bignum a = group.hash_to_group(rng.next_bytes(32));
  Bignum b = group.hash_to_group(rng.next_bytes(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bignum::mul_mod(a, b, group.p()));
  }
}
BENCHMARK(BM_MulModRef);

void BM_BignumModExpRef(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  Rng rng(3);
  Bignum base = group.hash_to_group(rng.next_bytes(32));
  Bignum exp = Bignum::from_bytes_be(rng.next_bytes(group.byte_len())) %
               group.q();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bignum::mod_exp_ref(base, exp, group.p()));
  }
}
BENCHMARK(BM_BignumModExpRef)->Unit(benchmark::kMicrosecond);

void BM_DualExp(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  Rng rng(24);
  Bignum a = group.hash_to_group(rng.next_bytes(32));
  Bignum b = group.hash_to_group(rng.next_bytes(32));
  Bignum ea = Bignum::from_bytes_be(rng.next_bytes(group.byte_len())) %
              group.q();
  Bignum eb = Bignum::from_bytes_be(rng.next_bytes(group.byte_len())) %
              group.q();
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.dual_exp(a, ea, b, eb));
  }
}
BENCHMARK(BM_DualExp)->Unit(benchmark::kMicrosecond);

// The batch-verification engine: Π bᵢ^eᵢ with 128-bit exponents (the
// BGR combiner width), against which k chained dual ladders would pay
// full-width squaring chains per pair. Below 8 terms multi_exp itself
// falls back to the chained Straus ladder, so Arg(4) prices the
// crossover's cheap side.
void BM_MultiExp(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  Rng rng(26);
  auto k = static_cast<std::size_t>(state.range(0));
  std::vector<MultiExpTerm> terms(k);
  for (std::size_t i = 0; i < k; ++i) {
    terms[i].base = group.hash_to_group(rng.next_bytes(32));
    terms[i].exp = Bignum::from_bytes_be(rng.next_bytes(16));  // 128-bit
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.multi_exp(terms));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_MultiExp)->Arg(4)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_ExpGComb(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  Rng rng(25);
  Bignum e = Bignum::from_bytes_be(rng.next_bytes(group.byte_len())) %
             group.q();
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.exp_g(e));
  }
}
BENCHMARK(BM_ExpGComb)->Unit(benchmark::kMicrosecond);

void BM_FastVrfEval(benchmark::State& state) {
  auto registry = KeyRegistry::create_for(8, 11);
  FastVrf vrf(registry);
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf.eval(registry->sk_of(0), bytes_of_u64(round++)));
  }
}
BENCHMARK(BM_FastVrfEval);

void BM_FastVrfVerify(benchmark::State& state) {
  auto registry = KeyRegistry::create_for(8, 11);
  FastVrf vrf(registry);
  VrfOutput out = vrf.eval(registry->sk_of(0), bytes_of("round"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf.verify(registry->pk_of(0), bytes_of("round"), out));
  }
}
BENCHMARK(BM_FastVrfVerify);

void BM_CommitteeSample(benchmark::State& state) {
  auto registry = KeyRegistry::create_for(64, 13);
  auto vrf = std::make_shared<FastVrf>(registry);
  committee::Sampler sampler(vrf, registry, 0.3);
  std::uint64_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.sample(0, "seed-" + std::to_string(c++)));
  }
}
BENCHMARK(BM_CommitteeSample);

void BM_CommitteeVal(benchmark::State& state) {
  auto registry = KeyRegistry::create_for(64, 13);
  auto vrf = std::make_shared<FastVrf>(registry);
  committee::Sampler sampler(vrf, registry, 0.3);
  auto election = sampler.sample(0, "seed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.committee_val("seed", 0, election.proof));
  }
}
BENCHMARK(BM_CommitteeVal);

void BM_SignVerify(benchmark::State& state) {
  auto registry = KeyRegistry::create_for(8, 15);
  Signer signer(registry);
  Bytes sig = signer.sign(0, bytes_of("echo,1"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.verify(0, bytes_of("echo,1"), sig));
  }
}
BENCHMARK(BM_SignVerify);

void BM_ShamirShare(benchmark::State& state) {
  Rng rng(17);
  auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_share(12345, n, n / 3, rng));
  }
}
BENCHMARK(BM_ShamirShare)->Arg(16)->Arg(64)->Arg(256);

void BM_ShamirReconstruct(benchmark::State& state) {
  Rng rng(19);
  auto n = static_cast<std::size_t>(state.range(0));
  auto shares = shamir_share(12345, n, n / 3, rng);
  shares.resize(n / 3 + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_reconstruct(shares));
  }
}
BENCHMARK(BM_ShamirReconstruct)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): translates two repo-level
// convenience flags into google-benchmark's own before initialization.
//   --quick            cap min_time so the full suite finishes in seconds
//                      (the CI quick-bench smoke job)
//   --bench_json=FILE  emit the JSON report to FILE (the committed
//                      BENCH_crypto.json snapshot)
int main(int argc, char** argv) {
  std::vector<std::string> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc) + 2);
  passthrough.emplace_back(argv[0]);
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--bench_json=", 0) == 0) {
      json_path = arg.substr(std::string("--bench_json=").size());
    } else {
      passthrough.push_back(std::move(arg));
    }
  }
  if (quick) passthrough.emplace_back("--benchmark_min_time=0.02");
  if (!json_path.empty()) {
    passthrough.emplace_back("--benchmark_out=" + json_path);
    passthrough.emplace_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(passthrough.size());
  for (std::string& s : passthrough) args.push_back(s.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RegisterBenchmark("BM_Sha256Compress/portable",
                               BM_Sha256Compress, detail::compress_portable);
  if (detail::CompressFn shani = detail::compress_shani())
    benchmark::RegisterBenchmark("BM_Sha256Compress/shani", BM_Sha256Compress,
                                 shani);
  benchmark::AddCustomContext("sha256_backend", detail::compress_backend());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
