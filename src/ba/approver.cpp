#include "ba/approver.h"

#include <algorithm>

#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::ba {

namespace {
// Word accounting (§6.1): init = value + election proof; echo adds a
// signature. The ok proof carries W (signature + election proof) pairs —
// the O(λ) words that make the approver O(n log² n) overall.
constexpr std::size_t kInitWords = 2;
constexpr std::size_t kEchoWords = 3;
std::size_t ok_words(std::size_t proof_entries) {
  return 2 + 2 * proof_entries;
}

Bytes make_echo_sign_bytes(const std::string& tag, Value v) {
  Writer w;
  w.str(tag).str("echo").u8(v);
  return w.take();
}
}  // namespace

Approver::Approver(Config cfg, Value input, DoneFn on_done)
    : cfg_(std::move(cfg)),
      input_(input),
      on_done_(std::move(on_done)),
      tag_init_(cfg_.tag + "/init"),
      tag_echo_(cfg_.tag + "/echo"),
      tag_ok_(cfg_.tag + "/ok"),
      init_seed_(cfg_.tag + "/init"),
      ok_seed_(cfg_.tag + "/ok"),
      echo_seeds_{cfg_.tag + "/echo/" + value_name(kZero),
                  cfg_.tag + "/echo/" + value_name(kOne),
                  cfg_.tag + "/echo/" + value_name(kBot)},
      echo_sign_bytes_{make_echo_sign_bytes(cfg_.tag, kZero),
                       make_echo_sign_bytes(cfg_.tag, kOne),
                       make_echo_sign_bytes(cfg_.tag, kBot)} {
  COIN_REQUIRE(is_valid_value(input), "Approver: input must be 0, 1 or bot");
  COIN_REQUIRE(cfg_.registry && cfg_.sampler && cfg_.signer,
               "Approver: missing crypto environment");
  COIN_REQUIRE(cfg_.params.W > cfg_.params.B,
               "Approver: W must exceed B (S5/S6 need the gap)");
  // Size every sender bitmap to n and every per-value echo store to W up
  // front — the steady state allocates nothing per message.
  for (Value v : {kZero, kOne, kBot}) {
    init_seen_[v] = sim::SenderSet(cfg_.params.n);
    echo_seen_[v] = sim::SenderSet(cfg_.params.n);
    echoes_[v].reserve(cfg_.params.W);
  }
  ok_seen_ = sim::SenderSet(cfg_.params.n);
  parse_scratch_.reserve(cfg_.params.W);
  distinct_scratch_.reserve(cfg_.params.W);
}

void Approver::start(sim::Context& ctx) {
  auto init = cfg_.sampler->sample(ctx.self(), init_seed());
  auto ok = cfg_.sampler->sample(ctx.self(), ok_seed());
  in_init_ = init.sampled;
  in_ok_ = ok.sampled;
  init_election_proof_ = std::move(init.proof);
  ok_election_proof_ = std::move(ok.proof);

  if (in_init_) {
    Writer w;
    w.u8(input_).blob(init_election_proof_);
    ctx.broadcast(tag_init_, w.take(), kInitWords);
  }
}

bool Approver::handle(sim::Context& ctx, const sim::Message& msg) {
  if (msg.tag == tag_init_) return handle_init(ctx, msg);
  if (msg.tag == tag_echo_) return handle_echo(ctx, msg);
  if (msg.tag == tag_ok_) return handle_ok(ctx, msg);
  return false;
}

bool Approver::handle_init(sim::Context& ctx, const sim::Message& msg) {
  Value v;
  BytesView election;
  try {
    Reader r(msg.payload);
    v = r.u8();
    election = r.blob_view();
    r.done();
  } catch (const CodecError&) {
    return true;
  }
  if (!is_valid_value(v)) return true;
  if (!cfg_.sampler->committee_val(init_seed(), msg.from, election))
    return true;
  if (!init_seen_[v].insert(msg.from)) return true;
  if (init_seen_[v].size() >= cfg_.params.B + 1) maybe_echo(ctx, v);
  return true;
}

void Approver::maybe_echo(sim::Context& ctx, Value v) {
  if (echoed_[v]) return;
  echoed_[v] = true;  // caches the negative so we don't re-sample
  auto election = cfg_.sampler->sample(ctx.self(), echo_seed(v));
  if (!election.sampled) return;
  Bytes sig = cfg_.signer->sign(ctx.self(), echo_sign_bytes(v));
  Writer w;
  w.u8(v).blob(election.proof).blob(sig);
  ctx.broadcast(tag_echo_, w.take(), kEchoWords);
}

bool Approver::handle_echo(sim::Context& ctx, const sim::Message& msg) {
  Value v;
  BytesView election, sig;
  try {
    Reader r(msg.payload);
    v = r.u8();
    election = r.blob_view();
    sig = r.blob_view();
    r.done();
  } catch (const CodecError&) {
    return true;
  }
  if (!is_valid_value(v)) return true;
  if (!cfg_.sampler->committee_val(echo_seed(v), msg.from, election))
    return true;
  if (!check_echo_signature(msg.from, v, sig)) return true;
  if (!echo_seen_[v].insert(msg.from)) return true;
  // Retain the delivered buffer by refcount; signature and election stay
  // views into it — no deep copy (the old code copied both blobs).
  echoes_[v].push_back({msg.from, msg.payload, sig, election});
  learn(v, {msg.from, sig, election});
  if (echoes_[v].size() >= cfg_.params.W) maybe_ok(ctx, v);
  return true;
}

void Approver::maybe_ok(sim::Context& ctx, Value v) {
  if (sent_ok_ || !in_ok_) return;
  sent_ok_ = true;
  Writer w;
  w.u8(v).blob(ok_election_proof_);
  const auto& proof = echoes_[v];
  w.u32(static_cast<std::uint32_t>(cfg_.params.W));
  for (std::size_t i = 0; i < cfg_.params.W; ++i) {
    w.u32(proof[i].sender).blob(proof[i].signature).blob(
        proof[i].election_proof);
  }
  ctx.broadcast(tag_ok_, w.take(), ok_words(cfg_.params.W));
}

bool Approver::parse_ok(BytesView payload, std::size_t W, Value& v,
                        BytesView& election,
                        std::vector<OkProofEntry>& entries,
                        std::vector<crypto::ProcessId>& ids) {
  entries.clear();
  try {
    Reader r(payload);
    v = r.u8();
    election = r.blob_view();
    if (r.u32() != W) return false;  // wrong proof arity
    for (std::size_t i = 0; i < W; ++i) {
      OkProofEntry e;
      e.sender = r.u32();
      e.signature = r.blob_view();
      e.election_proof = r.blob_view();
      entries.push_back(e);
    }
    r.done();
  } catch (const CodecError&) {
    return false;
  }
  if (!is_valid_value(v)) return false;
  // The embedded echoes must come from W *distinct* senders: sort the
  // ids and scan for an adjacent duplicate.
  ids.clear();
  for (const OkProofEntry& e : entries) ids.push_back(e.sender);
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

bool Approver::known(Value v, const OkProofEntry& e) const {
  const std::vector<KnownEntry>& table = known_[v];
  if (e.sender >= table.size() || !table[e.sender].set) return false;
  const KnownEntry& k = table[e.sender];
  return std::ranges::equal(k.signature, e.signature) &&
         std::ranges::equal(k.election_proof, e.election_proof);
}

void Approver::learn(Value v, const OkProofEntry& e) {
  if (e.sender >= cfg_.params.n) return;  // the table covers ids [0, n)
  std::vector<KnownEntry>& table = known_[v];
  if (table.empty()) table.resize(cfg_.params.n);
  KnownEntry& k = table[e.sender];
  if (!k.set) k = {e.signature, e.election_proof, true};
}

bool Approver::check_echo_signature(crypto::ProcessId signer, Value v,
                                    BytesView sig, bool* memo_hit) const {
  // A shared batcher answers from the run-wide signature memo: a
  // broadcast <echo,v> reaches n receivers but its HMAC is recomputed
  // once. Verdicts are identical to Signer::verify.
  const BytesView message(echo_sign_bytes(v));
  if (cfg_.batcher)
    return cfg_.batcher->check_signature({signer, message, sig}, memo_hit);
  return cfg_.signer->verify(signer, message, sig);
}

bool Approver::handle_ok(sim::Context& ctx, const sim::Message& msg) {
  // A sender already counted for the phase cannot be counted again, so
  // its repeat is dropped before any check (checking it first would end
  // in the same rejection).
  if (done_ || ok_seen_.contains(msg.from)) return true;
  Value v;
  BytesView election;
  // Proof entries borrow from the message buffer; nothing is copied. The
  // distinct-sender filter is the only stateless check cheaper than a
  // verification, so it runs first.
  if (!parse_ok(msg.payload, cfg_.params.W, v, election, parse_scratch_,
                distinct_scratch_))
    return true;

  // The sender's ok election, the W embedded echo elections, then the W
  // signatures, stopping at the first failure. A known entry skips both
  // of its checks.
  if (!cfg_.sampler->committee_val(ok_seed(), msg.from, election))
    return true;
  std::size_t reused = 0;
  for (const OkProofEntry& e : parse_scratch_) {
    if (known(v, e))
      ++reused;
    else if (!cfg_.sampler->committee_val(echo_seed(v), e.sender,
                                          e.election_proof))
      return true;
  }
  ctx.count(sim::Counter::kOkEntriesReused, reused);
  std::size_t sigs = 0, memo_hits = 0;
  bool sigs_ok = true;
  for (const OkProofEntry& e : parse_scratch_) {
    if (known(v, e)) continue;
    bool memo_hit = false;
    sigs_ok = check_echo_signature(e.sender, v, e.signature, &memo_hit);
    ++sigs;
    memo_hits += memo_hit;
    if (!sigs_ok) break;
  }
  if (sigs > 0) {
    ctx.count(sim::Counter::kSigVerifySigs, sigs);
    ctx.count(sim::Counter::kSigVerifyMemoHits, memo_hits);
    ctx.count(sim::Counter::kSigVerifyRejects, sigs_ok ? 0 : 1);
  }
  if (!sigs_ok) return true;

  // Count the ok (the guard above makes the sender new) and retain its
  // buffer for lock/certificate forwarding; its entries become known.
  ok_seen_.insert(msg.from);
  applied_oks_.push_back({msg.from, v, msg.payload});
  for (const OkProofEntry& e : parse_scratch_) learn(v, e);
  ok_mask_ |= static_cast<std::uint8_t>(1u << v);
  if (ok_seen_.size() == cfg_.params.W) {
    done_ = true;
    // Output event: the vals set encoded as a bitmask (bit v for value v).
    int mask = 0;
    for (Value val : {kZero, kOne, kBot})
      if (ok_mask_ & (1u << val)) {
        ok_values_.insert(val);
        mask |= 1 << static_cast<int>(val);
      }
    ctx.note_decide(cfg_.tag, mask, 0);
    if (on_done_) on_done_(ok_values_);
  }
  return true;
}

std::optional<Value> Approver::verify_ok_payload(
    const committee::Sampler& sampler, const crypto::Signer& signer,
    const committee::Params& params, const std::string& approver_tag,
    crypto::ProcessId sender, BytesView payload) {
  Value v;
  BytesView election;
  std::vector<OkProofEntry> entries;
  std::vector<crypto::ProcessId> ids;
  if (!parse_ok(payload, params.W, v, election, entries, ids))
    return std::nullopt;

  const std::string ok_seed = approver_tag + "/ok";
  const std::string echo_seed = approver_tag + "/echo/" + value_name(v);
  if (!sampler.committee_val(ok_seed, sender, election)) return std::nullopt;
  for (const OkProofEntry& e : entries)
    if (!sampler.committee_val(echo_seed, e.sender, e.election_proof))
      return std::nullopt;
  const Bytes expected = make_echo_sign_bytes(approver_tag, v);
  for (const OkProofEntry& e : entries)
    if (!signer.verify(e.sender, expected, e.signature)) return std::nullopt;
  return v;
}

const std::set<Value>& Approver::output() const {
  COIN_REQUIRE(done_, "Approver: output read before completion");
  return ok_values_;
}

}  // namespace coincidence::ba
