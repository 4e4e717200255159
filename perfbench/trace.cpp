#include "trace.h"

#include <string_view>

namespace perfbench {

namespace cc = coincidence;

const char* layer_name(int layer) {
  switch (layer) {
    case kRbcInitial: return "ba.rbc.initial_s";
    case kRbcEcho: return "ba.rbc.echo_s";
    case kRbcReady: return "ba.rbc.ready_s";
    case kApproverInit: return "ba.approver.init_s";
    case kApproverEcho: return "ba.approver.echo_s";
    case kApproverOk: return "ba.approver.ok_s";
    case kCoin: return "coin.whp_coin_s";
    case kSkip: return "ba.ba_whp.skip_s";
    case kOtherHandler: return "ba.other_s";
    case kSampler: return "committee.sampler_s";
    case kVrf: return "crypto.vrf_s";
  }
  return "?";
}

double Tracer::handler_total_s() const {
  double s = 0;
  for (int l = 0; l < kFirstInterfaceLayer; ++l) s += total_s(l);
  return s;
}

// --- TimedVrf -------------------------------------------------------------

cc::crypto::VrfKeyPair TimedVrf::keygen(cc::Rng& rng) const {
  Span s(t_, kVrf);
  return inner_->keygen(rng);
}

cc::crypto::VrfOutput TimedVrf::eval(cc::BytesView sk,
                                     cc::BytesView input) const {
  Span s(t_, kVrf);
  return inner_->eval(sk, input);
}

bool TimedVrf::verify(cc::BytesView pk, cc::BytesView input,
                      const cc::crypto::VrfOutput& out) const {
  Span s(t_, kVrf);
  return inner_->verify(pk, input, out);
}

bool TimedVrf::verify(cc::BytesView pk, cc::BytesView input,
                      cc::BytesView value, cc::BytesView proof) const {
  Span s(t_, kVrf);
  return inner_->verify(pk, input, value, proof);
}

void TimedVrf::batch_verify(std::span<const cc::crypto::VrfBatchEntry> entries,
                            std::vector<char>& out) const {
  Span s(t_, kVrf);
  inner_->batch_verify(entries, out);
}

// --- TimedSampler ---------------------------------------------------------

cc::committee::Sampler::Election TimedSampler::sample(
    cc::crypto::ProcessId i, const std::string& seed) const {
  Span s(t_, kSampler);
  return inner_->sample(i, seed);
}

bool TimedSampler::committee_val(const std::string& seed,
                                 cc::crypto::ProcessId i,
                                 cc::BytesView proof) const {
  Span s(t_, kSampler);
  return inner_->committee_val(seed, i, proof);
}

void TimedSampler::committee_val_batch(std::span<const ValCheck> checks,
                                       std::vector<char>& out) const {
  Span s(t_, kSampler);
  inner_->committee_val_batch(checks, out);
}

// --- TracedProcess --------------------------------------------------------

namespace {

/// The handler layer of a tag, from its last two components:
/// "<...>/rbc/echo", "<...>/a2/ok", "<...>/coin/first", "<...>/skip".
int classify_tag(const std::string& tag) {
  const std::string_view t(tag);
  const std::size_t last_slash = t.rfind('/');
  if (last_slash == std::string_view::npos) return kOtherHandler;
  const std::string_view last = t.substr(last_slash + 1);
  if (last == "skip" || last == "decided") return kSkip;
  const std::size_t prev_slash =
      last_slash == 0 ? std::string_view::npos : t.rfind('/', last_slash - 1);
  const std::size_t start =
      prev_slash == std::string_view::npos ? 0 : prev_slash + 1;
  const std::string_view parent = t.substr(start, last_slash - start);
  if (parent == "rbc") {
    if (last == "initial") return kRbcInitial;
    if (last == "echo") return kRbcEcho;
    if (last == "ready") return kRbcReady;
  } else if (parent == "a1" || parent == "a2") {
    if (last == "init") return kApproverInit;
    if (last == "echo") return kApproverEcho;
    if (last == "ok") return kApproverOk;
  } else if (parent == "coin") {
    if (last == "first" || last == "second") return kCoin;
  }
  return kOtherHandler;
}

}  // namespace

int TracedProcess::family_of(const cc::sim::Tag& tag) {
  auto it = family_cache_.find(tag.id());
  if (it == family_cache_.end())
    it = family_cache_.emplace(tag.id(), classify_tag(tag.str())).first;
  return it->second;
}

void TracedProcess::on_start(cc::sim::Context& ctx) {
  Span s(t_, kOtherHandler);
  inner_->on_start(ctx);
}

void TracedProcess::on_message(cc::sim::Context& ctx,
                               const cc::sim::Message& msg) {
  Span s(t_, family_of(msg.tag));
  inner_->on_message(ctx, msg);
}

void TracedProcess::on_corrupt(cc::sim::Context& ctx) {
  Span s(t_, kOtherHandler);
  inner_->on_corrupt(ctx);
}

// Wakeups exist only for the round-skip timer.
void TracedProcess::on_wakeup(cc::sim::Context& ctx) {
  Span s(t_, kSkip);
  inner_->on_wakeup(ctx);
}

void TracedProcess::on_recover(cc::sim::Context& ctx,
                               const cc::Bytes& snapshot) {
  Span s(t_, kOtherHandler);
  inner_->on_recover(ctx, snapshot);
}

}  // namespace perfbench
