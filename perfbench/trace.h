// Tracing for the benchmark's traced run. Everything here sits outside
// the library: timing decorators for the crypto::Vrf and
// committee::Sampler interfaces, and a sim::Process wrapper that times
// each handler call by message-tag family. A span stack turns nested
// spans into self times, so a handler's time excludes the sampler and
// VRF calls made inside it and the layers add up to the traced wall time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "committee/sampler.h"
#include "crypto/vrf.h"
#include "sim/process.h"

namespace perfbench {

/// The layers a traced run splits wall time into. Handler families are
/// keyed by the last components of the message tag.
enum Layer : int {
  kRbcInitial,
  kRbcEcho,
  kRbcReady,
  kApproverInit,
  kApproverEcho,
  kApproverOk,
  kCoin,          // whp coin first + second
  kSkip,          // skip-req, decision certificates and skip-timer wakeups
  kOtherHandler,  // on_start and any tag outside the families above
  kSampler,
  kVrf,
  kLayerCount
};

/// First layer that is not a protocol handler.
constexpr int kFirstInterfaceLayer = kSampler;

const char* layer_name(int layer);

/// Accumulates self and total time per layer over a span stack.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  void enter(int layer) {
    stack_.push_back(Frame{layer, Clock::now(), Clock::duration::zero()});
  }
  void exit() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const Clock::duration d = Clock::now() - f.start;
    self_[f.layer] += d - f.child;
    total_[f.layer] += d;
    ++calls_[f.layer];
    if (!stack_.empty()) stack_.back().child += d;
  }

  double self_s(int layer) const { return seconds(self_[layer]); }
  double total_s(int layer) const { return seconds(total_[layer]); }
  std::uint64_t calls(int layer) const { return calls_[layer]; }

  /// Time spent inside protocol handlers, nested interface calls
  /// included: the complement of the simulator's own time.
  double handler_total_s() const;

 private:
  struct Frame {
    int layer;
    Clock::time_point start;
    Clock::duration child;
  };
  static double seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  std::vector<Frame> stack_;
  std::array<Clock::duration, kLayerCount> self_{};
  std::array<Clock::duration, kLayerCount> total_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
};

class Span {
 public:
  Span(Tracer& t, int layer) : t_(t) { t_.enter(layer); }
  ~Span() { t_.exit(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

/// Times every call into a Vrf and forwards it unchanged.
class TimedVrf final : public coincidence::crypto::Vrf {
 public:
  TimedVrf(std::shared_ptr<const Vrf> inner, Tracer& tracer)
      : inner_(std::move(inner)), t_(tracer) {}

  coincidence::crypto::VrfKeyPair keygen(
      coincidence::Rng& rng) const override;
  coincidence::crypto::VrfOutput eval(
      coincidence::BytesView sk, coincidence::BytesView input) const override;
  bool verify(coincidence::BytesView pk, coincidence::BytesView input,
              const coincidence::crypto::VrfOutput& out) const override;
  bool verify(coincidence::BytesView pk, coincidence::BytesView input,
              coincidence::BytesView value,
              coincidence::BytesView proof) const override;
  void batch_verify(std::span<const coincidence::crypto::VrfBatchEntry> entries,
                    std::vector<char>& out) const override;
  std::size_t value_size() const override { return inner_->value_size(); }
  const char* name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const Vrf> inner_;
  Tracer& t_;
};

/// Times every call into a Sampler (cache hits included) and forwards
/// it to `inner`, normally the CachingSampler.
class TimedSampler final : public coincidence::committee::Sampler {
 public:
  TimedSampler(std::shared_ptr<const Sampler> inner,
               std::shared_ptr<const coincidence::crypto::Vrf> vrf,
               std::shared_ptr<const coincidence::crypto::KeyRegistry> registry,
               Tracer& tracer)
      : Sampler(std::move(vrf), std::move(registry), inner->threshold()),
        inner_(std::move(inner)),
        t_(tracer) {}

  Election sample(coincidence::crypto::ProcessId i,
                  const std::string& seed) const override;
  bool committee_val(const std::string& seed, coincidence::crypto::ProcessId i,
                     coincidence::BytesView proof) const override;
  void committee_val_batch(std::span<const ValCheck> checks,
                           std::vector<char>& out) const override;

 private:
  std::shared_ptr<const Sampler> inner_;
  Tracer& t_;
};

/// Wraps a process and times its callbacks by message-tag family.
class TracedProcess final : public coincidence::sim::Process {
 public:
  TracedProcess(std::unique_ptr<coincidence::sim::Process> inner,
                Tracer& tracer)
      : inner_(std::move(inner)), t_(tracer) {}

  void on_start(coincidence::sim::Context& ctx) override;
  void on_message(coincidence::sim::Context& ctx,
                  const coincidence::sim::Message& msg) override;
  void on_corrupt(coincidence::sim::Context& ctx) override;
  void on_wakeup(coincidence::sim::Context& ctx) override;
  void on_recover(coincidence::sim::Context& ctx,
                  const coincidence::Bytes& snapshot) override;

 private:
  int family_of(const coincidence::sim::Tag& tag);

  std::unique_ptr<coincidence::sim::Process> inner_;
  Tracer& t_;
  std::unordered_map<std::uint32_t, int> family_cache_;
};

}  // namespace perfbench
