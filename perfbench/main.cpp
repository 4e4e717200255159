// Wall-clock benchmark of the replicated log and the BA stream.
//
//   perfbench --workload <log-bracha|log-ec|ba-faulty> --seed <n>
//             --seconds <s> --trace <0|1> [--units <k>] [--small]
//
// Prints one JSON object as the last line of stdout: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. --units
// overrides the work a run does (slots of the log, or BA instances) and
// --small shrinks n; both are for the self-test. The
// exact counts of the run (deliveries, words, failures and a digest of
// every unit's agreed output) go to stderr on a line starting "exact ",
// so two runs can be compared. Exits 1 on a safety violation or when the
// traced run diverges from the untraced one; see README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "committee/params.h"
#include "common/bytes.h"
#include "crypto/sha256.h"
#include "micro.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Totals;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t units = 0;  // nonzero: log slots or BA instances to run
  bool small = false;     // self-test sizes
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<log-bracha|log-ec|ba-faulty> --seed <n> --seconds <s> "
               "--trace <0|1> [--units <k>] [--small]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--small") {
      a.small = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      continue;
    }
    const unsigned long long u = std::strtoull(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0')
      usage(("not a whole number: " + v).c_str());
    if (k == "--seed") a.seed = u;
    else if (k == "--seconds") a.seconds = static_cast<double>(u);
    else if (k == "--trace") a.trace = u != 0;
    else if (k == "--units") a.units = u;
    else usage(("unknown option " + k).c_str());
  }
  if (a.workload != "log-bracha" && a.workload != "log-ec" &&
      a.workload != "ba-faulty")
    usage("unknown workload");
  return a;
}

/// Value at quantile q of the sorted samples (nearest rank).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(v.size() - 1, rank)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Workload {
  bool is_log = false;
  perfbench::LogShape log;
  perfbench::BaShape ba;
  std::size_t ba_instances = 0;

  Totals run(std::uint64_t seed, perfbench::Tracer* t) const {
    return is_log ? perfbench::run_log(log, seed, t)
                  : perfbench::run_ba_stream(ba, seed, ba_instances, t);
  }
  std::vector<double> setup_s(std::uint64_t seed) const {
    constexpr int kReps = 51;
    return is_log ? perfbench::log_setup_s(log, seed, kReps)
                  : perfbench::ba_setup_s(ba, seed, kReps);
  }
};

// A run does a fixed amount of work, sized so that it takes about
// --seconds on a 4-core Xeon; work that depended on speed would change
// the counts and the latency distribution from run to run. The floors
// keep at least 10 latency samples beyond p90.
constexpr double kSlotsPerSecond = 0.4;
constexpr double kBaPerSecond = 5.5;
constexpr std::size_t kMinSlots = 5;  // past the pipeline depth of 4
constexpr std::size_t kMinBa = 100;

std::size_t scaled(double per_second, double seconds, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(per_second * seconds + 0.5));
}

Workload make_workload(const Args& a) {
  Workload w;
  w.is_log = a.workload != "ba-faulty";
  w.log.slots =
      a.units ? a.units : scaled(kSlotsPerSecond, a.seconds, kMinSlots);
  w.ba_instances =
      a.units ? a.units : scaled(kBaPerSecond, a.seconds, kMinBa);
  if (a.workload == "log-ec") w.log.rbc = coincidence::ba::RbcBackend::kEc;
  if (a.small) {
    w.log.n = 24;
    w.log.batch_size = 8;
    w.ba.n = 32;
    w.ba.silent_faults = 2;
  }
  return w;
}

double words_per_op(const Workload& w, const Totals& t) {
  // Per committed slot on the log, per attempted instance on the stream.
  const std::uint64_t ops = w.is_log ? t.attempted - t.failed : t.attempted;
  return ratio(static_cast<double>(t.correct_words), static_cast<double>(ops));
}

/// Digest over every unit's agreed output, in unit order.
std::string outputs_digest(const Totals& t) {
  std::string all;
  for (const auto& u : t.units) all += u.fingerprint + ";";
  namespace cc = coincidence;
  return cc::to_hex(cc::crypto::sha256(cc::bytes_of(all)));
}

void print_exact(const Workload& w, const Totals& t) {
  std::fprintf(stderr,
               "exact {\"units\": %zu, \"attempted\": %llu, \"failed\": %llu, "
               "\"deliveries\": %llu, \"correct_words\": %llu, "
               "\"words_per_op\": %.17g, \"outputs\": \"%s\"}\n",
               t.units.size(), static_cast<unsigned long long>(t.attempted),
               static_cast<unsigned long long>(t.failed),
               static_cast<unsigned long long>(t.deliveries),
               static_cast<unsigned long long>(t.correct_words),
               words_per_op(w, t), outputs_digest(t).c_str());
}

std::vector<Metric> end_to_end(const Workload& w, const Totals& t,
                               double setup_s) {
  const double wall = t.wall_s;
  // A succeeded operation is a decided BA: a committed slot's multivalued
  // BA on the log, a binary instance on the stream. On the log a request
  // is a client request committed by a replica; on the stream each
  // decided instance is one request.
  const auto decided = static_cast<double>(t.attempted - t.failed);
  const double requests = w.is_log ? static_cast<double>(t.requests) : decided;
  return {
      {"req_per_s", ratio(requests, wall), "1/s"},
      {"ba_per_s", ratio(decided, wall), "1/s"},
      {"op_ms_p50", quantile(t.op_ms, 0.5), "ms"},
      {"words_per_op", words_per_op(w, t), "words"},
      {"deliveries_per_s", ratio(static_cast<double>(t.deliveries), wall),
       "1/s"},
      {"success_rate",
       ratio(static_cast<double>(t.attempted - t.failed),
             static_cast<double>(t.attempted)),
       "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const Totals& t,
                              const perfbench::Tracer& tr, double overhead) {
  std::vector<Metric> m;
  for (int l = 0; l < perfbench::kLayerCount; ++l)
    m.push_back({perfbench::layer_name(l), tr.self_s(l), "s"});
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  double run_s = 0;
  for (const auto& u : t.units) run_s += u.run_s;
  const double plane_s = run_s - tr.handler_total_s();
  m.push_back({"committee.sampler_calls", count(tr.calls(perfbench::kSampler)),
               "count"});
  m.push_back({"crypto.vrf_calls", count(tr.calls(perfbench::kVrf)), "count"});
  m.push_back({"crypto.sig_checks", count(t.sig_checks), "count"});
  m.push_back({"crypto.sig_memo_hit_ratio",
               ratio(count(t.sig_sweep_memo_hits), count(t.sig_sweep_sigs)),
               "ratio"});
  m.push_back({"coin.verify.shares", count(t.verify_shares), "count"});
  m.push_back({"coin.verify.batches", count(t.verify_batches), "count"});
  // Sizes of the log workloads' EC-RBC: n fragments, k = f + 1.
  const std::size_t f =
      coincidence::committee::Params::derive(w.log.n, 0.25, 0.02, false).f;
  for (auto& [name, us] :
       perfbench::crypto_per_call_us(w.log.n, f + 1, 2048))
    m.push_back({name, us, "us"});
  m.push_back({"ba.rbc.encodes", count(t.rbc_encodes), "count"});
  m.push_back({"ba.rbc.decodes", count(t.rbc_decodes), "count"});
  m.push_back(
      {"ba.rbc.decode_failures", count(t.rbc_decode_failures), "count"});
  m.push_back({"ba.ba_whp.rounds_skipped", count(t.rounds_skipped), "count"});
  m.push_back({"ba.ba_whp.skip_rescued", count(t.skip_rescued), "count"});
  // Tail latency is here rather than end to end: see README.md.
  m.push_back({"op_ms_p90", quantile(t.op_ms, 0.9), "ms"});
  m.push_back({"sim.plane_s", plane_s, "s"});
  m.push_back({"sim.plane_ns_per_delivery",
               ratio(plane_s * 1e9, count(t.deliveries)), "ns"});
  m.push_back({"sim.deliveries", count(t.deliveries), "count"});
  m.push_back({"sim.messages", count(t.messages), "count"});
  // The replicated log's own counters; zero on the BA stream.
  const double on_log = w.is_log ? 1 : 0;
  m.push_back({"session.rounds_skipped", on_log * count(t.rounds_skipped),
               "count"});
  m.push_back({"session.noop_slots", count(t.noop_slots), "count"});
  m.push_back({"session.candidates", count(t.candidates), "count"});
  m.push_back({"session.commit_ms_p50", quantile(t.commit_ms, 0.5), "ms"});
  m.push_back({"session.commit_ms_p90", quantile(t.commit_ms, 0.9), "ms"});
  m.push_back({"session.max_decided_round",
               on_log * count(t.max_decided_round), "count"});
  m.push_back({"fail_rate", ratio(count(t.failed), count(t.attempted)),
               "ratio"});
  m.push_back({"trace.run_s", run_s, "s"});
  m.push_back({"trace.overhead", overhead, "ratio"});
  return m;
}

void print_result(bool correct, const Totals& t,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  Workload w = make_workload(a);

  if (!a.trace) {
    // Set-up times come from before and after the run, so that one slow
    // stretch of the machine does not set the median.
    std::vector<double> setup = w.setup_s(a.seed);
    const Totals t = w.run(a.seed, nullptr);
    const std::vector<double> after = w.setup_s(a.seed);
    setup.insert(setup.end(), after.begin(), after.end());
    print_exact(w, t);
    if (!t.safety_ok)
      std::fprintf(stderr, "perfbench: SAFETY VIOLATION: %s\n",
                   t.safety_error.c_str());
    print_result(t.safety_ok, t, end_to_end(w, t, quantile(setup, 0.5)));
    return t.safety_ok ? 0 : 1;
  }

  // Traced run, preceded by an untraced reference: the whole log, or the
  // first instances of the BA stream. The traced run must reproduce the
  // reference exactly; the ratio of their times is the tracing overhead.
  Workload ref_w = w;
  ref_w.ba_instances = std::min<std::size_t>(w.ba_instances, 8);
  const Totals ref = ref_w.run(a.seed, nullptr);
  perfbench::Tracer tracer;
  const Totals t = w.run(a.seed, &tracer);
  print_exact(w, t);

  bool passive = t.units.size() >= ref.units.size();
  double ref_s = 0, traced_s = 0;
  for (std::size_t i = 0; passive && i < ref.units.size(); ++i) {
    const auto& r = ref.units[i];
    const auto& u = t.units[i];
    passive = r.deliveries == u.deliveries &&
              r.correct_words == u.correct_words &&
              r.fingerprint == u.fingerprint;
    ref_s += r.run_s;
    traced_s += u.run_s;
  }
  if (!passive)
    std::fprintf(stderr, "perfbench: traced run diverged from untraced run\n");
  if (!t.safety_ok)
    std::fprintf(stderr, "perfbench: SAFETY VIOLATION: %s\n",
                 t.safety_error.c_str());
  const bool ok = passive && t.safety_ok;
  print_result(ok, t, per_layer(w, t, tracer, ratio(traced_s, ref_s)));
  return ok ? 0 : 1;
}
