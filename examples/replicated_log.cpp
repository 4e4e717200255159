// Replicated log on top of multivalued agreement — the classic
// application the paper's introduction motivates ("practical use-cases
// of BA in large-scale systems").
//
// Every replica holds a stream of client requests and, for each log
// slot, proposes a batch of its own requests. The slot's multivalued BA
// (session::LogProcess over ba::MultiValuedBa, after Cohen–Keidar)
// adopts exactly one proposer's batch, or a no-op when every examined
// candidate loses its race. Slots run pipelined over one network and one
// trusted setup (the paper's §3 point: the PKI is set up once for any
// number of BA instances). The committed log is identical at every
// correct replica; a few replicas are Byzantine-silent throughout.
//
//   ./replicated_log [--n 48] [--slots 8] [--seed 1] [--batch 4]
//                    [--depth 4] [--silent 2] [--rbc bracha|ec]
#include <algorithm>
#include <iostream>
#include <string>

#include "ba/broadcast.h"
#include "common/args.h"
#include "common/table.h"
#include "core/env.h"
#include "session/log_driver.h"

using namespace coincidence;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("n", 48));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto rbc = ba::parse_rbc_backend(args.get("rbc", "bracha"));
  if (!rbc) {
    std::cerr << "replicated_log: --rbc must be bracha or ec\n";
    return 2;
  }

  session::LogRunOptions opts;
  opts.slots = static_cast<std::size_t>(args.get_int("slots", 8));
  opts.batch_size = static_cast<std::size_t>(args.get_int("batch", 4));
  opts.pipeline_depth = static_cast<std::size_t>(args.get_int("depth", 4));
  opts.silent_faults = static_cast<std::size_t>(args.get_int("silent", 2));
  opts.sim_seed = seed;
  opts.rbc = *rbc;

  std::cout << "replicated log: " << opts.slots << " slots over " << n
            << " replicas (" << opts.silent_faults << " silent), batches of "
            << opts.batch_size << " requests, pipeline depth "
            << opts.pipeline_depth << ", " << ba::to_string(*rbc)
            << " dissemination\n\n";

  const session::LogReport report =
      session::run_replicated_log(core::Env::make_relaxed(n, seed), opts);

  Table table({"slot", "committed", "requests", "first request"});
  for (std::size_t slot = 0; slot < report.log.size(); ++slot) {
    const Bytes& batch = report.log[slot];
    if (batch.empty()) {
      table.add_row({std::to_string(slot), "no-op", "0", "-"});
      continue;
    }
    // A batch is the proposer's newline-joined request tokens.
    const auto requests = 1 + std::count(batch.begin(), batch.end(), '\n');
    const std::string first(batch.begin(),
                            std::find(batch.begin(), batch.end(), '\n'));
    table.add_row({std::to_string(slot), "batch", std::to_string(requests),
                   first});
  }
  table.print(std::cout);

  std::cout << "\nall correct replicas committed every slot: "
            << (report.all_committed ? "yes" : "NO")
            << "\nlogs byte-identical across correct replicas: "
            << (report.agreement ? "yes" : "NO")
            << "\nlog fingerprint (sha256): " << report.fingerprint
            << "\nrequests committed: " << report.requests_committed << " ("
            << report.noop_slots << " no-op slots)"
            << "\ncorrect words: " << Table::count(report.correct_words)
            << " (" << Table::count(report.words_per_slot) << " per slot)\n";
  return report.all_committed && report.agreement ? 0 : 1;
}
