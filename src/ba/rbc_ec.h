// Erasure-coded reliable broadcast, AVID-M style (ISSUE 10 tentpole).
//
// Bracha's protocol re-ships the full value in every echo: O(n²·|v|)
// words per broadcast. Following AVID (Cachin–Tessaro 2005) and its
// hash-based AVID-M refinement, the source instead Reed–Solomon-encodes
// the value into n fragments (k = f+1 data + n−k parity, crypto/
// reed_solomon.h), commits them to a Merkle root (crypto/merkle.h), and
// sends process i only fragment i plus its branch:
//
//   source:   send <initial, |v|, frag_i, branch_i> to each i
//   on initial (branch valid at own index):
//             broadcast <echo, src, |v|, root, frag_self, branch_self>
//                                                       (once per source)
//   on echo   (branch valid at sender's index) from > (n+f)/2 distinct:
//             broadcast <ready, src, H(root ‖ |v|)>
//   on ready  from f+1 distinct:  broadcast <ready, src, H(root ‖ |v|)>
//   on ready  from 2f+1 distinct AND ≥ k branch-valid fragments:
//             decode; re-encode; recompute root; deliver iff it matches
//
// The re-encode check makes deliver/no-deliver a deterministic function
// of the root: if any k root-consistent fragments decode to a value
// whose re-encoding reproduces the root, collision resistance forces
// *every* root-consistent fragment onto that codeword, so every k-subset
// decodes identically — correct processes can never split on the value.
// A root whose check fails is poisoned forever (an inconsistently-
// encoded Byzantine dispersal; nobody delivers it). Binding |v| into the
// ready digest blocks size equivocation: one root with two claimed
// sizes forms two independent flows, and fragment lengths are validated
// against ⌈|v|/k⌉ before counting.
//
// Quorum math (n > 3f): an echo quorum > (n+f)/2 contains > (n−f)/2 ≥
// f+1 = k correct processes, each broadcasting its branch-valid fragment
// to everyone — so whenever any correct process delivers, every correct
// process eventually holds ≥ k fragments and the 2f+1 readies totality
// needs. Word ledger, exact: with L = ⌈⌈|v|/k⌉/8⌉ fragment words and
// B = λ·(branch digests), initial = 1+L+B per process, echo = 1+λ+L+B,
// ready = 1+λ. The n² term carries hashes only — O(n·|v| + n²·λ·log n)
// total, the sub-quadratic dissemination bill the paper's multivalued
// extension assumes.
//
// GF(2^8) caps n at 255; larger cohorts must use the Bracha backend.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "ba/broadcast.h"
#include "common/bytes.h"
#include "crypto/merkle.h"
#include "crypto/reed_solomon.h"
#include "crypto/sha256.h"
#include "sim/flat_map64.h"
#include "sim/process.h"
#include "sim/sender_set.h"

namespace coincidence::ba {

class EcBroadcast final : public Broadcast {
 public:
  using Config = Broadcast::Config;

  EcBroadcast(Config cfg, DeliverFn on_deliver);

  void broadcast(sim::Context& ctx, Bytes payload) override;
  bool handle(sim::Context& ctx, const sim::Message& msg) override;

  bool delivered(sim::ProcessId source) const override {
    return delivered_.contains(source);
  }
  std::size_t delivered_count() const override { return delivered_.size(); }

 private:
  // One flow per (source, H(root ‖ |v|)): fragment store + echo/ready
  // tallies. Buckets under a 64-bit key fold; the full composite digest
  // disambiguates fold collisions.
  struct Flow {
    sim::ProcessId source = 0;
    crypto::Digest key{};   // H(root ‖ |v|): the ready-quorum identity
    crypto::Digest root{};  // learned with the first valid echo
    std::uint64_t value_size = 0;
    bool have_root = false;
    std::map<std::size_t, Bytes> fragments;  // branch-valid, by index
    sim::SenderSet echoes;
    sim::SenderSet readies;
    bool ready_sent = false;
    bool poisoned = false;  // failed the re-encode consistency check
  };

  static crypto::Digest composite_key(const crypto::Digest& root,
                                      std::uint64_t value_size);
  static std::uint64_t flow_fold(sim::ProcessId source,
                                 const crypto::Digest& key);
  Flow& flow_of(sim::ProcessId source, const crypto::Digest& key);

  void handle_initial(sim::Context& ctx, const sim::Message& msg);
  void handle_echo(sim::Context& ctx, const sim::Message& msg);
  void handle_ready(sim::Context& ctx, const sim::Message& msg);
  void maybe_send_ready(sim::Context& ctx, Flow& flow);
  void maybe_deliver(sim::Context& ctx, Flow& flow);

  /// Branch words: λ per digest on the sibling path of an n-leaf tree.
  std::size_t branch_words(std::size_t branch_len) const {
    return kDigestWords * branch_len;
  }

  Config cfg_;
  DeliverFn on_deliver_;
  crypto::ReedSolomon rs_;  // k = f+1
  sim::Tag tag_initial_;
  sim::Tag tag_echo_;
  sim::Tag tag_ready_;

  sim::FlatMap64<std::vector<Flow>> flows_;
  sim::SenderSet echoed_sources_;  // echo once per source
  sim::SenderSet delivered_;  // sources delivered, once each
};

}  // namespace coincidence::ba
