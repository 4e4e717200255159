// SenderSet: the "count each sender once" tally behind every quorum in
// the protocols (coin shares, approver init/echo/ok, BA skip requests,
// RBC echoes and readies), kept as a bitmap over process ids.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/message.h"

namespace coincidence::sim {

class SenderSet {
 public:
  SenderSet() = default;
  /// Presized for ids [0, n); larger ids still insert.
  explicit SenderSet(std::size_t n) : bits_(n, false) {}

  /// std::set::insert().second: true iff `id` was absent. An id beyond
  /// the bitmap grows it rather than being dropped (harnesses may size a
  /// protocol's n below the simulation's).
  bool insert(ProcessId id) {
    if (id >= bits_.size()) bits_.resize(std::size_t{id} + 1, false);
    if (bits_[id]) return false;
    bits_[id] = true;
    ++size_;
    return true;
  }

  bool contains(ProcessId id) const {
    return id < bits_.size() && bits_[id];
  }

  std::size_t size() const { return size_; }

  /// Empties the set, keeping its storage.
  void clear() {
    bits_.assign(bits_.size(), false);
    size_ = 0;
  }

  /// Calls f(id) for every member, in ascending id order.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t id = 0; id < bits_.size(); ++id)
      if (bits_[id]) f(static_cast<ProcessId>(id));
  }

 private:
  std::vector<bool> bits_;
  std::size_t size_ = 0;
};

}  // namespace coincidence::sim
