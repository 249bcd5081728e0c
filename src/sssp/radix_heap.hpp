// radix_heap.hpp — the monotone radix heap (Ahuja, Mehlhorn, Orlin and
// Tarjan, 1990) behind the two queue-driven cores: fused delta-stepping
// keys it by bucket index, dijkstra by the bit pattern of a tentative
// distance.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "graphblas/types.hpp"

namespace dsg::detail {

struct RadixEntry {
  std::uint64_t key;
  grb::Index value;
};

/// A min-queue of (key, value) entries for monotone use: a pushed key is
/// never below the last key taken.  An entry lives in the bin named by the
/// highest bit in which its key differs from that last key.  push is O(1);
/// take_min finds the least key in one sweep of the lowest non-empty bin,
/// and every entry moves to a lower bin at most 64 times.  Storage is the
/// pending entries only, whatever the key range is, and clear() keeps the
/// bins' capacity for the next run.
class RadixHeap {
 public:
  void clear() {
    for (auto& bin : bins_) bin.clear();
    last_ = 0;
    size_ = 0;
  }

  bool empty() const { return size_ == 0; }

  /// Precondition: key >= the last key take_min returned.
  void push(std::uint64_t key, grb::Index value) {
    bins_[bin_of(key)].push_back({key, value});
    ++size_;
  }

  /// Moves every entry with the least pending key into `out` (replacing
  /// its contents) and returns that key.  Entries pushed with the same key
  /// while `out` is being consumed come back from the next call.
  /// Precondition: !empty().
  std::uint64_t take_min(std::vector<RadixEntry>& out) {
    if (bins_[0].empty()) {
      std::size_t b = 1;
      while (bins_[b].empty()) ++b;
      std::uint64_t least = bins_[b].front().key;
      for (const RadixEntry& e : bins_[b]) least = std::min(least, e.key);
      last_ = least;
      for (const RadixEntry& e : bins_[b]) bins_[bin_of(e.key)].push_back(e);
      bins_[b].clear();
    }
    out.clear();
    out.swap(bins_[0]);
    size_ -= out.size();
    return last_;
  }

 private:
  std::size_t bin_of(std::uint64_t key) const {
    return static_cast<std::size_t>(64 - std::countl_zero(key ^ last_));
  }

  std::array<std::vector<RadixEntry>, 65> bins_;
  std::uint64_t last_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dsg::detail
