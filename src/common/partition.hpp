// Near-equal contiguous range partitioning, shared by the ring collectives
// (per-rank chunks of a flat buffer) and the flat parameter sharding used
// by FSDP and sub-slot PS plans (ps/sharding.hpp, FlatShardingPlan).
//
// The split is the canonical "base + extra" scheme: the first `n % parts`
// ranges get one extra element, so sizes differ by at most one and the
// ranges tile [0, n) exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace dt::common {

struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool empty() const noexcept { return begin == end; }
};

/// Near-equal contiguous split of `n` elements into `parts`; returns the
/// half-open range of part `index` (0 <= index < parts).
[[nodiscard]] inline ChunkRange chunk_range(std::size_t n, int parts,
                                            int index) noexcept {
  const std::size_t base = n / static_cast<std::size_t>(parts);
  const std::size_t extra = n % static_cast<std::size_t>(parts);
  const auto idx = static_cast<std::size_t>(index);
  const std::size_t begin = idx * base + std::min(idx, extra);
  const std::size_t len = base + (idx < extra ? 1 : 0);
  return {begin, begin + len};
}

/// Wire bytes of each chunk: its chunk_range share of the total, so the
/// per-chunk bills sum to exactly `total` when it is >= parts (a uniform
/// total/n would undercount by up to n-1 bytes per ring lap whenever parts
/// does not divide the total). Never bills zero: cost-only packets must
/// still occupy the wire. The split is computed once, at construction.
class ChunkBills {
 public:
  ChunkBills(std::uint64_t total, int parts) noexcept
      : base_(total / static_cast<std::uint64_t>(parts)),
        extra_(total % static_cast<std::uint64_t>(parts)) {}

  /// Bill of chunk `index` (0 <= index < parts).
  [[nodiscard]] std::uint64_t operator()(int index) const noexcept {
    const std::uint64_t len =
        base_ + (static_cast<std::uint64_t>(index) < extra_ ? 1 : 0);
    return std::max<std::uint64_t>(1, len);
  }

 private:
  std::uint64_t base_;   // chunk_range's split of the total
  std::uint64_t extra_;
};

}  // namespace dt::common
