#include "memory/ledger.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dt::memory {

const char* category_name(Category c) noexcept {
  switch (c) {
    case Category::params:
      return "params";
    case Category::grads:
      return "grads";
    case Category::optimizer:
      return "optimizer";
    case Category::gather:
      return "gather";
  }
  return "unknown";
}

void Ledger::reset(int num_ranks) {
  common::check(num_ranks >= 0, "memory::Ledger: num_ranks must be >= 0");
  ranks_.assign(static_cast<std::size_t>(num_ranks), RankUsage{});
}

void Ledger::alloc(int rank, Category c, std::uint64_t bytes, double now) {
  common::check(rank >= 0 && rank < num_ranks(),
                "memory::Ledger::alloc: rank out of range");
  if (bytes == 0) return;
  RankUsage& u = ranks_[static_cast<std::size_t>(rank)];
  const int ci = static_cast<int>(c);
  u.current[ci] += bytes;
  u.current_total += bytes;
  u.peak_by_category[ci] = std::max(u.peak_by_category[ci], u.current[ci]);
  if (u.current_total > u.peak_total) {
    u.peak_total = u.current_total;
    u.peak_time = now;
  }
  if (hook_) hook_(rank, now, u.current_total);
}

void Ledger::release(int rank, Category c, std::uint64_t bytes, double now) {
  common::check(rank >= 0 && rank < num_ranks(),
                "memory::Ledger::release: rank out of range");
  if (bytes == 0) return;
  RankUsage& u = ranks_[static_cast<std::size_t>(rank)];
  const int ci = static_cast<int>(c);
  if (u.current[ci] < bytes) {
    common::fail(std::string("memory::Ledger::release: underflow in ") +
                 category_name(c));
  }
  u.current[ci] -= bytes;
  u.current_total -= bytes;
  if (hook_) hook_(rank, now, u.current_total);
}

const RankUsage& Ledger::rank(int r) const {
  common::check(r >= 0 && r < num_ranks(),
                "memory::Ledger::rank: rank out of range");
  return ranks_[static_cast<std::size_t>(r)];
}

std::uint64_t Ledger::peak_rank_bytes() const noexcept {
  std::uint64_t peak = 0;
  for (const RankUsage& u : ranks_) peak = std::max(peak, u.peak_total);
  return peak;
}

std::uint64_t Ledger::peak_category_bytes(Category c) const noexcept {
  std::uint64_t peak = 0;
  for (const RankUsage& u : ranks_) {
    peak = std::max(peak, u.peak_by_category[static_cast<int>(c)]);
  }
  return peak;
}

}  // namespace dt::memory
