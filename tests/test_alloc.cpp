// Allocation budget of the simulator's per-message path: engine dispatch,
// the network model and the collectives must not touch the heap once a run
// is in steady state (docs/performance.md, "Hot-path allocations").
//
// This file replaces the global operator new with a counting one, so it
// builds into its own test executable. Each case runs the same cost-only
// session at two iteration counts and divides the extra allocations made
// inside Session::run by the extra wire messages. Setup, process spawn and
// teardown cost the same at both lengths and cancel; what is left is the
// per-message (and per-iteration) allocator traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "common/ini.hpp"
#include "core/experiment.hpp"
#include "core/session.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The nothrow forms of the standard library forward to these.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dt::core {
namespace {

constexpr int kWorkers = 64;

/// The budget: at most one allocation per 20 wire messages. Check messages
/// built on every passing check put this near 13; endpoint queues that
/// allocate a block every few packets put it near 0.2.
constexpr double kMaxAllocsPerMessage = 0.05;

struct Counted {
  std::uint64_t allocations = 0;  // inside Session::run
  std::uint64_t messages = 0;
};

Counted run_counted(const std::string& algorithm, int iterations,
                    bool traced) {
  common::IniConfig ini;
  ini.set("experiment", "algorithm", algorithm);
  ini.set("experiment", "mode", "throughput");
  ini.set("experiment", "workers", std::to_string(kWorkers));
  ini.set("experiment", "iterations", std::to_string(iterations));
  ini.set("experiment", "seed", "42");
  ini.set("runtime", "compute_threads", "1");
  ini.set("workload", "model", "vgg16");
  const std::string out = "/tmp/dtrainlib_alloc_" + algorithm;
  if (traced) {
    ini.set("output", "trace", out + ".trace.json");
    ini.set("output", "timeseries_csv", out + ".csv");
  }
  const ExperimentSpec spec = ExperimentSpec::from_ini(ini);
  Workload wl = spec.make_workload();
  Session session(spec.config, wl);
  const std::uint64_t before = g_allocations.load();
  const metrics::RunResult r = session.run();
  const Counted counted{g_allocations.load() - before, r.wire_messages};
  if (traced) {
    std::remove((out + ".trace.json").c_str());
    std::remove((out + ".csv").c_str());
  }
  return counted;
}

double allocations_per_extra_message(const std::string& algorithm,
                                     bool traced = false) {
  const Counted short_run = run_counted(algorithm, 8, traced);
  const Counted long_run = run_counted(algorithm, 16, traced);
  // Setup inside Session::run allocates, so zero means the counter is dead.
  EXPECT_GT(short_run.allocations, 0u);
  EXPECT_GT(long_run.messages, short_run.messages);
  const double extra_allocations =
      static_cast<double>(long_run.allocations) -
      static_cast<double>(short_run.allocations);
  const double extra_messages = static_cast<double>(long_run.messages) -
                                static_cast<double>(short_run.messages);
  return extra_allocations / extra_messages;
}

TEST(AllocationBudget, RingAllReduceSteadyStateIsAllocationFree) {
  EXPECT_LE(allocations_per_extra_message("arsgd"), kMaxAllocsPerMessage);
}

TEST(AllocationBudget, ParameterServerSteadyStateIsAllocationFree) {
  EXPECT_LE(allocations_per_extra_message("bsp"), kMaxAllocsPerMessage);
}

// Tracing and time-series sampling record one flow per message, a slice
// per phase and a counter per series per sample tick, and export them all
// inside Session::run. Recording stores interned ids, and the exporters
// stream through a fixed chunk buffer, so the budget is the same.
TEST(AllocationBudget, TracedRingAllReduceStaysWithinBudget) {
  EXPECT_LE(allocations_per_extra_message("arsgd", true),
            kMaxAllocsPerMessage);
}

TEST(AllocationBudget, TracedParameterServerStaysWithinBudget) {
  EXPECT_LE(allocations_per_extra_message("bsp", true), kMaxAllocsPerMessage);
}

}  // namespace
}  // namespace dt::core
