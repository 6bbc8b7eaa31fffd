// Allocation budget of the simulator's per-message path: engine dispatch,
// the network model and the collectives must not touch the heap once a run
// is in steady state (docs/performance.md, "Hot-path allocations").
//
// This file replaces the global operator new with a counting one, so it
// builds into its own test executable. Each case runs the same cost-only
// session at two iteration counts and divides the extra allocations made
// inside Session::run by the extra wire messages. Setup, process spawn and
// teardown cost the same at both lengths and cancel; what is left is the
// per-message (and per-iteration) allocator traffic. The functional case
// counts one training step directly: it must not allocate at all.
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
#include "core/workload.hpp"

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

/// How a counted run differs from the cost-only default.
struct Variant {
  bool traced = false;  // trace and time-series outputs on
  bool lossy = false;   // the campaign's lossy, replicated-PS column
  int workers = kWorkers;
};

Counted run_counted(const std::string& algorithm, int iterations,
                    const Variant& v) {
  common::IniConfig ini;
  ini.set("experiment", "algorithm", algorithm);
  ini.set("experiment", "mode", "throughput");
  ini.set("experiment", "workers", std::to_string(v.workers));
  ini.set("experiment", "iterations", std::to_string(iterations));
  ini.set("experiment", "seed", "42");
  ini.set("runtime", "compute_threads", "1");
  ini.set("workload", "model", "vgg16");
  const std::string out = "/tmp/dtrainlib_alloc_" + algorithm;
  if (v.traced) {
    ini.set("output", "trace", out + ".trace.json");
    ini.set("output", "timeseries_csv", out + ".csv");
  }
  if (v.lossy) {
    ini.set("optimizations", "wait_free_bp", "false");
    ini.set("failures", "loss_prob", "0.01");
    ini.set("failures", "dup_prob", "0.01");
    ini.set("failures", "reorder_prob", "0.01");
    ini.set("failures", "reorder_window", "0.002");
    ini.set("reliability", "replicate_ps", "true");
  }
  const ExperimentSpec spec = ExperimentSpec::from_ini(ini);
  Workload wl = spec.make_workload();
  Session session(spec.config, wl);
  const std::uint64_t before = g_allocations.load();
  const metrics::RunResult r = session.run();
  const Counted counted{g_allocations.load() - before, r.wire_messages};
  if (v.traced) {
    std::remove((out + ".trace.json").c_str());
    std::remove((out + ".csv").c_str());
  }
  return counted;
}

double allocations_per_extra_message(const std::string& algorithm,
                                     const Variant& v = {}) {
  const Counted short_run = run_counted(algorithm, 8, v);
  const Counted long_run = run_counted(algorithm, 16, v);
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
  for (const char* algorithm : {"bsp", "asp", "ssp", "dssp", "easgd"}) {
    EXPECT_LE(allocations_per_extra_message(algorithm), kMaxAllocsPerMessage)
        << algorithm;
  }
}

// Tracing and time-series sampling record one flow per message, a slice
// per phase and a counter per series per sample tick, and export them all
// inside Session::run. Recording stores interned ids, and the exporters
// stream through a fixed chunk buffer, so the budget is the same.
TEST(AllocationBudget, TracedRingAllReduceStaysWithinBudget) {
  EXPECT_LE(allocations_per_extra_message("arsgd", {.traced = true}),
            kMaxAllocsPerMessage);
}

TEST(AllocationBudget, TracedParameterServerStaysWithinBudget) {
  EXPECT_LE(allocations_per_extra_message("bsp", {.traced = true}),
            kMaxAllocsPerMessage);
}

// Lossy links with a replicated PS route every PS exchange through
// net::ReliableTransport: acks, dedup, in-order release and deadline
// receives. Per-pair state is created at first contact, and an in-order
// delivery or an expired deadline must not touch the heap.
TEST(AllocationBudget, LossyParameterServerStaysWithinBudget) {
  for (const char* algorithm : {"bsp", "asp", "ssp", "easgd"}) {
    EXPECT_LE(allocations_per_extra_message(
                  algorithm, {.lossy = true, .workers = 24}),
              kMaxAllocsPerMessage)
        << algorithm;
  }
}

// A functional training step (next mini-batch, forward, loss, backward)
// reuses every buffer it touched on the previous step: the batch, layer
// activations and gradients, the loss gradient and the model's slot index.
TEST(AllocationBudget, FunctionalComputeGradientsIsAllocationFree) {
  FunctionalWorkloadSpec spec;
  spec.num_workers = 2;
  Workload wl = make_functional_workload(spec);
  // Warm-up: one full epoch per worker, so every batch shape (including a
  // short last batch) and the epoch-end reshuffle have been seen.
  const std::int64_t steps = wl.iterations_per_epoch() + 2;
  for (std::int64_t i = 0; i < steps; ++i) {
    for (int w = 0; w < wl.num_workers(); ++w) (void)wl.compute_gradients(w);
  }
  const std::uint64_t before = g_allocations.load();
  for (std::int64_t i = 0; i < steps; ++i) {
    for (int w = 0; w < wl.num_workers(); ++w) (void)wl.compute_gradients(w);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

}  // namespace
}  // namespace dt::core
