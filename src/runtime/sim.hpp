// Cooperative virtual-time process runtime.
//
// Every actor in an experiment (worker, PS shard, background communication
// thread) is a Process: straight-line blocking code whose execution is
// serialized by the SimEngine so that EXACTLY ONE process runs at any
// instant. Time is virtual: a process consumes it only through advance(),
// and the engine always resumes the process with the smallest next-event
// time (FIFO tie-break). The result is a discrete-event simulation that
//   - is bit-for-bit deterministic for a fixed seed, regardless of host
//     core count or load;
//   - lets worker code be written as straight-line blocking code (send /
//     recv / advance) instead of hand-rolled event callbacks;
//   - gives the accuracy experiments *genuine* asynchrony: the interleaving
//     of parameter updates is decided by the modeled compute/network times,
//     exactly as staleness arises on a physical cluster.
//
// Scheduling: ready processes live in an indexed binary min-heap keyed by
// (ready_time, ready_seq), so each dispatch costs O(log P) instead of a
// linear scan — the property that lets runs scale to thousands of virtual
// workers. wake() moving a wakeable sleeper earlier is a decrease-key
// (sift-up); liveness is an O(1) counter of unfinished non-daemon
// processes.
//
// Execution backend: on x86-64 Linux each process is a fiber — all
// processes share the OS thread that called run(), and a context switch is
// a hand-written register swap instead of a multi-microsecond futex round
// trip. The switch saves only what the SysV ABI preserves across a call
// (rbx, rbp, r12-r15, rsp, MXCSR, x87 control word). It does not save the
// signal mask, which the simulator never changes, so it makes no system
// call: ~19 ns per switch against ~350 ns for the C library's context API,
// which restores the mask every time (docs/performance.md has the
// measurements and their host).
// Each fiber gets its own guard-paged stack and its own saved C++
// exception-handling state (an in-flight exception in one fiber is
// invisible to the others). On every other target, and under ASan/TSan —
// which cannot follow raw stack switches — the engine uses one std::thread
// per process with per-process condition variables. BOTH backends take
// scheduling decisions from the same heap, so simulated output is
// bit-identical across them. Two shortcuts keep the hot path lean without
// changing the schedule: a yielding process hands the baton DIRECTLY to the
// next ready process (the engine context only wakes on failure,
// completion, or deadlock), and a process that re-queues itself (advance,
// wait_event_until) costs one heap operation at most — none when it is
// still the earliest event and simply keeps running with no switch, one
// sift-down when it swaps places with the heap root.
//
// Compute offload (advance_compute): the *virtual* schedule stays strictly
// sequential, but the *real* numerics of a modeled busy interval may run on
// a host thread pool while the engine resumes other processes. Because the
// closure touches only state private to its process (or state another
// process writes only after join_compute() on it) and the engine's event
// order is a pure function of virtual times, the simulation stays
// bit-for-bit identical to compute_threads=1 (see docs/performance.md).
#pragma once

// Backend selection: DT_SIM_FIBERS=1 (fibers) on x86-64 Linux, unless a
// sanitizer that tracks stacks is active or the build overrides it with
// -DDT_SIM_FIBERS=0.
#if !defined(DT_SIM_FIBERS)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DT_SIM_FIBERS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DT_SIM_FIBERS 0
#endif
#endif
#endif
#if !defined(DT_SIM_FIBERS)
#if defined(__linux__) && defined(__x86_64__)
#define DT_SIM_FIBERS 1
#else
#define DT_SIM_FIBERS 0
#endif
#endif

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace dt::runtime {

class SimEngine;

/// Thrown inside daemon processes when the engine shuts them down after all
/// regular processes finished. Process bodies must let it propagate.
class ProcessKilled {};

/// Engine self-metrics: how much work the scheduler itself did. These are
/// deterministic for a fixed run (the schedule is), but they describe the
/// simulator, not the simulated system — they stay out of metric dumps and
/// campaign records, and are surfaced via RunResult's host-side section and
/// bench_simcore (events/sec).
struct SimStats {
  std::uint64_t events = 0;      // process resumptions (scheduler picks)
  std::uint64_t wakes = 0;       // wake() calls
  std::uint64_t processes = 0;   // processes ever spawned
};

#if DT_SIM_FIBERS
namespace detail {
// Saved per-fiber C++ exception-handling state (__cxa_eh_globals): large
// enough for { __cxa_exception* caughtExceptions; unsigned uncaught; }.
struct EhState {
  alignas(alignof(void*)) unsigned char bytes[2 * sizeof(void*)] = {};
};
}  // namespace detail
#endif

class Process {
 public:
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  /// Consumes `seconds` of virtual time. Must be called from inside the
  /// process body. `seconds` may be zero (yields and re-runs at the same
  /// timestamp, after other processes ready at that time). A process inside
  /// advance() is NOT wakeable: it models busy compute.
  void advance(double seconds);

  /// Like advance(), but runs `work` — the real computation the interval
  /// models — on the engine's host thread pool while other processes are
  /// scheduled. The process resumes only when BOTH the virtual deadline is
  /// reached and `work` has completed, so event order (and therefore every
  /// metric) is identical to calling `work(); advance(seconds);` — which is
  /// exactly what happens when the engine has no pool (compute_threads<=1).
  ///
  /// `work` must touch only state owned by this process (model replica,
  /// batch iterator, private RNG): it runs concurrently with OTHER simulated
  /// processes. Shared-state mutation (PS apply, mailbox send) must stay on
  /// the simulated thread. Exceptions thrown by `work` propagate here.
  void advance_compute(double seconds, std::function<void()> work);

  /// Waits on the host, with no virtual time passing, until this process's
  /// in-flight advance_compute closure (if any) has finished. Another
  /// process calls it before it writes state the closure reads, so the
  /// closure sees what it sees in sequential mode.
  void join_compute() const {
    if (compute_.valid()) compute_.wait();
  }

  /// Blocks until another process calls SimEngine::wake() on this process.
  /// Used by mailboxes when no deliverable message exists.
  void wait_event();

  /// Sleeps until virtual time `at`, but can be woken earlier by wake().
  /// Used by mailboxes when the earliest matching message is still in
  /// flight (arrival known) yet an earlier one might still be sent.
  void wait_event_until(double at);

  /// Virtual clock (engine-wide).
  [[nodiscard]] double now() const noexcept;

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] SimEngine& engine() noexcept { return *engine_; }

 private:
  friend class SimEngine;

  enum class State { created, ready, running, blocked, done };

  Process(SimEngine* engine, int id, std::string name,
          std::function<void(Process&)> body, bool daemon);

  // Entry point of the execution context: runs body_, records failures,
  // then finishes. In fiber mode a new fiber's first switch enters it
  // through fiber_entry.
  void context_main();
#if DT_SIM_FIBERS
  static void fiber_entry(Process* self) noexcept;
#endif

  // Marks this process done, updates the live counter / failure latch, and
  // passes the baton on (never resumes this process again). Requires the
  // scheduler to be held by this process.
  void finish_locked();

  SimEngine* engine_;
  int id_;
  std::string name_;
  std::function<void(Process&)> body_;
  bool daemon_;

  State state_ = State::created;
  double ready_time_ = 0.0;
  std::uint64_t ready_seq_ = 0;  // FIFO tie-break for equal ready times
  int heap_index_ = -1;          // slot in SimEngine::heap_, -1 if absent
  bool wakeable_ = false;        // true only while waiting for an event
  bool kill_requested_ = false;
  std::exception_ptr failure_;

#if DT_SIM_FIBERS
  void* sp_ = nullptr;            // saved stack pointer while suspended
  void* stack_base_ = nullptr;    // mmap'd stack, guard page at low end
  std::size_t stack_bytes_ = 0;   // total mapping size incl. guard
  detail::EhState eh_state_;      // saved exception-handling globals
#else
  std::condition_variable cv_;
  std::thread thread_;
#endif
  std::future<void> compute_;  // the in-flight advance_compute closure
};

class SimEngine {
 public:
  SimEngine() = default;
  ~SimEngine();

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Registers a process. `daemon` processes (servers) do not keep the
  /// simulation alive: once every non-daemon process finishes, daemons are
  /// killed via ProcessKilled at their next yield point. Must be called
  /// before run() (no dynamic spawning mid-run).
  Process& spawn(std::string name, std::function<void(Process&)> body,
                 bool daemon = false);

  /// Runs the simulation until all non-daemon processes complete. Rethrows
  /// the first exception raised inside any process. Throws on deadlock
  /// (processes remain but none is ready) with the blocked process names.
  void run();

  [[nodiscard]] double now() const noexcept { return now_; }

  /// Makes a blocked process runnable at virtual time `at` (>= now at the
  /// time it actually resumes; if `at` is in the past it resumes "now").
  /// If the process is already ready, its wake-up moves earlier only
  /// (min(at, current)). Callable only from a running process.
  void wake(Process& p, double at);

  /// Host threads available to advance_compute(). `threads <= 1` disables
  /// offload entirely (closures run inline, reproducing the historical
  /// strictly-sequential execution). Call before run(); the pool itself is
  /// created lazily at the first offloaded interval.
  void set_compute_threads(int threads);
  [[nodiscard]] int compute_threads() const noexcept {
    return compute_threads_;
  }

  [[nodiscard]] std::size_t num_processes() const noexcept {
    return processes_.size();
  }

  /// Engine self-metrics (see SimStats). Valid at any point; complete once
  /// run() returns.
  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }

 private:
  friend class Process;

#if DT_SIM_FIBERS
  // Single OS thread: scheduler state needs no lock.
  struct SchedLock {
    explicit SchedLock(std::mutex&) noexcept {}
    void unlock() noexcept {}
  };
#else
  using SchedLock = std::unique_lock<std::mutex>;
#endif

  // Indexed binary min-heap over ready processes, keyed by
  // (ready_time_, ready_seq_). heap_index_ on each Process makes wake()'s
  // decrease-key and resume_locked()'s removal O(log P). All helpers
  // require the scheduler lock.
  static bool heap_before(const Process& a, const Process& b) noexcept;
  void heap_push_locked(Process& p);
  Process* heap_pop_min_locked();
  void heap_remove_locked(Process& p);
  void heap_sift_up_locked(std::size_t i);
  void heap_sift_down_locked(std::size_t i);

  // Pops the earliest ready process (nullptr if none).
  Process* pop_next_locked();

  // Picks who runs after the current process gives up the baton: the next
  // ready process (heap minimum, clock advanced, event counted, running_
  // set) or nullptr — the engine context — when a stop condition holds
  // (shutdown, failure, no regular process left, nothing ready).
  Process* pick_handoff_locked();

  // Re-queues the running process `p`, whose key was just set, and picks
  // who runs next exactly as a push plus pick_handoff_locked would: `p`
  // itself when it is still the earliest event (heap untouched, no switch),
  // otherwise the heap root, which `p` replaces with one sift-down. Stop
  // conditions push `p` and return nullptr (the engine context).
  Process* requeue_locked(Process& p);

  // Mechanism-specific control transfer. suspend(): the running process
  // stops and `to` (nullptr = engine context) continues; returns when this
  // process is resumed. dispatch(): the engine context resumes `to` (whose
  // running_ must already be set) and returns when the baton comes back.
  // transfer_from_finished(): like suspend() but the caller is done and is
  // never resumed.
  void suspend(SchedLock& lock, Process& from, Process* to);
  void dispatch(SchedLock& lock, Process& to);
  void transfer_from_finished(Process& from, Process* to);

  // Shutdown-mode drive: resume `p` and wait for it to yield the baton
  // back. Used only by kill_daemons_locked and the destructor.
  void resume_locked(SchedLock& lock, Process& p);
  void kill_daemons_locked(SchedLock& lock);

  // Lazily built pool for advance_compute (nullptr when compute_threads_
  // <= 1). Only the currently running process touches it, and process
  // execution is serialized, so no extra locking is needed.
  ThreadPool* compute_pool_or_null();

  std::mutex mu_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Process*> heap_;
  Process* running_ = nullptr;  // nullptr = engine holds the baton
  Process* failed_ = nullptr;   // first process whose body threw
  double now_ = 0.0;
  std::uint64_t seq_counter_ = 0;
  std::uint64_t live_regular_ = 0;  // unfinished non-daemon processes
  SimStats stats_;
  bool started_ = false;
  bool shutdown_ = false;  // yields return to the engine (kill driving)
  int compute_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;

#if DT_SIM_FIBERS
  void* sched_sp_ = nullptr;      // engine context (run() / kill drivers)
  detail::EhState sched_eh_state_;
#else
  std::condition_variable engine_cv_;
#endif
};

}  // namespace dt::runtime
