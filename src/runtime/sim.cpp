#include "runtime/sim.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/error.hpp"

#if DT_SIM_FIBERS
#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>

// libstdc++/libc++abi keep the in-flight-exception bookkeeping in a
// per-OS-thread structure. All fibers of an engine share one OS thread, so
// this state is saved and restored at every context switch — otherwise an
// exception unwinding in one fiber (ProcessKilled through a destructor, a
// TimeoutError retry loop) would corrupt `std::uncaught_exceptions` and the
// caught-exception stack seen by the others. Mirror of the ABI struct; the
// layout is fixed by the Itanium C++ ABI.
namespace __cxxabiv1 {
struct __cxa_eh_globals {
  void* caughtExceptions;
  unsigned int uncaughtExceptions;
};
extern "C" __cxa_eh_globals* __cxa_get_globals() noexcept;
}  // namespace __cxxabiv1

// Fiber context switch (x86-64 System V). dt_sim_fiber_switch pushes the
// callee-saved registers and the FP control words (MXCSR, x87 CW) of the
// calling context onto its own stack, stores the resulting stack pointer
// in *save, loads `load` — a stack pointer saved the same way — and pops
// that context's state, returning into it. Caller-saved registers need no
// saving: the compiler already treats them as clobbered by the call. The
// signal mask is deliberately not part of a context (the simulator never
// changes it), which is what keeps a switch free of system calls.
//
// dt_sim_fiber_start is where a new fiber's hand-built initial frame (see
// the Process constructor) returns to: it calls the entry function in r13
// with the Process* in r12 on a 16-byte aligned stack. The entry never
// returns; ud2 traps if it ever did. `.cfi_undefined rip` marks it as the
// outermost frame, so unwinders and debuggers stop there.
extern "C" void dt_sim_fiber_switch(void** save, void* load);
extern "C" void dt_sim_fiber_start();
asm(R"(
        .pushsection .text
        .globl  dt_sim_fiber_switch
        .hidden dt_sim_fiber_switch
        .type   dt_sim_fiber_switch, @function
        .p2align 4
dt_sim_fiber_switch:
        .cfi_startproc
        pushq   %rbp
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %rbp, 0
        pushq   %rbx
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %rbx, 0
        pushq   %r12
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r12, 0
        pushq   %r13
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r13, 0
        pushq   %r14
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r14, 0
        pushq   %r15
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r15, 0
        subq    $8, %rsp
        .cfi_adjust_cfa_offset 8
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        fldcw   4(%rsp)
        ldmxcsr (%rsp)
        addq    $8, %rsp
        .cfi_adjust_cfa_offset -8
        popq    %r15
        .cfi_adjust_cfa_offset -8
        popq    %r14
        .cfi_adjust_cfa_offset -8
        popq    %r13
        .cfi_adjust_cfa_offset -8
        popq    %r12
        .cfi_adjust_cfa_offset -8
        popq    %rbx
        .cfi_adjust_cfa_offset -8
        popq    %rbp
        .cfi_adjust_cfa_offset -8
        ret
        .cfi_endproc
        .size   dt_sim_fiber_switch, .-dt_sim_fiber_switch

        .globl  dt_sim_fiber_start
        .hidden dt_sim_fiber_start
        .type   dt_sim_fiber_start, @function
        .p2align 4
dt_sim_fiber_start:
        .cfi_startproc
        .cfi_undefined rip
        movq    %r12, %rdi
        callq   *%r13
        ud2
        .cfi_endproc
        .size   dt_sim_fiber_start, .-dt_sim_fiber_start
        .popsection
)");
#endif

namespace dt::runtime {

#if DT_SIM_FIBERS
namespace {

std::size_t fiber_stack_bytes() {
  // Stacks are lazily committed by the kernel, so generous virtual sizing
  // costs only touched pages. DT_SIM_STACK_KB overrides (min 64 KiB).
  static const std::size_t bytes = [] {
    std::size_t kb = 256;
    if (const char* env = std::getenv("DT_SIM_STACK_KB")) {
      const long v = std::atol(env);
      if (v >= 64) kb = static_cast<std::size_t>(v);
    }
    return kb * 1024;
  }();
  return bytes;
}

// The globals' address is fixed per OS thread; fibers run only on the
// thread that drives their engine, so one lookup per thread suffices.
__cxxabiv1::__cxa_eh_globals* eh_globals() {
  thread_local __cxxabiv1::__cxa_eh_globals* const globals =
      __cxxabiv1::__cxa_get_globals();
  return globals;
}

void eh_save(detail::EhState& into) {
  std::memcpy(into.bytes, eh_globals(), sizeof(__cxxabiv1::__cxa_eh_globals));
}

void eh_load(const detail::EhState& from) {
  std::memcpy(eh_globals(), from.bytes, sizeof(__cxxabiv1::__cxa_eh_globals));
}

}  // namespace
#endif

// ---- Process ------------------------------------------------------------------

#if DT_SIM_FIBERS

Process::Process(SimEngine* engine, int id, std::string name,
                 std::function<void(Process&)> body, bool daemon)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      daemon_(daemon) {
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  stack_bytes_ = fiber_stack_bytes() + page;
  stack_base_ = ::mmap(nullptr, stack_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  common::check(stack_base_ != MAP_FAILED,
                "SimEngine: cannot allocate a fiber stack");
  // Guard page at the low end: stacks grow downward, so a runaway frame
  // faults instead of silently scribbling over the neighbouring fiber.
  ::mprotect(stack_base_, page, PROT_NONE);
  // Initial frame, laid out exactly as dt_sim_fiber_switch leaves a
  // suspended context: FP control words, r15, r14, r13, r12, rbx, rbp,
  // return address. The first switch here "returns" into
  // dt_sim_fiber_start with rsp at the stack top, which is 16-byte aligned,
  // as the ABI requires at a call. The FP control words are inherited from
  // the spawning thread, as a new std::thread would inherit them.
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_cw));
  auto* const frame = reinterpret_cast<std::uint64_t*>(
                          static_cast<char*>(stack_base_) + stack_bytes_) -
                      8;
  frame[0] = mxcsr | (std::uint64_t{x87_cw} << 32);
  frame[1] = 0;  // r15
  frame[2] = 0;  // r14
  frame[3] = reinterpret_cast<std::uint64_t>(&Process::fiber_entry);  // r13
  frame[4] = reinterpret_cast<std::uint64_t>(this);                   // r12
  frame[5] = 0;  // rbx
  frame[6] = 0;  // rbp: ends the frame-pointer chain
  frame[7] = reinterpret_cast<std::uint64_t>(&dt_sim_fiber_start);
  sp_ = frame;
}

Process::~Process() {
  if (stack_base_ != nullptr) ::munmap(stack_base_, stack_bytes_);
}

#else  // !DT_SIM_FIBERS

Process::Process(SimEngine* engine, int id, std::string name,
                 std::function<void(Process&)> body, bool daemon)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      daemon_(daemon) {
  thread_ = std::thread([this] {
    {
      std::unique_lock<std::mutex> lock(engine_->mu_);
      cv_.wait(lock, [this] { return engine_->running_ == this; });
    }
    context_main();
  });
}

Process::~Process() = default;

#endif  // DT_SIM_FIBERS

void Process::context_main() {
  {
    SimEngine::SchedLock lock(engine_->mu_);
    if (kill_requested_) {
      // Killed before ever running (engine torn down without run()).
      finish_locked();
      return;
    }
    state_ = State::running;
  }
  try {
    body_(*this);
  } catch (const ProcessKilled&) {
    // normal daemon shutdown
  } catch (...) {
    failure_ = std::current_exception();
  }
  SimEngine::SchedLock lock(engine_->mu_);
  finish_locked();
}

void Process::finish_locked() {
  state_ = State::done;
  if (!daemon_) --engine_->live_regular_;
  if (failure_ && engine_->failed_ == nullptr) engine_->failed_ = this;
  engine_->transfer_from_finished(*this, engine_->pick_handoff_locked());
}

void Process::advance(double seconds) {
  common::check(seconds >= 0.0, "Process::advance: negative duration");
  SimEngine::SchedLock lock(engine_->mu_);
  common::check(engine_->running_ == this,
                "Process::advance called from outside the process");
  state_ = State::ready;
  ready_time_ = engine_->now_ + seconds;
  ready_seq_ = ++engine_->seq_counter_;
  wakeable_ = false;
  if (Process* const next = engine_->requeue_locked(*this); next != this) {
    engine_->suspend(lock, *this, next);
    wakeable_ = false;
  }
  state_ = State::running;
  if (kill_requested_) {
    // If the stack is already unwinding (a destructor yielded while
    // ProcessKilled propagates), throwing again would terminate; let the
    // unwind continue instead.
    if (std::uncaught_exceptions() == 0) throw ProcessKilled{};
  }
}

void Process::advance_compute(double seconds, std::function<void()> work) {
  common::check(seconds >= 0.0, "Process::advance_compute: negative duration");
  common::check(work != nullptr, "Process::advance_compute: null closure");
  ThreadPool* pool = engine_->compute_pool_or_null();
  if (pool == nullptr) {
    // Sequential mode: today's behavior, bit for bit.
    work();
    advance(seconds);
    return;
  }
  compute_ = pool->submit(std::move(work));
  try {
    advance(seconds);
  } catch (...) {
    // The closure references caller-owned state; it must finish before the
    // stack unwinds (e.g. ProcessKilled during engine shutdown).
    compute_.wait();
    throw;
  }
  compute_.get();  // joins the closure; rethrows its failure, if any
}

void Process::wait_event() {
  SimEngine::SchedLock lock(engine_->mu_);
  common::check(engine_->running_ == this,
                "Process::wait_event called from outside the process");
  state_ = State::blocked;
  wakeable_ = true;
  engine_->suspend(lock, *this, engine_->pick_handoff_locked());
  wakeable_ = false;
  state_ = State::running;
  if (kill_requested_) {
    if (std::uncaught_exceptions() == 0) throw ProcessKilled{};
  }
}

void Process::wait_event_until(double at) {
  SimEngine::SchedLock lock(engine_->mu_);
  common::check(engine_->running_ == this,
                "Process::wait_event_until called from outside the process");
  state_ = State::ready;
  ready_time_ = std::max(at, engine_->now_);
  ready_seq_ = ++engine_->seq_counter_;
  wakeable_ = true;
  if (Process* const next = engine_->requeue_locked(*this); next != this) {
    engine_->suspend(lock, *this, next);
  }
  wakeable_ = false;
  state_ = State::running;
  if (kill_requested_) {
    if (std::uncaught_exceptions() == 0) throw ProcessKilled{};
  }
}

double Process::now() const noexcept { return engine_->now_; }

#if DT_SIM_FIBERS
void Process::fiber_entry(Process* self) noexcept { self->context_main(); }
#endif

// ---- SimEngine ------------------------------------------------------------------

SimEngine::~SimEngine() {
  // Unblock every process that never finished (e.g. when run() threw or was
  // never called), letting ProcessKilled unwind their stacks.
  SchedLock lock(mu_);
  shutdown_ = true;
  for (auto& p : processes_) {
    p->kill_requested_ = true;
    while (p->state_ != Process::State::done) {
      resume_locked(lock, *p);
    }
  }
  lock.unlock();
#if !DT_SIM_FIBERS
  for (auto& p : processes_) {
    if (p->thread_.joinable()) p->thread_.join();
  }
#endif
}

Process& SimEngine::spawn(std::string name, std::function<void(Process&)> body,
                          bool daemon) {
  SchedLock lock(mu_);
  common::check(!started_, "SimEngine::spawn after run() started");
  auto proc = std::unique_ptr<Process>(new Process(
      this, static_cast<int>(processes_.size()), std::move(name),
      std::move(body), daemon));
  proc->state_ = Process::State::ready;
  proc->ready_time_ = 0.0;
  proc->ready_seq_ = ++seq_counter_;
  processes_.push_back(std::move(proc));
  Process& ref = *processes_.back();
  heap_push_locked(ref);
  if (!daemon) ++live_regular_;
  ++stats_.processes;
  return ref;
}

// ---- ready heap -----------------------------------------------------------------

bool SimEngine::heap_before(const Process& a, const Process& b) noexcept {
  return a.ready_time_ < b.ready_time_ ||
         (a.ready_time_ == b.ready_time_ && a.ready_seq_ < b.ready_seq_);
}

void SimEngine::heap_sift_up_locked(std::size_t i) {
  Process* const p = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_before(*p, *heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_[i]->heap_index_ = static_cast<int>(i);
    i = parent;
  }
  heap_[i] = p;
  p->heap_index_ = static_cast<int>(i);
}

void SimEngine::heap_sift_down_locked(std::size_t i) {
  Process* const p = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_before(*heap_[child + 1], *heap_[child])) {
      ++child;
    }
    if (!heap_before(*heap_[child], *p)) break;
    heap_[i] = heap_[child];
    heap_[i]->heap_index_ = static_cast<int>(i);
    i = child;
  }
  heap_[i] = p;
  p->heap_index_ = static_cast<int>(i);
}

void SimEngine::heap_push_locked(Process& p) {
  p.heap_index_ = static_cast<int>(heap_.size());
  heap_.push_back(&p);
  heap_sift_up_locked(heap_.size() - 1);
}

Process* SimEngine::heap_pop_min_locked() {
  Process* const top = heap_.front();
  top->heap_index_ = -1;
  Process* const last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    last->heap_index_ = 0;
    heap_sift_down_locked(0);
  }
  return top;
}

void SimEngine::heap_remove_locked(Process& p) {
  const auto i = static_cast<std::size_t>(p.heap_index_);
  p.heap_index_ = -1;
  Process* const last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    heap_[i] = last;
    last->heap_index_ = static_cast<int>(i);
    heap_sift_down_locked(i);
    heap_sift_up_locked(static_cast<std::size_t>(last->heap_index_));
  }
}

// ---- dispatch -------------------------------------------------------------------

Process* SimEngine::pop_next_locked() {
  if (heap_.empty()) return nullptr;
  return heap_pop_min_locked();
}

Process* SimEngine::pick_handoff_locked() {
  // Stop conditions return the baton to the engine context (run()'s loop, a
  // kill driver, or the destructor); otherwise it goes straight to the next
  // ready process and the engine context stays suspended.
  if (shutdown_ || failed_ != nullptr || live_regular_ == 0 ||
      heap_.empty()) {
    running_ = nullptr;
    return nullptr;
  }
  Process* const next = pop_next_locked();
  now_ = std::max(now_, next->ready_time_);
  ++stats_.events;
  running_ = next;
  return next;
}

Process* SimEngine::requeue_locked(Process& p) {
  if (shutdown_ || failed_ != nullptr || live_regular_ == 0) {
    heap_push_locked(p);
    running_ = nullptr;
    return nullptr;
  }
  // What a push followed by pick_handoff_locked would count.
  ++stats_.events;
  // Keys are unique, so `p` before the root means `p` is the minimum and
  // keeps running; otherwise the root runs and `p` takes its slot.
  Process* next = &p;
  if (!heap_.empty() && heap_before(*heap_.front(), p)) {
    next = heap_.front();
    next->heap_index_ = -1;
    heap_.front() = &p;
    heap_sift_down_locked(0);
    running_ = next;
  }
  now_ = std::max(now_, next->ready_time_);
  return next;
}

#if DT_SIM_FIBERS

void SimEngine::suspend(SchedLock&, Process& from, Process* to) {
  eh_save(from.eh_state_);
  eh_load(to != nullptr ? to->eh_state_ : sched_eh_state_);
  dt_sim_fiber_switch(&from.sp_, to != nullptr ? to->sp_ : sched_sp_);
  // Resumed: whoever switched here restored our eh_state_ first.
}

void SimEngine::dispatch(SchedLock&, Process& to) {
  eh_save(sched_eh_state_);
  eh_load(to.eh_state_);
  dt_sim_fiber_switch(&sched_sp_, to.sp_);
  // Control only returns here once some process set running_ = nullptr.
}

void SimEngine::transfer_from_finished(Process& from, Process* to) {
  eh_save(from.eh_state_);  // discarded; keeps the switch protocol uniform
  eh_load(to != nullptr ? to->eh_state_ : sched_eh_state_);
  dt_sim_fiber_switch(&from.sp_, to != nullptr ? to->sp_ : sched_sp_);
  // Never reached: a done process is not resumed.
}

#else  // !DT_SIM_FIBERS

void SimEngine::suspend(SchedLock& lock, Process& from, Process* to) {
  if (to != nullptr) {
    to->cv_.notify_one();
  } else {
    engine_cv_.notify_one();
  }
  from.cv_.wait(lock, [this, &from] { return running_ == &from; });
}

void SimEngine::dispatch(SchedLock& lock, Process& to) {
  to.cv_.notify_one();
  engine_cv_.wait(lock, [this] { return running_ == nullptr; });
}

void SimEngine::transfer_from_finished(Process&, Process* to) {
  if (to != nullptr) {
    to->cv_.notify_one();
  } else {
    engine_cv_.notify_one();
  }
}

#endif  // DT_SIM_FIBERS

void SimEngine::resume_locked(SchedLock& lock, Process& p) {
  ++stats_.events;
  if (p.heap_index_ >= 0) heap_remove_locked(p);
  running_ = &p;
  dispatch(lock, p);
}

void SimEngine::kill_daemons_locked(SchedLock& lock) {
  shutdown_ = true;  // yields now return the baton to this driver
  for (auto& p : processes_) {
    if (p->state_ == Process::State::done) continue;
    p->kill_requested_ = true;
    // A killed process may pass through several yield points while its
    // destructors run; drive it until completion.
    while (p->state_ != Process::State::done) {
      resume_locked(lock, *p);
    }
  }
}

void SimEngine::run() {
  SchedLock lock(mu_);
  common::check(!started_, "SimEngine::run called twice");
  started_ = true;

  std::exception_ptr failure;
  for (;;) {
    if (failed_ != nullptr) {
      failure = failed_->failure_;
      break;
    }
    if (live_regular_ == 0) break;  // only daemons left: normal end
    Process* const next = pop_next_locked();
    if (next == nullptr) {
      std::ostringstream blocked_names;
      for (auto& p : processes_) {
        if (p->state_ == Process::State::done || p->daemon_) continue;
        blocked_names << ' ' << p->name_;
      }
      kill_daemons_locked(lock);
      lock.unlock();
      common::fail("SimEngine: deadlock — blocked processes:" +
                   blocked_names.str());
    }
    now_ = std::max(now_, next->ready_time_);
    ++stats_.events;
    running_ = next;
    // Processes hand off among themselves; the engine context regains the
    // baton only when a stop condition held at some yield point.
    dispatch(lock, *next);
  }

  kill_daemons_locked(lock);
  lock.unlock();
#if !DT_SIM_FIBERS
  for (auto& p : processes_) {
    if (p->thread_.joinable()) p->thread_.join();
  }
#endif
  if (!failure) {
    // A process other than the failure latch's pick may have failed during
    // shutdown unwinding; surface the first in spawn order.
    for (auto& p : processes_) {
      if (p->failure_) {
        failure = p->failure_;
        break;
      }
    }
  }
  if (failure) std::rethrow_exception(failure);
}

void SimEngine::set_compute_threads(int threads) {
  SchedLock lock(mu_);
  common::check(!started_, "SimEngine::set_compute_threads after run()");
  compute_threads_ = std::max(1, threads);
}

ThreadPool* SimEngine::compute_pool_or_null() {
  if (compute_threads_ <= 1) return nullptr;
  if (!pool_) pool_ = std::make_unique<ThreadPool>(compute_threads_);
  return pool_.get();
}

void SimEngine::wake(Process& p, double at) {
  SchedLock lock(mu_);
  common::check(running_ != nullptr, "SimEngine::wake from outside a process");
  ++stats_.wakes;
  const double at_clamped = std::max(at, now_);
  if (p.state_ == Process::State::blocked) {
    p.state_ = Process::State::ready;
    p.ready_time_ = at_clamped;
    p.ready_seq_ = ++seq_counter_;
    heap_push_locked(p);
  } else if (p.state_ == Process::State::ready && p.wakeable_) {
    if (at_clamped < p.ready_time_) {
      // Decrease-key: the new (time, seq) is strictly smaller in time, so
      // the entry can only move toward the root.
      p.ready_time_ = at_clamped;
      p.ready_seq_ = ++seq_counter_;
      heap_sift_up_locked(static_cast<std::size_t>(p.heap_index_));
    }
  }
  // Running/done/non-wakeable-ready processes are left untouched: the
  // payload sits in its queue and is observed at the next scan.
}

}  // namespace dt::runtime
