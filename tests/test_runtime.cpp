// Tests for the cooperative virtual-time runtime: event ordering,
// determinism, wake semantics, daemons, deadlock detection, and error
// propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "runtime/sim.hpp"

namespace dt::runtime {
namespace {

TEST(Sim, SingleProcessAdvancesClock) {
  SimEngine engine;
  double observed = -1.0;
  engine.spawn("p", [&](Process& self) {
    EXPECT_EQ(self.now(), 0.0);
    self.advance(1.5);
    self.advance(0.5);
    observed = self.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(observed, 2.0);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
}

TEST(Sim, ProcessesInterleaveInTimeOrder) {
  SimEngine engine;
  std::vector<std::string> log;
  engine.spawn("slow", [&](Process& self) {
    self.advance(10.0);
    log.push_back("slow@" + std::to_string(static_cast<int>(self.now())));
  });
  engine.spawn("fast", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      self.advance(2.0);
      log.push_back("fast@" + std::to_string(static_cast<int>(self.now())));
    }
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"fast@2", "fast@4", "fast@6",
                                           "slow@10"}));
}

TEST(Sim, FifoTieBreakAtEqualTimes) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.spawn("p" + std::to_string(i), [&order, i](Process& self) {
      self.advance(1.0);
      order.push_back(i);
    });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Sim, ZeroAdvanceYieldsToPeersAtSameTime) {
  SimEngine engine;
  std::vector<int> order;
  engine.spawn("a", [&](Process& self) {
    order.push_back(1);
    self.advance(0.0);
    order.push_back(3);
  });
  engine.spawn("b", [&](Process&) { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Sim, NegativeAdvanceThrows) {
  SimEngine engine;
  engine.spawn("p", [](Process& self) { self.advance(-1.0); });
  EXPECT_THROW(engine.run(), common::Error);
}

TEST(Sim, WakeUnblocksAtRequestedTime) {
  SimEngine engine;
  double woken_at = -1.0;
  Process& sleeper = engine.spawn("sleeper", [&](Process& self) {
    self.wait_event();
    woken_at = self.now();
  });
  engine.spawn("waker", [&](Process& self) {
    self.advance(1.0);
    self.engine().wake(sleeper, 5.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(woken_at, 5.0);
}

TEST(Sim, WakeInThePastClampsToNow) {
  SimEngine engine;
  double woken_at = -1.0;
  Process& sleeper = engine.spawn("sleeper", [&](Process& self) {
    self.wait_event();
    woken_at = self.now();
  });
  engine.spawn("waker", [&](Process& self) {
    self.advance(3.0);
    self.engine().wake(sleeper, 1.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(woken_at, 3.0);
}

TEST(Sim, WakeMovesWakeableSleepEarlier) {
  SimEngine engine;
  double woken_at = -1.0;
  Process& sleeper = engine.spawn("sleeper", [&](Process& self) {
    self.wait_event_until(100.0);
    woken_at = self.now();
  });
  engine.spawn("waker", [&](Process& self) {
    self.advance(2.0);
    self.engine().wake(sleeper, 4.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(woken_at, 4.0);
}

TEST(Sim, WakeDoesNotInterruptComputeAdvance) {
  SimEngine engine;
  double finished_at = -1.0;
  Process& computer = engine.spawn("computer", [&](Process& self) {
    self.advance(10.0);  // busy compute: not wakeable
    finished_at = self.now();
  });
  engine.spawn("waker", [&](Process& self) {
    self.advance(1.0);
    self.engine().wake(computer, 2.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(finished_at, 10.0);
}

TEST(Sim, WaitEventUntilExpiresWithoutWake) {
  SimEngine engine;
  double t = -1.0;
  engine.spawn("p", [&](Process& self) {
    self.wait_event_until(7.0);
    t = self.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(t, 7.0);
}

TEST(Sim, DaemonsAreKilledWhenRegularsFinish) {
  SimEngine engine;
  bool daemon_cleanup_ran = false;
  engine.spawn(
      "server",
      [&](Process& self) {
        struct Cleanup {
          bool* flag;
          ~Cleanup() { *flag = true; }
        } cleanup{&daemon_cleanup_ran};
        for (;;) self.wait_event();  // ProcessKilled unwinds through here
      },
      /*daemon=*/true);
  engine.spawn("worker", [](Process& self) { self.advance(1.0); });
  engine.run();
  EXPECT_TRUE(daemon_cleanup_ran);
}

TEST(Sim, DeadlockOfRegularProcessesIsDetected) {
  SimEngine engine;
  Process* a_ptr = nullptr;
  Process* b_ptr = nullptr;
  Process& a = engine.spawn("A", [&](Process& self) {
    self.wait_event();  // waits for B, who waits for A
    self.engine().wake(*b_ptr, self.now());
  });
  Process& b = engine.spawn("B", [&](Process& self) {
    self.wait_event();
    self.engine().wake(*a_ptr, self.now());
  });
  a_ptr = &a;
  b_ptr = &b;
  try {
    engine.run();
    FAIL() << "deadlock not detected";
  } catch (const common::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("A"), std::string::npos);
    EXPECT_NE(what.find("B"), std::string::npos);
  }
}

TEST(Sim, ExceptionInProcessPropagates) {
  SimEngine engine;
  engine.spawn("boom", [](Process& self) {
    self.advance(1.0);
    common::fail("exploded");
  });
  engine.spawn("bystander", [](Process& self) { self.advance(100.0); });
  try {
    engine.run();
    FAIL() << "exception not propagated";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("exploded"), std::string::npos);
  }
}

TEST(Sim, RunTwiceThrows) {
  SimEngine engine;
  engine.spawn("p", [](Process& self) { self.advance(1.0); });
  engine.run();
  EXPECT_THROW(engine.run(), common::Error);
}

TEST(Sim, SpawnAfterRunThrows) {
  SimEngine engine;
  engine.spawn("p", [](Process& self) { self.advance(1.0); });
  engine.run();
  EXPECT_THROW(engine.spawn("late", [](Process&) {}), common::Error);
}

TEST(Sim, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimEngine engine;
    std::vector<double> times;
    for (int i = 0; i < 8; ++i) {
      engine.spawn("p" + std::to_string(i), [&times, i](Process& self) {
        for (int k = 0; k < 20; ++k) {
          self.advance(0.1 * ((i * 7 + k) % 5 + 1));
        }
        times.push_back(self.now());
      });
    }
    engine.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Sim, ManyProcessesStress) {
  SimEngine engine;
  int finished = 0;
  for (int i = 0; i < 64; ++i) {
    engine.spawn("p" + std::to_string(i), [&finished, i](Process& self) {
      for (int k = 0; k < 50; ++k) self.advance(0.001 * (i + 1));
      ++finished;
    });
  }
  engine.run();
  EXPECT_EQ(finished, 64);
}

TEST(Sim, DestructorCleansUpWithoutRun) {
  // Spawning processes and destroying the engine without run() must not
  // hang or crash (threads are killed at their first yield point).
  auto engine = std::make_unique<SimEngine>();
  engine->spawn("never-run", [](Process& self) { self.advance(1.0); });
  engine.reset();
  SUCCEED();
}

// ---- per-process execution state ----------------------------------------------
//
// Processes share one OS thread in fiber mode, so everything a context switch
// must carry — FP control words, the C++ exception-handling globals, an
// ABI-aligned stack — is pinned here. The thread backend gets the same
// guarantees from its per-process threads.

TEST(Sim, FloatingPointEnvironmentIsPerProcess) {
  SimEngine engine;
  volatile double one = 1.0;
  volatile double three = 3.0;
  int b_at_entry = -1;
  int b_after_resume = -1;
  int a_after_resume = -1;
  double b_third = 0.0;
  double a_third = 0.0;
  engine.spawn("a", [&](Process& self) {
    std::fesetround(FE_UPWARD);
    self.advance(1.0);  // b runs while a is suspended rounding upward
    a_after_resume = std::fegetround();
    a_third = one / three;  // SSE division: reads MXCSR, not the x87 CW
  });
  engine.spawn("b", [&](Process& self) {
    b_at_entry = std::fegetround();
    self.advance(0.5);
    b_after_resume = std::fegetround();
    b_third = one / three;
  });
  engine.run();
  const int host_mode = std::fegetround();
  std::fesetround(FE_TONEAREST);  // never leak a mode into later tests
  EXPECT_EQ(b_at_entry, FE_TONEAREST);
  EXPECT_EQ(b_after_resume, FE_TONEAREST);
  EXPECT_EQ(a_after_resume, FE_UPWARD);
  EXPECT_GT(a_third, b_third);  // 1/3 rounds down to nearest, up in a
  EXPECT_EQ(host_mode, FE_TONEAREST);
}

std::string what_of(const std::exception_ptr& e) {
  if (!e) return "<none>";
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  }
}

TEST(Sim, ExceptionStateIsPerProcess) {
  // a yields inside a catch handler (t=0..1) and inside a destructor run by
  // unwinding (t=1..2); b throws, catches and yields in its own handler in
  // between. Each must see only its own exceptions on resume.
  SimEngine engine;
  std::string a_handler;
  int a_handler_uncaught = -1;
  int a_dtor_uncaught = -1;
  std::string a_second;
  std::string a_after;
  int a_after_uncaught = -1;
  std::string b_entry;
  int b_entry_uncaught = -1;
  std::string b_handler;
  int b_handler_uncaught = -1;
  std::string b_after;
  struct YieldInDtor {
    Process& self;
    int* uncaught;
    ~YieldInDtor() {
      self.advance(1.0);
      *uncaught = std::uncaught_exceptions();
    }
  };
  engine.spawn("a", [&](Process& self) {
    try {
      throw std::runtime_error("a1");
    } catch (const std::exception&) {
      self.advance(1.0);
      a_handler = what_of(std::current_exception());
      a_handler_uncaught = std::uncaught_exceptions();
    }
    try {
      YieldInDtor guard{self, &a_dtor_uncaught};
      throw std::runtime_error("a2");
    } catch (const std::exception& e) {
      a_second = e.what();
    }
    a_after = what_of(std::current_exception());
    a_after_uncaught = std::uncaught_exceptions();
  });
  engine.spawn("b", [&](Process& self) {
    b_entry = what_of(std::current_exception());  // a is inside a handler
    b_entry_uncaught = std::uncaught_exceptions();
    try {
      throw std::logic_error("b1");
    } catch (const std::exception&) {
      self.advance(1.5);  // resumes while a's destructor is suspended
      b_handler = what_of(std::current_exception());
      b_handler_uncaught = std::uncaught_exceptions();
    }
    try {
      throw std::logic_error("b2");
    } catch (const std::exception& e) {
      b_after = e.what();
    }
  });
  engine.run();
  EXPECT_EQ(a_handler, "a1");
  EXPECT_EQ(a_handler_uncaught, 0);
  EXPECT_EQ(a_dtor_uncaught, 1);
  EXPECT_EQ(a_second, "a2");
  EXPECT_EQ(a_after, "<none>");
  EXPECT_EQ(a_after_uncaught, 0);
  EXPECT_EQ(b_entry, "<none>");
  EXPECT_EQ(b_entry_uncaught, 0);
  EXPECT_EQ(b_handler, "b1");
  EXPECT_EQ(b_handler_uncaught, 0);
  EXPECT_EQ(b_after, "b2");
  EXPECT_EQ(std::current_exception(), nullptr);
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

TEST(Sim, FreshProcessStackIsAbiAligned) {
  // A fiber's first frame is hand-built; a misaligned one shows up as a
  // misaligned alignas(16) local or a crash in SSE-spilling libc code.
  SimEngine engine;
  std::uintptr_t local_addr = 1;
  std::string text;
  engine.spawn("fresh", [&](Process&) {
    alignas(16) volatile unsigned char probe[16] = {};
    local_addr = reinterpret_cast<std::uintptr_t>(&probe[0]);
    text = std::to_string(2.5);
  });
  engine.run();
  EXPECT_EQ(local_addr % 16, 0u);
  EXPECT_EQ(text, "2.500000");
}

TEST(Sim, HeapDispatchMatchesLinearScanReference) {
  // A/B check of the scheduler's total order: the heap must dispatch in
  // exactly the (ready_time, ready_seq) order the old per-event linear
  // scan produced. The reference below IS that linear scan — spawn readies
  // every process at t=0 in spawn order, each advance re-readies at t+d
  // with the next global seq, min_element picks (time, seq).
  constexpr int kProcs = 12;
  constexpr int kSteps = 20;
  const auto delta = [](int id, int k) {
    return 0.5 * static_cast<double>((id * 7 + k * 3) % 5) + 0.25;
  };

  std::vector<std::pair<double, int>> expected;
  {
    struct Ev {
      double t;
      std::uint64_t seq;
      int id;
      int k;  // advances completed when this dispatch runs
    };
    std::vector<Ev> ready;
    std::uint64_t next_seq = 0;
    for (int i = 0; i < kProcs; ++i) ready.push_back({0.0, next_seq++, i, 0});
    while (!ready.empty()) {
      const auto it =
          std::min_element(ready.begin(), ready.end(), [](const Ev& a,
                                                          const Ev& b) {
            return a.t != b.t ? a.t < b.t : a.seq < b.seq;
          });
      const Ev e = *it;
      ready.erase(it);
      if (e.k > 0) expected.emplace_back(e.t, e.id);
      if (e.k < kSteps) {
        ready.push_back({e.t + delta(e.id, e.k), next_seq++, e.id, e.k + 1});
      }
    }
  }

  SimEngine engine;
  std::vector<std::pair<double, int>> log;
  for (int i = 0; i < kProcs; ++i) {
    engine.spawn("p" + std::to_string(i), [&log, delta, i](Process& self) {
      for (int k = 0; k < kSteps; ++k) {
        self.advance(delta(i, k));
        log.emplace_back(self.now(), i);
      }
    });
  }
  engine.run();
  EXPECT_EQ(log, expected);
}

TEST(Sim, MixedYieldsMatchLinearScanReference) {
  // Extends the A/B above to every kind of yield: advance (zero included),
  // wait_event_until, wait_event released by wake, and a wake that moves a
  // wakeable sleeper earlier (decrease-key). Regular processes run a seeded
  // script of those steps; daemons cycle through their own script forever
  // (so a wait_event there can never deadlock the run) and are killed once
  // the regular processes finish. The reference replays the same scripts on
  // a linear-scan model of the engine's rules and must predict the dispatch
  // order and the SimStats counters exactly.
  enum class Op { advance, wait_until, wait_event, wake };
  struct Step {
    Op op;
    double d;    // duration, or offset from now
    int target;  // wake only
  };
  constexpr int kRegular = 8;
  constexpr int kDaemons = 4;
  constexpr int kProcs = kRegular + kDaemons;
  constexpr int kRegularSteps = 60;
  constexpr int kDaemonSteps = 16;

  std::mt19937_64 rng(20240601);
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  std::vector<std::vector<Step>> scripts(kProcs);
  for (int i = 0; i < kProcs; ++i) {
    const bool daemon = i >= kRegular;
    const int steps = daemon ? kDaemonSteps : kRegularSteps;
    for (int k = 0; k < steps; ++k) {
      const int roll = pick(daemon ? 4 : 3);
      Step s{Op::advance, 0.25 * pick(5), -1};
      if (roll == 1) {
        s = {Op::wait_until, 0.25 * pick(9), -1};
      } else if (roll == 2) {
        s = {Op::wake, 0.25 * pick(3), (i + 1 + pick(kProcs - 1)) % kProcs};
      } else if (roll == 3) {
        s = {Op::wait_event, 0.0, -1};
      }
      scripts[static_cast<std::size_t>(i)].push_back(s);
    }
  }

  // Reference: the engine's rules, with a linear scan for the minimum.
  enum class St { ready, running, blocked, done };
  struct Ref {
    St st = St::ready;
    double t = 0.0;
    std::uint64_t seq = 0;
    bool wakeable = false;
    std::size_t pc = 0;
  };
  std::vector<Ref> ref(kProcs);
  std::uint64_t seq = 0;
  for (Ref& r : ref) r.seq = ++seq;
  double now = 0.0;
  int live_regular = kRegular;
  SimStats want;
  want.processes = kProcs;
  std::vector<std::pair<double, int>> expected;
  int self_resumes = 0, released = 0, decreased = 0, zero_advances = 0;
  int last = -1;
  while (live_regular > 0) {
    int next = -1;
    for (int i = 0; i < kProcs; ++i) {
      const Ref& r = ref[static_cast<std::size_t>(i)];
      if (r.st != St::ready) continue;
      const Ref* best =
          next < 0 ? nullptr : &ref[static_cast<std::size_t>(next)];
      if (best == nullptr || r.t < best->t ||
          (r.t == best->t && r.seq < best->seq)) {
        next = i;
      }
    }
    ASSERT_GE(next, 0) << "reference deadlocked";
    ++want.events;
    if (next == last) ++self_resumes;
    last = next;
    Ref& p = ref[static_cast<std::size_t>(next)];
    now = std::max(now, p.t);
    p.st = St::running;
    p.wakeable = false;
    expected.emplace_back(now, next);
    const auto& script = scripts[static_cast<std::size_t>(next)];
    for (;;) {
      if (next < kRegular && p.pc == script.size()) {
        p.st = St::done;
        --live_regular;
        break;
      }
      const Step s = script[p.pc++ % script.size()];
      if (s.op == Op::wake) {
        ++want.wakes;
        Ref& q = ref[static_cast<std::size_t>(s.target)];
        const double at = now + s.d;
        if (q.st == St::blocked) {
          q = {St::ready, at, ++seq, q.wakeable, q.pc};
          ++released;
        } else if (q.st == St::ready && q.wakeable && at < q.t) {
          q.t = at;
          q.seq = ++seq;
          ++decreased;
        }
        continue;
      }
      if (s.op == Op::wait_event) {
        p.st = St::blocked;
        p.wakeable = true;
      } else {
        if (s.op == Op::advance && s.d == 0.0) ++zero_advances;
        p.st = St::ready;
        p.t = now + s.d;
        p.seq = ++seq;
        p.wakeable = s.op == Op::wait_until;
      }
      break;
    }
  }
  // Shutdown resumes every unfinished daemon once to deliver ProcessKilled.
  for (const Ref& r : ref) {
    if (r.st != St::done) ++want.events;
  }
  // The script must exercise every path it claims to.
  EXPECT_GT(self_resumes, 0);
  EXPECT_GT(released, 0);
  EXPECT_GT(decreased, 0);
  EXPECT_GT(zero_advances, 0);

  SimEngine engine;
  std::vector<Process*> procs(kProcs);
  std::vector<std::pair<double, int>> log;
  for (int i = 0; i < kProcs; ++i) {
    const bool daemon = i >= kRegular;
    procs[static_cast<std::size_t>(i)] = &engine.spawn(
        "p" + std::to_string(i),
        [&, i, daemon](Process& self) {
          const auto& script = scripts[static_cast<std::size_t>(i)];
          log.emplace_back(self.now(), i);
          for (std::size_t pc = 0; daemon || pc < script.size(); ++pc) {
            const Step s = script[pc % script.size()];
            switch (s.op) {
              case Op::advance:
                self.advance(s.d);
                break;
              case Op::wait_until:
                self.wait_event_until(self.now() + s.d);
                break;
              case Op::wait_event:
                self.wait_event();
                break;
              case Op::wake:
                self.engine().wake(*procs[static_cast<std::size_t>(s.target)],
                                   self.now() + s.d);
                continue;
            }
            log.emplace_back(self.now(), i);
          }
        },
        daemon);
  }
  engine.run();
  EXPECT_EQ(log, expected);
  EXPECT_EQ(engine.stats().events, want.events);
  EXPECT_EQ(engine.stats().wakes, want.wakes);
  EXPECT_EQ(engine.stats().processes, want.processes);
}

TEST(Sim, WakeReordersWakeableSleeperAmongPeers) {
  // Decrease-key path: waking the LAST-spawned of three equal-deadline
  // sleepers to an earlier time must move it to the front of the dispatch
  // order, while the untouched two keep their FIFO tie-break at t=10.
  SimEngine engine;
  std::vector<std::string> log;
  std::vector<Process*> sleepers;
  for (int i = 0; i < 3; ++i) {
    sleepers.push_back(
        &engine.spawn("s" + std::to_string(i), [&log, i](Process& self) {
          self.wait_event_until(10.0);
          log.push_back("s" + std::to_string(i) + "@" +
                        std::to_string(static_cast<int>(self.now())));
        }));
  }
  engine.spawn("waker", [&](Process& self) {
    self.advance(1.0);
    self.engine().wake(*sleepers[2], 5.0);
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"s2@5", "s0@10", "s1@10"}));
}

TEST(Sim, TwoThousandDaemonsShutDownPromptly) {
  // Shutdown goes through the heap path: killing 2048 blocked daemons
  // after the single regular process finishes must be near-instant, both
  // via run() and via the destructor without run().
  const auto t0 = std::chrono::steady_clock::now();
  int cleaned = 0;
  {
    SimEngine engine;
    for (int i = 0; i < 2048; ++i) {
      engine.spawn(
          "d" + std::to_string(i),
          [&cleaned](Process& self) {
            struct Cleanup {
              int* c;
              ~Cleanup() { ++*c; }
            } guard{&cleaned};
            for (;;) self.wait_event();
          },
          /*daemon=*/true);
    }
    engine.spawn("w", [](Process& self) { self.advance(1.0); });
    engine.run();
  }
  EXPECT_EQ(cleaned, 2048);

  {
    auto engine = std::make_unique<SimEngine>();
    for (int i = 0; i < 2048; ++i) {
      engine->spawn(
          "d" + std::to_string(i),
          [](Process& self) {
            for (;;) self.wait_event();
          },
          /*daemon=*/true);
    }
    engine.reset();  // destructor kill path
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(wall, 20.0) << "daemon shutdown is not prompt";
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([&done] { done.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  pool.submit([] {}).get();
}

TEST(ThreadPool, ResolveThreadsPrecedence) {
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3);  // explicit wins
  ::setenv("DT_COMPUTE_THREADS", "7", 1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 7);
  EXPECT_EQ(ThreadPool::resolve_threads(2), 2);  // explicit still wins
  EXPECT_EQ(ThreadPool::resolve_threads(0, 1), 7);  // cap binds auto only
  ::unsetenv("DT_COMPUTE_THREADS");
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);  // hardware fallback
  EXPECT_EQ(ThreadPool::resolve_threads(0, 1), 1);
  EXPECT_EQ(ThreadPool::resolve_threads(3, 1), 3);
}

// ---- advance_compute --------------------------------------------------------

TEST(Sim, AdvanceComputeRunsClosureInline) {
  // compute_threads defaults to 1: the closure must run synchronously on
  // the simulated thread, exactly like work(); advance(t);.
  SimEngine engine;
  bool ran = false;
  engine.spawn("p", [&](Process& self) {
    self.advance_compute(2.0, [&ran] { ran = true; });
    EXPECT_TRUE(ran);  // completed by the time advance_compute returns
    EXPECT_DOUBLE_EQ(self.now(), 2.0);
  });
  engine.run();
  EXPECT_TRUE(ran);
}

TEST(Sim, AdvanceComputeJoinsBeforeResuming) {
  SimEngine engine;
  engine.set_compute_threads(4);
  std::atomic<bool> closure_done{false};
  engine.spawn("p", [&](Process& self) {
    self.advance_compute(1.0, [&closure_done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      closure_done.store(true);
    });
    // Even though the virtual deadline is hit immediately (no competing
    // processes), the process must not resume before the closure finished.
    EXPECT_TRUE(closure_done.load());
  });
  engine.run();
  EXPECT_TRUE(closure_done.load());
}

TEST(Sim, JoinComputeWaitsForAnotherProcessesClosure) {
  // A peer that joins the worker's in-flight closure mid-interval sees its
  // writes and may then write the same state: no virtual time passes, and
  // the plain int makes any missing happens-before a TSan report.
  SimEngine engine;
  engine.set_compute_threads(2);
  int replica = 0;
  Process& worker = engine.spawn("worker", [&replica](Process& self) {
    self.join_compute();  // nothing in flight: a no-op
    self.advance_compute(1.0, [&replica] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      replica = 1;
    });
    EXPECT_EQ(replica, 2);  // the peer's write at t = 0.5 came after
  });
  engine.spawn("peer", [&](Process& self) {
    self.advance(0.5);
    worker.join_compute();
    EXPECT_EQ(replica, 1);
    EXPECT_DOUBLE_EQ(self.now(), 0.5);
    replica = 2;
  });
  engine.run();
}

TEST(Sim, AdvanceComputeEventOrderMatchesSequential) {
  // The virtual event order must be a pure function of virtual times:
  // identical regardless of compute_threads.
  auto run_once = [](int threads) {
    SimEngine engine;
    engine.set_compute_threads(threads);
    std::mutex mu;
    std::vector<std::string> log;
    for (int i = 0; i < 4; ++i) {
      engine.spawn("p" + std::to_string(i), [&, i](Process& self) {
        for (int k = 0; k < 5; ++k) {
          self.advance_compute(0.1 * (i + 1), [&, i, k] {
            // Busy work of host-dependent duration.
            volatile double x = 0.0;
            for (int j = 0; j < 1000 * ((i + k) % 3 + 1); ++j) x = x + j;
            (void)x;
          });
          std::lock_guard<std::mutex> lock(mu);
          log.push_back("p" + std::to_string(i) + "@" +
                        std::to_string(self.now()));
        }
      });
    }
    engine.run();
    return log;
  };
  const auto seq = run_once(1);
  const auto par = run_once(8);
  EXPECT_EQ(seq, par);
}

TEST(Sim, AdvanceComputePropagatesClosureException) {
  SimEngine engine;
  engine.set_compute_threads(2);
  engine.spawn("p", [&](Process& self) {
    self.advance_compute(1.0, [] { throw std::runtime_error("kernel died"); });
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Sim, AdvanceComputeRejectsBadArguments) {
  SimEngine engine;
  engine.spawn("p", [&](Process& self) {
    EXPECT_THROW(self.advance_compute(-1.0, [] {}), common::Error);
    EXPECT_THROW(self.advance_compute(1.0, nullptr), common::Error);
    self.advance(0.1);
  });
  engine.run();
}

TEST(Sim, SetComputeThreadsAfterRunThrows) {
  SimEngine engine;
  engine.spawn("p", [](Process& self) { self.advance(0.1); });
  engine.run();
  EXPECT_THROW(engine.set_compute_threads(4), common::Error);
}

}  // namespace
}  // namespace dt::runtime
