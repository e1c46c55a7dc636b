// Unit battery for spmv::BandRunner, the one work-stealing fan-out the
// streaming executor, SpMSpV and SpGEMM share: exactly-once delivery at
// {1, 2, 4} workers, the inline path's seed order and one-ahead
// lookahead, no held task without a lookahead, first-error rethrow only
// after every worker has finished (then drained and reusable), a
// persistent thread team across runs, zero heap allocation on a warmed
// threaded run, and the worker-count resolution every engine uses.
// Carries the `concurrency` ctest label, so the sanitize/tsan presets
// repeat it 3x.
#include "spmv/band_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/prng.h"

// ---------------------------------------------------------------------------
// Global allocation-counting hook (same pattern as test_fast_decode.cc).
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace recode::spmv {
namespace {

// Per-thread serial number, assigned the first time a thread runs a task.
// Unlike std::thread::id (which a new thread may inherit from a joined
// one), a fresh thread always starts with a fresh thread_local.
std::atomic<int> g_next_serial{0};
thread_local int t_serial = -1;

int thread_serial() {
  if (t_serial < 0) t_serial = g_next_serial.fetch_add(1);
  return t_serial;
}

std::vector<std::uint32_t> iota_order(std::size_t n) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  return order;
}

TEST(BandRunner, EveryTaskRunsExactlyOnce) {
  constexpr std::size_t kTasks = 257;
  const std::vector<std::uint32_t> order = iota_order(kTasks);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    BandRunner runner(workers, kTasks);
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<std::atomic<int>> runs(kTasks);
      std::atomic<std::size_t> max_worker{0};
      const BandRunStats st = runner.run(
          order, workers, [&](std::size_t task, std::size_t worker) {
            runs[task].fetch_add(1);
            std::size_t seen = max_worker.load();
            while (worker > seen &&
                   !max_worker.compare_exchange_weak(seen, worker)) {
            }
          });
      for (std::size_t t = 0; t < kTasks; ++t) {
        ASSERT_EQ(runs[t].load(), 1) << "task " << t << " workers "
                                     << workers << " rep " << rep;
      }
      EXPECT_EQ(st.workers, workers);
      EXPECT_LT(max_worker.load(), workers);
      if (workers > 1) {
        EXPECT_EQ(st.local_pops + st.steals, kTasks) << "workers " << workers;
      }
      EXPECT_EQ(runner.queued(), 0u);
    }
  }
}

// A 4-worker runner asked for 2 active workers runs every task on
// workers 0 and 1 only.
TEST(BandRunner, PartialTeamUsesOnlyActiveWorkers) {
  constexpr std::size_t kTasks = 100;
  const std::vector<std::uint32_t> order = iota_order(kTasks);
  BandRunner runner(4, kTasks);
  std::vector<std::atomic<int>> runs(kTasks);
  std::atomic<bool> outsider{false};
  const BandRunStats st =
      runner.run(order, 2, [&](std::size_t task, std::size_t worker) {
        runs[task].fetch_add(1);
        if (worker >= 2) outsider = true;
      });
  for (std::size_t t = 0; t < kTasks; ++t) ASSERT_EQ(runs[t].load(), 1);
  EXPECT_EQ(st.workers, 2u);
  EXPECT_FALSE(outsider.load());
}

// Inline: the caller runs the tasks in seed order, and the lookahead
// sees each next task just before the current one runs.
TEST(BandRunner, InlineRunsInOrderAndLooksOneAhead) {
  const std::uint64_t seed = test_seed(1401);
  Prng prng(seed);
  std::vector<std::uint32_t> order = iota_order(40);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[prng.next_below(i + 1)]);
  }
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i + 1 < order.size()) expected.push_back(1000 + order[i + 1]);
    expected.push_back(order[i]);
  }

  for (const std::size_t workers : {1u, 4u}) {
    BandRunner runner(workers, order.size());
    std::vector<std::uint32_t> events;
    const std::thread::id caller = std::this_thread::get_id();
    bool off_caller = false;
    const auto body = [&](std::size_t task, std::size_t worker) {
      events.push_back(static_cast<std::uint32_t>(task));
      off_caller |= std::this_thread::get_id() != caller || worker != 0;
    };
    const auto lookahead = [&](std::size_t task, std::size_t) {
      events.push_back(1000 + static_cast<std::uint32_t>(task));
    };
    // active_workers 1 forces the inline path on any runner size.
    const BandRunStats st = runner.run(order, 1, body, lookahead);
    EXPECT_EQ(events, expected) << "seed " << seed;
    EXPECT_FALSE(off_caller);
    EXPECT_EQ(st.workers, 1u);
  }
}

// Threaded with a lookahead: every task runs once, and each hint names
// the task its worker runs next. A worker's event stream is
// hint(next), body(current), hint(after next), body(next), ... so the
// second body after every hint runs the hinted task.
TEST(BandRunner, ThreadedLookaheadHintsTheWorkersNextTask) {
  constexpr std::size_t kTasks = 200;
  constexpr std::size_t kWorkers = 4;
  const std::vector<std::uint32_t> order = iota_order(kTasks);
  BandRunner runner(kWorkers, kTasks);
  // Per worker: its events, hints encoded as -1 - task. Each log is only
  // touched by its own worker.
  std::vector<std::vector<long>> logs(kWorkers);
  const auto body = [&](std::size_t task, std::size_t worker) {
    logs[worker].push_back(static_cast<long>(task));
  };
  const auto lookahead = [&](std::size_t task, std::size_t worker) {
    logs[worker].push_back(-1 - static_cast<long>(task));
  };
  runner.run(order, kWorkers, body, lookahead);

  std::vector<int> runs(kTasks, 0);
  for (const std::vector<long>& log : logs) {
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i] >= 0) {
        ++runs[static_cast<std::size_t>(log[i])];
        continue;
      }
      std::size_t bodies = 0;
      std::size_t j = i + 1;
      for (; j < log.size(); ++j) {
        if (log[j] >= 0 && ++bodies == 2) break;
      }
      ASSERT_LT(j, log.size()) << "hinted task never ran on its worker";
      EXPECT_EQ(log[j], -1 - log[i]);
    }
  }
  for (std::size_t t = 0; t < kTasks; ++t) ASSERT_EQ(runs[t], 1);
  EXPECT_EQ(runner.queued(), 0u);
}

// Without a lookahead a worker holds only the task it is running: while
// one worker sits in its first task, a second worker must be able to
// steal and finish every other task.
TEST(BandRunner, WithoutLookaheadNoTaskIsHeld) {
  constexpr std::size_t kTasks = 64;
  const std::vector<std::uint32_t> order = iota_order(kTasks);
  BandRunner runner(2, kTasks);
  std::atomic<bool> claimed{false};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> starved{false};
  runner.run(order, 2, [&](std::size_t, std::size_t) {
    if (!claimed.exchange(true)) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (done.load() < kTasks - 1) {
        if (std::chrono::steady_clock::now() > deadline) {
          starved = true;
          break;
        }
        std::this_thread::yield();
      }
    }
    done.fetch_add(1);
  });
  EXPECT_FALSE(starved.load())
      << "the blocked worker held a task its peer could not steal";
  EXPECT_EQ(done.load(), kTasks);
}

// Several tasks throw. The first error (task 0, thrown while the other
// throwers are still waiting to throw) is the one rethrown, and only
// after every worker has left its task; the scheduler is drained and
// the next run on the same runner succeeds.
TEST(BandRunner, RethrowsFirstErrorAfterAllWorkersFinish) {
  constexpr std::size_t kWorkers = 4;
  const std::vector<std::uint32_t> order = iota_order(kWorkers);
  BandRunner runner(kWorkers, 64);
  for (int rep = 0; rep < 3; ++rep) {
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    std::atomic<bool> first_thrown{false};
    const auto body = [&](std::size_t task, std::size_t) {
      started.fetch_add(1);
      if (task == 0) {
        first_thrown = true;
        finished.fetch_add(1);
        throw std::runtime_error("first");
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!first_thrown.load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      finished.fetch_add(1);
      throw std::runtime_error("later " + std::to_string(task));
    };
    try {
      runner.run(order, kWorkers, body);
      ADD_FAILURE() << "run did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first") << "rep " << rep;
    }
    EXPECT_EQ(started.load(), finished.load())
        << "run returned while a worker was still in its task";
    EXPECT_EQ(runner.queued(), 0u);

    const std::vector<std::uint32_t> big = iota_order(64);
    std::vector<std::atomic<int>> runs(big.size());
    runner.run(big, kWorkers,
               [&](std::size_t task, std::size_t) { runs[task].fetch_add(1); });
    for (std::size_t t = 0; t < big.size(); ++t) ASSERT_EQ(runs[t].load(), 1);
  }
}

// A recode::Error thrown mid-run on a big task set leaves nothing
// queued, whichever worker faulted and wherever the others were.
TEST(BandRunner, MidRunErrorDrainsEveryDeque) {
  const std::uint64_t seed = test_seed(1402);
  Prng prng(seed);
  constexpr std::size_t kTasks = 2000;
  const std::vector<std::uint32_t> order = iota_order(kTasks);
  BandRunner runner(4, kTasks);
  for (int rep = 0; rep < 5; ++rep) {
    const std::size_t bad = prng.next_below(kTasks);
    const auto lookahead = [](std::size_t, std::size_t) {};
    EXPECT_THROW(runner.run(order, 4,
                            [&](std::size_t task, std::size_t) {
                              if (task == bad) recode::fail("bad task");
                            },
                            rep % 2 == 0 ? TaskFn(lookahead) : TaskFn()),
                 recode::Error)
        << "seed " << seed << " rep " << rep;
    EXPECT_EQ(runner.queued(), 0u) << "seed " << seed << " rep " << rep;
  }
}

// The team persists: consecutive runs are served by the same threads,
// worker index for worker index, and never by the caller.
TEST(BandRunner, SameThreadsServeConsecutiveRuns) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kTasks = 64;
  const std::vector<std::uint32_t> order = iota_order(kTasks);
  BandRunner runner(kWorkers, kTasks);
  const int caller = thread_serial();
  std::vector<std::vector<int>> serials(3, std::vector<int>(kWorkers, -1));
  std::mutex mu;
  std::set<int> all;
  for (std::size_t run = 0; run < serials.size(); ++run) {
    runner.run(order, kWorkers, [&](std::size_t, std::size_t worker) {
      const int s = thread_serial();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> lock(mu);
      serials[run][worker] = s;
      all.insert(s);
    });
  }
  EXPECT_LE(all.size(), kWorkers) << "a run started new threads";
  EXPECT_EQ(all.count(caller), 0u);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    for (std::size_t run = 1; run < serials.size(); ++run) {
      if (serials[0][w] >= 0 && serials[run][w] >= 0) {
        EXPECT_EQ(serials[0][w], serials[run][w]) << "worker " << w;
      }
    }
  }
}

TEST(BandRunner, WarmThreadedRunIsAllocationFree) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kTasks = 128;
  const std::vector<std::uint32_t> order = iota_order(kTasks);
  BandRunner runner(kWorkers, kTasks);
  std::vector<std::atomic<int>> runs(kTasks);
  const auto body = [&](std::size_t task, std::size_t) {
    runs[task].fetch_add(1);
  };
  const auto lookahead = [](std::size_t, std::size_t) {};
  // Warm: spawn the team and register the telemetry series.
  runner.run(order, kWorkers, body);
  runner.run(order, kWorkers, body, lookahead);

  const std::uint64_t before = g_heap_allocations.load();
  for (int rep = 0; rep < 4; ++rep) {
    runner.run(order, kWorkers, body, rep % 2 == 0 ? TaskFn(lookahead)
                                                  : TaskFn());
    runner.run(order, 1, body, lookahead);  // inline
  }
  const std::uint64_t after = g_heap_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations across 8 warmed runs";
  for (std::size_t t = 0; t < kTasks; ++t) ASSERT_EQ(runs[t].load(), 10);
}

TEST(BandRunner, ResolveWorkersDefaultsClampsAndRejects) {
  EXPECT_GE(resolve_workers(0), 1u);
  EXPECT_LE(resolve_workers(0), kMaxWorkers);
  EXPECT_EQ(resolve_workers(0, 1), 1u);
  EXPECT_EQ(resolve_workers(7, 3), 3u);
  EXPECT_EQ(resolve_workers(2, 100), 2u);
  EXPECT_EQ(resolve_workers(5, 0), 1u);
  EXPECT_EQ(resolve_workers(kMaxWorkers, kMaxWorkers), kMaxWorkers);
  EXPECT_THROW(resolve_workers(kMaxWorkers + 1, 1), recode::Error);
  EXPECT_THROW(resolve_workers(SIZE_MAX, 1), recode::Error);
  EXPECT_THROW(resolve_workers(SIZE_MAX / 4 + 1), recode::Error);
}

}  // namespace
}  // namespace recode::spmv
