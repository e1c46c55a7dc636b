// The one work-stealing fan-out every engine runs its row-disjoint band
// tasks on: the streaming executor's multiply, SpMSpV and SpGEMM. A
// BandRunner owns a WorkStealingScheduler (common/work_stealing.h) and a
// persistent team of threads, spawned on the first threaded run and
// reused by every run after it, so an engine that multiplies many times
// (a BFS traversal, a CG solve) starts its threads once.
//
// Determinism contract: callers hand in tasks that own disjoint output
// row ranges and a body whose work for task t does not depend on the
// executing worker beyond scratch arenas, so output is bitwise-identical
// for any worker count and steal order. The inline path (one worker or
// one task) runs the same body on the calling thread in seed order — the
// serial reference is the same code.
//
// Error contract: the first exception a body (or lookahead) throws
// cancels the scheduler; the faulting worker drains its own deque and
// every other worker drains on its next acquire. run() rethrows that
// first exception on the calling thread only after every worker has
// finished, with queued() == 0, and the runner stays usable.
//
// Steady state: body and lookahead are non-owning TaskFn references and
// every per-run slot is preallocated, so a warmed run performs no heap
// allocation, threaded or inline.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/work_stealing.h"

namespace recode::spmv {

// Upper bound on any worker count an engine accepts. Larger requests are
// configuration errors (they would exhaust threads or wrap the arithmetic
// that sizes tasks per worker), rejected before any state is built.
inline constexpr std::size_t kMaxWorkers = 4096;

// Resolves a requested worker count: 0 means hardware_concurrency (at
// least 1, at most kMaxWorkers), and the result is clamped to
// [1, max(1, tasks)]. Throws recode::Error when `requested` exceeds
// kMaxWorkers.
std::size_t resolve_workers(std::size_t requested,
                            std::size_t tasks = kMaxWorkers);

// Non-owning reference to a callable invoked as f(task, worker). The
// callable must outlive the run() it is handed to. Default-constructed:
// empty (no lookahead).
class TaskFn {
 public:
  TaskFn() = default;
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, TaskFn>)
  TaskFn(F&& f)  // NOLINT(google-explicit-constructor): a callable view
      : ctx_(const_cast<void*>(static_cast<const void*>(&f))),
        call_(&invoke<std::remove_reference_t<F>>) {}

  void operator()(std::size_t task, std::size_t worker) const {
    call_(ctx_, task, worker);
  }
  explicit operator bool() const { return call_ != nullptr; }

 private:
  template <typename F>
  static void invoke(void* ctx, std::size_t task, std::size_t worker) {
    (*static_cast<F*>(ctx))(task, worker);
  }

  void* ctx_ = nullptr;
  void (*call_)(void*, std::size_t, std::size_t) = nullptr;
};

struct BandRunStats {
  std::size_t workers = 0;  // threads that ran (1 = inline)
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t local_pops = 0;
};

class BandRunner {
 public:
  // `workers` is a resolved count (see resolve_workers); `max_tasks` is
  // the longest seed order any run will pass. No thread starts here.
  BandRunner(std::size_t workers, std::size_t max_tasks);
  ~BandRunner();

  BandRunner(const BandRunner&) = delete;
  BandRunner& operator=(const BandRunner&) = delete;

  std::size_t workers() const { return workers_; }

  // Runs body(task, worker) once for every task id in `order`. One run
  // at a time: run() is not reentrant and blocks until the run is over.
  //
  // Inline when min(active_workers, workers()) <= 1 or order has one
  // task: the caller runs the tasks in `order`, calling lookahead(next)
  // before each task that has a successor.
  //
  // Otherwise min(active_workers, workers()) team threads pop tasks from
  // the scheduler (seeded with `order`). With a lookahead, a worker pops
  // its next task before running the one in hand and calls
  // lookahead(next) first — the hook out-of-core engines use to prefetch
  // the next band's compressed bytes behind the current decode. Without
  // one, a worker holds one task at a time, so idle peers can steal
  // everything but the running tasks.
  BandRunStats run(std::span<const std::uint32_t> order,
                   std::size_t active_workers, TaskFn body,
                   TaskFn lookahead = {});

  // Tasks still queued in the scheduler: 0 whenever no run is in flight,
  // including after an error.
  std::size_t queued() const { return scheduler_.queued(); }

  // Seconds worker `w` spent waiting in the scheduler's blocking acquire
  // during the last threaded run (0 inline, and with telemetry compiled
  // out).
  double wait_seconds(std::size_t w) const { return wait_seconds_[w]; }

 private:
  void thread_loop(std::size_t worker, std::uint64_t seen);
  void work(std::size_t worker);

  const std::size_t workers_;
  WorkStealingScheduler<std::uint32_t> scheduler_;
  std::vector<double> wait_seconds_;  // one slot per worker, reset per run

  // The current run, published to the team under mu_ by the generation
  // bump and read by workers only between that bump and their arrival.
  TaskFn body_;
  TaskFn lookahead_;
  std::size_t active_ = 0;

  std::mutex mu_;
  std::condition_variable start_cv_;  // signals a new generation or stop
  std::condition_variable done_cv_;   // signals working_ == 0
  std::uint64_t generation_ = 0;
  std::size_t working_ = 0;          // team threads still in this run
  std::exception_ptr first_error_;   // first body/lookahead failure
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: joined before the above die
};

}  // namespace recode::spmv
