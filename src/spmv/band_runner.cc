#include "spmv/band_runner.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace recode::spmv {

namespace {

// Scheduler series, recorded for every engine that fans out here.
// Registry handles resolved once (registration locks; workers only touch
// the lock-free instruments).
struct RunnerTelemetry {
  telemetry::Histogram& deque_occupancy;  // own-deque depth per pop
  telemetry::Histogram& acquire_wait_us;  // blocking-acquire spin per pop

  static RunnerTelemetry& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    static RunnerTelemetry* t = new RunnerTelemetry{
        reg.histogram("spmv.sched.deque_occupancy"),
        reg.histogram("spmv.sched.acquire_wait_us"),
    };
    return *t;
  }
};

}  // namespace

std::size_t resolve_workers(std::size_t requested, std::size_t tasks) {
  RECODE_PARSE_CHECK(requested <= kMaxWorkers,
                     "worker count " + std::to_string(requested) +
                         " exceeds the limit of " +
                         std::to_string(kMaxWorkers));
  std::size_t workers = requested;
  if (workers == 0) {
    workers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                      kMaxWorkers);
  }
  return std::min(workers, std::max<std::size_t>(1, tasks));
}

BandRunner::BandRunner(std::size_t workers, std::size_t max_tasks)
    : workers_(workers),
      scheduler_(workers, std::max<std::size_t>(1, max_tasks)),
      wait_seconds_(workers, 0.0) {
  RECODE_CHECK(workers >= 1 && workers <= kMaxWorkers);
}

BandRunner::~BandRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

BandRunStats BandRunner::run(std::span<const std::uint32_t> order,
                             std::size_t active_workers, TaskFn body,
                             TaskFn lookahead) {
  BandRunStats stats;
  const std::size_t active = std::min(active_workers, workers_);
  std::fill(wait_seconds_.begin(), wait_seconds_.end(), 0.0);
  if (active <= 1 || order.size() <= 1) {
    stats.workers = 1;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (lookahead && i + 1 < order.size()) lookahead(order[i + 1], 0);
      body(order[i], 0);
    }
    return stats;
  }

  scheduler_.reset();
  scheduler_.seed(order, active);
  // Spawned on the first threaded run. Every spawn precedes this run's
  // generation bump, so each thread starts having seen the current one.
  while (threads_.size() < workers_) {
    const std::size_t w = threads_.size();
    threads_.emplace_back(
        [this, w, seen = generation_] { thread_loop(w, seen); });
  }

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    body_ = body;
    lookahead_ = lookahead;
    active_ = active;
    working_ = threads_.size();
    ++generation_;
    start_cv_.notify_all();
    done_cv_.wait(lock, [this] { return working_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);

  const StealStats& ss = scheduler_.stats();
  stats.workers = active;
  stats.steals = ss.steals.load(std::memory_order_relaxed);
  stats.steal_attempts = ss.steal_attempts.load(std::memory_order_relaxed);
  stats.local_pops = ss.local_pops.load(std::memory_order_relaxed);
  return stats;
}

void BandRunner::thread_loop(std::size_t worker, std::uint64_t seen) {
  for (;;) {
    std::size_t active = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      active = active_;
    }
    if (worker < active) work(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--working_ == 0) done_cv_.notify_all();
    }
  }
}

void BandRunner::work(std::size_t worker) {
  RunnerTelemetry& telem = RunnerTelemetry::get();
  if (telemetry::Tracer::global().enabled()) {
    telemetry::Tracer::global().set_thread_name("band-" +
                                                std::to_string(worker));
  }
  try {
    std::uint32_t task = 0;
    bool have = false;  // `task` is popped and not yet run
    for (;;) {
      if (!have) {
        {
          telemetry::WaitTimer wait(telem.acquire_wait_us,
                                    &wait_seconds_[worker]);
          have = scheduler_.acquire(worker, task);
        }
        if (!have) break;
        telem.deque_occupancy.observe(
            static_cast<double>(scheduler_.deque_size(worker)));
      }
      // With a lookahead, pop the next task (one non-blocking sweep) and
      // hint it before running the one in hand, so every hinted band is
      // consumed next by the worker that staged it. Only try_acquire: the
      // blocking acquire spins until every task completes, so entering
      // it while holding an uncompleted task would deadlock the last
      // worker.
      std::uint32_t next = 0;
      const bool have_next = lookahead_ && scheduler_.try_acquire(worker, next);
      if (have_next) {
        telem.deque_occupancy.observe(
            static_cast<double>(scheduler_.deque_size(worker)));
        lookahead_(next, worker);
      }
      body_(task, worker);
      scheduler_.complete();
      task = next;
      have = have_next;
    }
  } catch (...) {
    scheduler_.cancel();
    // This worker never re-enters the acquire loop, so drain its own
    // deque here: after cancel() acquire only drains and returns false.
    std::uint32_t discard = 0;
    scheduler_.acquire(worker, discard);
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

}  // namespace recode::spmv
