// Minimal work-stealing-free thread pool with a parallel_for helper.
//
// Runs the threaded plain-CSR kernels (spmv/kernels.h) that the
// benchmarks time compressed SpMV against; the compressed engines fan
// out on spmv::BandRunner instead. Sized from
// std::thread::hardware_concurrency() by default but fully functional at
// any size (including 1, as on the CI host).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace recode {

class ThreadPool {
 public:
  // Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a task; returns immediately. The task must not throw — an
  // escaping exception would unwind a worker thread. parallel_for wraps
  // its chunks accordingly; direct submitters catch their own.
  void submit(std::function<void()> task);

  // Blocks until every submitted task has completed.
  void wait_idle();

  // Splits [begin, end) into ~3x-oversubscribed chunks and runs `body(b, e)`
  // on the pool, blocking until all chunks finish. Runs inline if the pool
  // has one thread or the range is tiny.
  //
  // Exception contract (identical on the pooled and inline paths): if any
  // chunk's `body` throws, every started chunk still runs to completion
  // (or throws) and the first exception, in chunk submission order, is
  // rethrown on the calling thread.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;        // signals task availability
  std::condition_variable idle_cv_;   // signals pending_ == 0
  std::size_t pending_ = 0;           // queued + running tasks
  bool stop_ = false;
};

}  // namespace recode
