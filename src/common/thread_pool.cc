#include "common/thread_pool.h"

#include <algorithm>

namespace recode {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++pending_;
  }
  cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (workers_.size() == 1 || n < 2) {
    // Inline path: one chunk on the calling thread. An exception from
    // `body` propagates directly — the same caller-thread rethrow the
    // pooled path provides below.
    body(begin, end);
    return;
  }
  const std::size_t chunks = std::min(n, workers_.size() * 3);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  // One slot per chunk so the rethrown exception is deterministically the
  // first failing chunk in submission order, independent of interleaving.
  std::vector<std::exception_ptr> errors((n + chunk - 1) / chunk);
  std::size_t index = 0;
  for (std::size_t b = begin; b < end; b += chunk, ++index) {
    const std::size_t e = std::min(end, b + chunk);
    std::exception_ptr* slot = &errors[index];
    submit([&body, b, e, slot] {
      try {
        body(b, e);
      } catch (...) {
        *slot = std::current_exception();
      }
    });
  }
  wait_idle();
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace recode
