// A fixed-size worker pool shared across sweep cells.
//
// The sweep engine schedules every (cell, run) pair onto ONE pool instead
// of letting each cell spin up its own threads; with dozens of
// grid cells that is the difference between `threads` workers total and
// `cells * threads` oversubscription.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slpdas::core {

class ThreadPool {
 public:
  /// `threads <= 0` means hardware concurrency (at least 1).
  explicit ThreadPool(int threads = 0) {
    if (threads <= 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
    }
    if (threads <= 0) {
      threads = 1;
    }
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      const std::scoped_lock lock(mutex_);
      stopping_ = true;
    }
    work_available_.notify_all();
    for (auto& worker : workers_) {
      worker.join();
    }
  }

  [[nodiscard]] int thread_count() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Enqueues a job. Jobs must not throw; wrap anything that can.
  void submit(std::function<void()> job) {
    {
      const std::scoped_lock lock(mutex_);
      queue_.push_back(std::move(job));
    }
    work_available_.notify_one();
  }

  /// Blocks until the queue is empty and no job is in flight.
  void wait_idle() {
    std::unique_lock lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock lock(mutex_);
        work_available_.wait(lock,
                             [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;  // stopping_ and drained
        }
        job = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
      }
      job();
      {
        const std::scoped_lock lock(mutex_);
        --in_flight_;
        if (queue_.empty() && in_flight_ == 0) {
          idle_.notify_all();
        }
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace slpdas::core
