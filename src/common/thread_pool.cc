#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace jxp {

ThreadPool::ThreadPool(size_t num_threads) : num_threads_(std::max<size_t>(1, num_threads)) {
  threads_.reserve(num_threads_ - 1);
  for (size_t w = 1; w < num_threads_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::RunAssignedBlocks(const Launch& launch, size_t worker,
                                   size_t num_threads) {
  for (size_t b = worker; b < launch.num_blocks; b += num_threads) {
    const size_t block_begin = launch.begin + b * launch.grain;
    const size_t block_end = std::min(launch.end, block_begin + launch.grain);
    for (size_t i = block_begin; i < block_end; ++i) (*launch.fn)(i);
  }
}

void ThreadPool::WorkerLoop(size_t worker) {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    const Launch launch = launch_;
    lock.unlock();
    RunAssignedBlocks(launch, worker, num_threads_);
    lock.lock();
    if (++workers_done_ == num_threads_ - 1) done_cv_.notify_one();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t)>& fn) {
  if (end <= begin) return;
  JXP_CHECK_GE(grain, 1u);
  Launch launch;
  launch.fn = &fn;
  launch.begin = begin;
  launch.end = end;
  launch.grain = grain;
  launch.num_blocks = (end - begin + grain - 1) / grain;
  if (num_threads_ == 1 || launch.num_blocks == 1) {
    // Inline execution visits the same blocks in block order, so results
    // match the multi-threaded runs bit for bit.
    RunAssignedBlocks(launch, 0, 1);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    launch_ = launch;
    workers_done_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  RunAssignedBlocks(launch, 0, num_threads_);
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return workers_done_ == num_threads_ - 1; });
}

}  // namespace jxp
