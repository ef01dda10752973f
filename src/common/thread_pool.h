#ifndef JXP_COMMON_THREAD_POOL_H_
#define JXP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jxp {

/// A small fixed-size thread pool built for *deterministic* data
/// parallelism.
///
/// ParallelFor splits [begin, end) into fixed-size blocks of `grain`
/// indices. Block boundaries depend only on (begin, end, grain) — never on
/// the thread count — and blocks are assigned statically (block b runs on
/// worker b % num_threads, no work stealing). Any computation whose writes
/// are disjoint per index therefore produces bit-identical results at every
/// thread count, including 1.
///
/// The calling thread participates as worker 0, so a pool of size T spawns
/// T - 1 background threads (ThreadPool(1) spawns none and runs everything
/// inline). Calls must not be nested: a ParallelFor body must not invoke
/// ParallelFor on the same pool. Bodies must not throw.
class ThreadPool {
 public:
  /// Creates a pool of `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Number of workers, including the calling thread.
  size_t num_threads() const { return num_threads_; }

  /// Runs `fn(i)` for every i in [begin, end). The range is cut into the
  /// fixed partition of blocks of `grain` indices (the last block may be
  /// short); blocks are executed round-robin across workers, each block's
  /// indices in order. The call returns after every block has finished.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn);

 private:
  /// The immutable description of one ParallelFor launch.
  struct Launch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t begin = 0;
    size_t end = 0;
    size_t grain = 1;
    size_t num_blocks = 0;
  };

  /// Runs the blocks statically assigned to `worker` for launch `launch`.
  static void RunAssignedBlocks(const Launch& launch, size_t worker, size_t num_threads);

  void WorkerLoop(size_t worker);

  const size_t num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Launch launch_;
  uint64_t generation_ = 0;
  size_t workers_done_ = 0;
  bool shutdown_ = false;
};

}  // namespace jxp

#endif  // JXP_COMMON_THREAD_POOL_H_
