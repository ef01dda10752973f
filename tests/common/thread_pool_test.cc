#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace jxp {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(0, 100, 7, [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  for (const size_t threads : {1u, 2u, 3u, 8u}) {
    for (const size_t grain : {1u, 5u, 64u, 1000u}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(513);
      pool.ParallelFor(0, hits.size(), grain, [&](size_t i) { ++hits[i]; });
      for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1) << "threads=" << threads << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(5, 5, 1, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, OffsetRange) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(10, 20, 3, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 10u + 11 + 12 + 13 + 14 + 15 + 16 + 17 + 18 + 19);
}

TEST(ThreadPoolTest, BlockPartitionIndependentOfThreadCount) {
  // The fixed partition: block b covers [3 + 64 b, min(1003, 3 + 64 (b+1)))
  // whatever the thread count T, and runs whole on worker b % T, the caller
  // being worker 0.
  const size_t begin = 3, end = 1003, grain = 64;
  const size_t num_blocks = (end - begin + grain - 1) / grain;
  ASSERT_EQ(num_blocks, 16u);
  for (const size_t threads : {2u, 5u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::thread::id> ran_on(end);
    pool.ParallelFor(begin, end, grain,
                     [&](size_t i) { ran_on[i] = std::this_thread::get_id(); });
    std::vector<std::thread::id> block_thread(num_blocks);
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t block_begin = begin + b * grain;
      const size_t block_end = std::min(end, block_begin + grain);
      block_thread[b] = ran_on[block_begin];
      for (size_t i = block_begin; i < block_end; ++i) {
        ASSERT_EQ(ran_on[i], block_thread[b])
            << "threads=" << threads << " block=" << b << " index=" << i;
      }
    }
    EXPECT_EQ(block_thread[0], std::this_thread::get_id()) << "threads=" << threads;
    for (size_t b = 0; b + threads < num_blocks; ++b) {
      EXPECT_EQ(block_thread[b], block_thread[b + threads])
          << "threads=" << threads << " block=" << b;
    }
    for (size_t b = 0; b < threads; ++b) {
      for (size_t c = b + 1; c < threads; ++c) {
        EXPECT_NE(block_thread[b], block_thread[c])
            << "threads=" << threads << " blocks " << b << " and " << c;
      }
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyLaunches) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 200; ++rep) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, 64, 4, [&](size_t) { ++count; });
    ASSERT_EQ(count.load(), 64);
  }
}

}  // namespace
}  // namespace jxp
