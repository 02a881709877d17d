#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace otac {
namespace {

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool{2};
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(1000, [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool{2};
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool{2};
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForBlocksCutsFixedBlocks) {
  ThreadPool pool{3};
  std::vector<std::atomic<int>> touched(1000);
  std::vector<std::size_t> block_end(4, 0);
  pool.parallel_for_blocks(1000, 256, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
    block_end[begin / 256] = end;
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
  EXPECT_EQ(block_end, (std::vector<std::size_t>{256, 512, 768, 1000}));
}

TEST(ThreadPool, ReusableAfterParallelFor) {
  ThreadPool pool{2};
  std::atomic<int> counter{0};
  pool.parallel_for(10, [&](std::size_t) { counter.fetch_add(1); });
  pool.parallel_for(10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 20);
}

}  // namespace
}  // namespace otac
