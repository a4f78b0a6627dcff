// Tests for util::parallel_for (the experiment sweeps' fan-out): index
// coverage, fewer jobs than threads, a zero count, and exception ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.h"

namespace wire::util {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(
      hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, CountSmallerThanThreads) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(
      hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; }, 2);
}

TEST(ParallelFor, LowestIndexExceptionWins) {
  // Two indices throw; the LOWEST index's exception is the one that
  // propagates, independent of which thread ran it first.
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for(
          32,
          [](std::size_t i) {
            if (i == 2) throw std::runtime_error("low");
            if (i == 30) throw std::runtime_error("high");
          },
          4);
      FAIL() << "must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "low");
    }
  }
}

TEST(ParallelFor, AllIndicesRunDespiteException) {
  // One index throwing must not short-circuit the rest.
  std::vector<std::atomic<int>> hits(32);
  EXPECT_THROW(parallel_for(
                   hits.size(),
                   [&hits](std::size_t i) {
                     hits[i].fetch_add(1);
                     if (i == 5) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace wire::util
