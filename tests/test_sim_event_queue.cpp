// Differential test of the simulator's 4-ary event heap against the
// std::priority_queue queue it replaced (tests/oracle/event_queue_oracle.h).
// Random interleavings of schedule and pop, with many exact time ties and a
// random set of tracked kinds, must pop identical (time, seq, kind, payload,
// aux) sequences and report identical next_tracked_time() after every call.
// The seeds are printed; WIRE_FUZZ_SEED adds one chosen by the environment.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "oracle/event_queue_oracle.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace wire::sim {
namespace {

constexpr std::uint32_t kKinds =
    static_cast<std::uint32_t>(EventKind::CheckpointGuard) + 1;

void expect_same_event(const Event& got, const Event& want) {
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.payload, want.payload);
  EXPECT_EQ(got.aux, want.aux);
}

/// Runs `ops` random calls on both queues and compares them after each one.
/// Scheduled times sit on a coarse grid just ahead of the clock, so many
/// events share a time and only the sequence number orders them. The
/// tracked kinds are a random subset, or every kind with `track_all`.
void run_differential(std::uint64_t seed, int ops, bool track_all = false) {
  std::printf("event-queue differential, seed %llu\n",
              static_cast<unsigned long long>(seed));
  SCOPED_TRACE("seed=" + std::to_string(seed));
  util::Rng rng(seed);
  EventQueue heap;
  oracle::EventQueue reference;
  const auto mask =
      track_all ? ~0u
                : static_cast<std::uint32_t>(
                      rng.uniform_int(0, (1 << kKinds) - 1));
  heap.set_tracked_kinds(mask);
  reference.set_tracked_kinds(mask);

  std::uint64_t pops = 0;
  for (int op = 0; op < ops; ++op) {
    // Alternate growing and draining phases so the heap both deepens and
    // empties out.
    const double push_p = (op / 500) % 2 == 0 ? 0.7 : 0.35;
    if (reference.empty() || rng.bernoulli(push_p)) {
      const SimTime time = reference.last_popped_time() +
                           0.5 * static_cast<double>(rng.uniform_int(0, 6));
      const auto kind = static_cast<EventKind>(rng.uniform_int(0, kKinds - 1));
      const auto payload = static_cast<std::uint32_t>(rng.uniform_int(0, 50));
      const auto aux = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
      heap.schedule(time, kind, payload, aux);
      reference.schedule(time, kind, payload, aux);
    } else {
      ASSERT_EQ(heap.next_time(), reference.next_time());
      expect_same_event(heap.pop(), reference.pop());
      ++pops;
    }
    ASSERT_EQ(heap.size(), reference.size());
    ASSERT_EQ(heap.next_tracked_time(), reference.next_tracked_time());
    ASSERT_EQ(heap.last_popped_time(), reference.last_popped_time());
  }
  while (!reference.empty()) {
    ASSERT_FALSE(heap.empty());
    expect_same_event(heap.pop(), reference.pop());
    ASSERT_EQ(heap.next_tracked_time(), reference.next_tracked_time());
    ++pops;
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_GT(pops, static_cast<std::uint64_t>(ops) / 4);
}

TEST(EventQueueDifferential, MatchesPriorityQueueOracle) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    run_differential(seed, 20000);
  }
  run_differential(4, 20000, /*track_all=*/true);
}

TEST(EventQueueDifferential, EnvironmentSeedRuns) {
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  run_differential(std::strtoull(env, nullptr, 10), 50000);
}

}  // namespace
}  // namespace wire::sim
