#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace wire::util {

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, count);
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> workers;
  try {
    for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(drain);
  } catch (const std::system_error&) {
    // No more threads to be had: the ones started and the caller finish the
    // work, and every started thread is joined below.
  }
  drain();
  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace wire::util
