#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace sid::util {

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t workers = std::min(std::max<std::size_t>(threads, 1), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Relaxed is enough: the counter only hands out indices, and the
  // bodies' writes reach the caller through the joins.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(workers);
  const auto work = [&](std::size_t worker) {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
        body(i);
      }
    } catch (...) {
      errors[worker] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(work, w);
    work(0);
  }  // the helpers join here
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace sid::util
