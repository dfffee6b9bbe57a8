// Runs a callable on a new thread and returns its result (or rethrows its
// exception).  bvram::run draws registers from a thread_local pool, so a
// test that counts pool allocations or spares starts cold, whatever ran
// earlier in the binary, only on a thread no run has used yet.
#pragma once

#include <future>
#include <thread>
#include <utility>

namespace nsc::testing {

template <typename F>
auto on_fresh_thread(F f) -> decltype(f()) {
  std::packaged_task<decltype(f())()> task(std::move(f));
  auto result = task.get_future();
  std::thread(std::move(task)).join();
  return result.get();
}

}  // namespace nsc::testing
