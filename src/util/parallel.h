// Deterministic parallel execution (DESIGN.md §5g).
//
// parallel_for runs an index range on a one-shot pool of workers, the
// caller among them: each worker claims the indices of [0, n) one at a
// time from a shared counter until none is left, so a slow index holds
// back only the worker running it. Which worker runs an index is a race
// outcome and never shows in the results: each index writes only its
// own output slot and draws from streams keyed by its own data, so a
// parallel run is bit-identical to the serial loop — the property the
// determinism suite enforces (same seed => same hashes at any thread
// count).
//
// This header is the single concurrency funnel of the repository:
// scripts/lint.py (rule `thread-funnel`) bans raw std::thread/std::async
// everywhere else, so all parallelism inherits these ordering guarantees.
#pragma once

#include <cstddef>
#include <functional>

namespace sid::util {

/// Runs body(i) for every i in [0, n) exactly once, on
/// min(max(threads, 1), n) workers, and returns when all are done. With
/// one worker this is the plain serial loop on the calling thread; with
/// more, the other workers are threads started for this call and joined
/// before it returns, so every body's writes are visible to the caller.
///
/// The body must not mutate state shared between indices; under that
/// contract results are bit-identical to the serial loop for every
/// thread count, whichever worker ran which index. A worker whose body
/// throws stops claiming; once every worker has stopped, the exception
/// of the lowest-numbered worker that threw is rethrown on the caller.
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace sid::util
