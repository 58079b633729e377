// Fixed-size thread pool for coarse, independent units of work. No code
// under src/ or tools/ dispatches to it: the evaluation kernels (STA, the
// width search, the energy sum) are plain serial loops, and the annealer
// runs one chain. Its only caller is bench/e2e/src/solve.cpp, which sets the
// lane count through set_global_threads; the pool goes once that benchmark
// stops calling it (DESIGN.md, "Serial evaluation & determinism").
//
// Deliberately simple: no work stealing, no futures, no task graph. The one
// primitive is parallel_for(n, fn) — run fn(i) for every i in [0, n) across
// the pool and the calling thread, and return when all n are done. Callers
// get determinism by construction: each index writes its own output slot and
// any reduction happens serially, in index order, after the call returns, so
// results are bit-identical at every thread count.
//
// The calling thread always participates in the work. That guarantees
// forward progress under nesting: a nested parallel_for simply runs inline
// on the worker it was issued from, never waiting on pool capacity it might
// be occupying.
//
// Exceptions thrown by fn are captured per index; after all indices finish,
// the exception with the lowest index is rethrown — the same one a serial
// loop would have surfaced first (a serial loop would not have run the later
// indices, but every fn here is required to be independent).
#pragma once

#include <cstddef>
#include <functional>

namespace minergy::util {

class ThreadPool {
 public:
  // `threads` counts total execution lanes including the caller; <= 0
  // selects std::thread::hardware_concurrency(). threads == 1 spawns no
  // workers and parallel_for degenerates to the plain serial loop.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Execution lanes (worker threads + the calling thread).
  int threads() const;

  // Runs fn(i) for all i in [0, n); blocks until every index completed.
  // Safe to call from inside a running fn (the nested call runs inline).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  Impl* impl_;
};

// Process-wide pool, lazily constructed on first use with the thread count
// last requested via set_global_threads (default: hardware concurrency).
ThreadPool& global_pool();

// Requests `n` execution lanes for the global pool (<= 0 = hardware
// concurrency). Takes effect immediately: an existing pool with a different
// lane count is torn down and rebuilt. Not safe to call concurrently with
// global-pool parallel_for calls — wire it once at process startup,
// before any evaluation begins.
void set_global_threads(int n);

// Lanes the global pool currently offers (without forcing construction).
int global_threads();

}  // namespace minergy::util
