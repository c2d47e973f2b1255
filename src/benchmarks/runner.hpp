#pragma once
/// \file runner.hpp
/// \brief Ordered parallel job runner for the benchmark suites.
///
/// `bench/table1` and `bench/opt_ablation` fan a (benchmark × flow) job
/// matrix over a small thread pool: every job is a pure function of its
/// inputs (deterministic generators, immutable shared state — the rewrite
/// databases behind `RewriteDb::instance` are mutex-guarded), so the results
/// are bitwise independent of the schedule. Each job writes into its own
/// log buffer; the runner flushes buffers to the log stream strictly in job
/// order, as soon as every earlier job has finished, so the output of a
/// parallel run is byte-identical to the sequential one.

#include <functional>
#include <iosfwd>
#include <vector>

namespace t1sfq {
namespace bench {

/// A unit of work: computes its result (captured by the closure) and may
/// write progress/log text to the provided stream (buffered per job).
using Job = std::function<void(std::ostream& log)>;

/// Runs \p jobs on \p threads worker threads (0 = hardware concurrency,
/// capped at the job count; 1 = sequential in the calling thread) and
/// streams each job's log to \p log in job-index order.
///
/// Reentrancy: a `run_jobs` call made *from inside a pool worker* (a job of
/// an outer run_jobs spawning its own parallel work — e.g. a nested `Server`
/// batch inside a `bench --jobs N` suite) degrades to the sequential path
/// instead of spawning a nested pool, so the total worker count stays
/// bounded by the outermost call and results remain byte-identical.
/// Top-level sequential calls (threads = 1) do not mark the calling thread,
/// so inner parallelism under `--jobs 1` is preserved.
void run_jobs(std::vector<Job> jobs, std::ostream& log, unsigned threads = 0);

/// True while the calling thread is a run_jobs pool worker (nested-pool
/// detection; see run_jobs).
bool in_job_pool();

}  // namespace bench
}  // namespace t1sfq
