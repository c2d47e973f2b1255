#pragma once
/// \file record.hpp
/// \brief Machine-readable bench records (`--json <path>` on every bench).
///
/// Every bench target emits one BenchRecord per (circuit, configuration) into
/// a single JSON document:
///
///   {
///     "schema": "t1sfq-bench-v1",
///     "bench": "<bench name>",
///     "records": [
///       {
///         "circuit": "...",
///         "config": "...",            // human-readable config summary
///         "config_hash": 1234,        // FNV-1a of the config string
///         "metrics":  { ... },        // deterministic quality numbers
///         "time_ms":  { ... },        // wall times, never regression-gated
///         "ratios":   { ... },        // speedups, gated with tolerance bands
///         "counters": { ... }         // obs registry values
///       }, ...
///     ]
///   }
///
/// The split drives `dbtool gate` (obs::gate_against_history) against the
/// committed result history (`bench_history.jsonl`): `metrics` must match the
/// latest row (quality is deterministic), `ratios` must stay within a band of
/// the rolling median, the deterministic work counters of
/// `obs::kGatedCounters` may not grow past their bound, and `time_ms` plus
/// every other counter are reported but never gated (absolute times depend on
/// the machine).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace t1sfq::obs {
class CounterCapture;
}

namespace t1sfq::bench {

struct BenchRecord {
  std::string circuit;
  std::string config;  ///< human-readable; hashed into config_hash
  std::vector<std::pair<std::string, int64_t>> metrics;
  std::vector<std::pair<std::string, double>> time_ms;
  std::vector<std::pair<std::string, double>> ratios;
  std::vector<std::pair<std::string, int64_t>> counters;
};

/// FNV-1a over the config string: the record identity the comparator joins on
/// (bench, circuit, config_hash).
uint64_t config_hash(const std::string& config);

/// Copies the current obs metrics registry into \p out.counters. Duration
/// histograms contribute `.count`/`.sum_us`/`.max_us` plus the `.p50_us`/
/// `.p95_us`/`.p99_us` estimates, and the process-wide `DiskCache::stats()`
/// (hits/misses/corruption fallbacks/bytes) is always included — cache
/// effectiveness is part of every trajectory even when the registry mirror
/// was off for part of the run.
void capture_counters(BenchRecord& out);

/// Copies the counters one job's `obs::CounterCapture` scope saw into
/// \p out.counters (for benches whose jobs share the process registry
/// concurrently; no histograms, no process-wide disk-cache totals).
void capture_counters(BenchRecord& out, const obs::CounterCapture& scope);

/// Writes the document; returns false (with a note on stderr) on I/O failure.
bool write_records(const std::string& path, const std::string& bench,
                   const std::vector<BenchRecord>& records);

/// Appends one result-DB row per record (see src/obs/resultdb.hpp) to the
/// JSON-lines history at \p db_path, stamped with `obs::current_stamp()`
/// (commit/branch/build/host/time). Returns false on I/O failure.
bool append_records_to_db(const std::string& db_path, const std::string& bench,
                          const std::vector<BenchRecord>& records);

/// The shared `--json` / `--db` epilogue of every bench driver: writes the
/// document when \p json_path is set, appends to the history DB when
/// \p db_path is set. Returns false if either emission failed.
bool emit_records(const std::string& json_path, const std::string& db_path,
                  const std::string& bench, const std::vector<BenchRecord>& records);

}  // namespace t1sfq::bench
