#include "benchmarks/record.hpp"

#include <cstdio>
#include <fstream>

#include "cost/disk_cache.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/resultdb.hpp"

namespace t1sfq::bench {

uint64_t config_hash(const std::string& config) {
  uint64_t h = 14695981039346656037ULL;
  for (const char c : config) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void capture_counters(BenchRecord& out) {
  for (const obs::Metric& m : obs::Registry::instance().snapshot()) {
    // The registry mirror of the disk-cache counters only accumulates while
    // observability is enabled; the authoritative process-wide totals are
    // appended from DiskCache::stats() below instead.
    if (m.name.rfind("cost.disk_cache.", 0) == 0) {
      continue;
    }
    switch (m.kind) {
      case obs::MetricKind::Counter:
        out.counters.emplace_back(m.name, static_cast<int64_t>(m.count));
        break;
      case obs::MetricKind::Gauge:
        out.counters.emplace_back(m.name, m.value);
        break;
      case obs::MetricKind::Histogram:
        out.counters.emplace_back(m.name + ".count", static_cast<int64_t>(m.count));
        out.counters.emplace_back(m.name + ".sum_us", static_cast<int64_t>(m.sum_us));
        out.counters.emplace_back(m.name + ".max_us", static_cast<int64_t>(m.max_us));
        out.counters.emplace_back(m.name + ".p50_us",
                                  static_cast<int64_t>(m.percentile_us(0.50)));
        out.counters.emplace_back(m.name + ".p95_us",
                                  static_cast<int64_t>(m.percentile_us(0.95)));
        out.counters.emplace_back(m.name + ".p99_us",
                                  static_cast<int64_t>(m.percentile_us(0.99)));
        break;
    }
  }
  const DiskCacheStats cache = DiskCache::stats();
  out.counters.emplace_back("cost.disk_cache.hits", static_cast<int64_t>(cache.hits));
  out.counters.emplace_back("cost.disk_cache.misses",
                            static_cast<int64_t>(cache.misses));
  out.counters.emplace_back("cost.disk_cache.corruption_fallbacks",
                            static_cast<int64_t>(cache.corruption_fallbacks));
  out.counters.emplace_back("cost.disk_cache.bytes_written",
                            static_cast<int64_t>(cache.bytes_written));
}

void capture_counters(BenchRecord& out, const obs::CounterCapture& scope) {
  for (const auto& [name, count] : scope.counters()) {
    out.counters.emplace_back(name, static_cast<int64_t>(count));
  }
}

bool write_records(const std::string& path, const std::string& bench,
                   const std::vector<BenchRecord>& records) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "record: cannot write %s\n", path.c_str());
    return false;
  }
  json::Writer w(os);
  w.begin_object();
  w.kv("schema", "t1sfq-bench-v1");
  w.kv("bench", bench);
  w.key("records").begin_array();
  for (const BenchRecord& r : records) {
    w.begin_object();
    w.kv("circuit", r.circuit);
    w.kv("config", r.config);
    w.kv("config_hash", config_hash(r.config));
    w.key("metrics").begin_object();
    for (const auto& [k, v] : r.metrics) {
      w.kv(k, v);
    }
    w.end_object();
    w.key("time_ms").begin_object();
    for (const auto& [k, v] : r.time_ms) {
      w.kv(k, v);
    }
    w.end_object();
    w.key("ratios").begin_object();
    for (const auto& [k, v] : r.ratios) {
      w.kv(k, v);
    }
    w.end_object();
    w.key("counters").begin_object();
    for (const auto& [k, v] : r.counters) {
      w.kv(k, v);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  if (!os.good()) {
    std::fprintf(stderr, "record: write to %s failed\n", path.c_str());
    return false;
  }
  return true;
}

bool append_records_to_db(const std::string& db_path, const std::string& bench,
                          const std::vector<BenchRecord>& records) {
  const obs::ResultStamp stamp = obs::current_stamp();
  std::vector<obs::ResultRow> rows;
  rows.reserve(records.size());
  for (const BenchRecord& rec : records) {
    obs::ResultRow row;
    row.bench = bench;
    row.circuit = rec.circuit;
    row.config = rec.config;
    row.config_hash = config_hash(rec.config);
    row.stamp = stamp;
    row.metrics = rec.metrics;
    row.time_ms = rec.time_ms;
    row.ratios = rec.ratios;
    row.counters = rec.counters;
    rows.push_back(std::move(row));
  }
  if (!obs::append_result_rows(db_path, rows)) {
    std::fprintf(stderr, "record: cannot append to result DB %s\n", db_path.c_str());
    return false;
  }
  return true;
}

bool emit_records(const std::string& json_path, const std::string& db_path,
                  const std::string& bench, const std::vector<BenchRecord>& records) {
  bool ok = true;
  if (!json_path.empty()) {
    ok = write_records(json_path, bench, records) && ok;
  }
  if (!db_path.empty()) {
    ok = append_records_to_db(db_path, bench, records) && ok;
  }
  return ok;
}

}  // namespace t1sfq::bench
