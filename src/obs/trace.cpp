#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>

#include "obs/json.hpp"

namespace t1sfq::obs {

namespace {

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint32_t> g_next_tid{1};

uint32_t this_thread_index() {
  thread_local const uint32_t tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// Open-span stack for the current thread: span ids, innermost last.
thread_local std::vector<uint64_t> t_open_spans;

struct Collector {
  std::mutex mu;
  std::vector<TraceEvent> events;
};

Collector& collector() {
  static Collector c;
  return c;
}

/// Writes T1SFQ_TRACE_FILE at process exit when the environment asked for a
/// trace. Statics are destroyed in reverse order of construction, so both
/// function-local statics the export reads (the span collector and the
/// metrics registry behind the histogram summaries) are constructed here,
/// before this object, and are still alive when its destructor runs.
struct EnvTraceFlusher {
  Collector& keep_collector = collector();
  Registry& keep_registry = Registry::instance();
  ~EnvTraceFlusher() {
    const char* path = std::getenv("T1SFQ_TRACE_FILE");
    if (path == nullptr || path[0] == '\0' || !env_trace_requested()) {
      return;
    }
    if (write_chrome_trace(path)) {
      std::fprintf(stderr, "[t1sfq] chrome trace written to %s\n", path);
    }
  }
};
EnvTraceFlusher g_env_trace_flusher;

}  // namespace

uint64_t now_us() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - trace_epoch())
                                   .count());
}

Span::Span(const char* name) {
  if (!enabled()) {
    return;
  }
  active_ = true;
  name_ = name;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_id_ = t_open_spans.empty() ? 0 : t_open_spans.back();
  t_open_spans.push_back(id_);
  start_us_ = now_us();
}

Span::Span(const char* name, const char* arg_name, int64_t arg_value) : Span(name) {
  arg(arg_name, arg_value);
}

void Span::arg(const char* name, int64_t value) {
  if (active_) {
    args_.emplace_back(name, value);
  }
}

Span::~Span() {
  if (!active_) {
    return;
  }
  const uint64_t end = now_us();
  // Pop this span (it is the innermost open one on this thread).
  if (!t_open_spans.empty() && t_open_spans.back() == id_) {
    t_open_spans.pop_back();
  }
  TraceEvent ev;
  ev.name = name_;
  ev.id = id_;
  ev.parent_id = parent_id_;
  ev.tid = this_thread_index();
  ev.start_us = start_us_;
  ev.dur_us = end - start_us_;
  ev.args = std::move(args_);
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  c.events.push_back(std::move(ev));
}

std::vector<TraceEvent> trace_events() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.events;
}

void clear_trace() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  c.events.clear();
}

namespace {

/// Emits `"histograms": [...]` — one summary object per duration histogram in
/// the registry (count/sum/max plus the p50/p95/p99 estimates), in name
/// order. Shared by both export formats so a trace consumer never has to
/// re-derive quantiles from raw spans.
void write_histogram_summaries(json::Writer& w) {
  w.key("histograms").begin_array();
  for (const Metric& m : Registry::instance().snapshot()) {
    if (m.kind != MetricKind::Histogram) {
      continue;
    }
    w.begin_object();
    w.kv("name", m.name);
    w.kv("count", m.count);
    w.kv("sum_us", m.sum_us);
    w.kv("max_us", m.max_us);
    w.kv("p50_us", m.percentile_us(0.50));
    w.kv("p95_us", m.percentile_us(0.95));
    w.kv("p99_us", m.percentile_us(0.99));
    w.end_object();
  }
  w.end_array();
}

void write_span_tree(json::Writer& w, const TraceEvent& ev,
                     const std::vector<const TraceEvent*>& events,
                     const std::vector<std::vector<std::size_t>>& children,
                     std::size_t index) {
  w.begin_object();
  w.kv("name", ev.name);
  w.kv("start_us", ev.start_us);
  w.kv("dur_us", ev.dur_us);
  if (!ev.args.empty()) {
    w.key("args").begin_object();
    for (const auto& [k, v] : ev.args) {
      w.kv(k, v);
    }
    w.end_object();
  }
  if (!children[index].empty()) {
    w.key("children").begin_array();
    for (const std::size_t child : children[index]) {
      write_span_tree(w, *events[child], events, children, child);
    }
    w.end_array();
  }
  w.end_object();
}

}  // namespace

void write_report_json(std::ostream& os) {
  const std::vector<TraceEvent> evs = trace_events();

  // Sort by start time so children emit in chronological order, then link the
  // tree via parent ids.
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(evs.size());
  for (const TraceEvent& ev : evs) {
    sorted.push_back(&ev);
  }
  std::sort(sorted.begin(), sorted.end(), [](const TraceEvent* a, const TraceEvent* b) {
    return a->start_us != b->start_us ? a->start_us < b->start_us : a->id < b->id;
  });
  std::map<uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    by_id[sorted[i]->id] = i;
  }
  std::vector<std::vector<std::size_t>> children(sorted.size());
  std::map<uint32_t, std::vector<std::size_t>> roots_by_tid;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const auto parent = by_id.find(sorted[i]->parent_id);
    if (sorted[i]->parent_id != 0 && parent != by_id.end()) {
      children[parent->second].push_back(i);
    } else {
      roots_by_tid[sorted[i]->tid].push_back(i);
    }
  }

  json::Writer w(os);
  w.begin_object();
  w.kv("schema", "t1sfq-trace-v1");
  w.key("threads").begin_array();
  for (const auto& [tid, roots] : roots_by_tid) {
    w.begin_object();
    w.kv("tid", static_cast<uint64_t>(tid));
    w.key("spans").begin_array();
    for (const std::size_t root : roots) {
      write_span_tree(w, *sorted[root], sorted, children, root);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  write_histogram_summaries(w);
  w.end_object();
  os << '\n';
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  const std::vector<TraceEvent> evs = trace_events();
  json::Writer w(os);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const TraceEvent& ev : evs) {
    w.begin_object();
    w.kv("name", ev.name);
    w.kv("ph", "X");
    w.kv("ts", ev.start_us);
    w.kv("dur", ev.dur_us);
    w.kv("pid", uint64_t{1});
    w.kv("tid", static_cast<uint64_t>(ev.tid));
    if (!ev.args.empty()) {
      w.key("args").begin_object();
      for (const auto& [k, v] : ev.args) {
        w.kv(k, v);
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  // Chrome/Perfetto ignore unknown top-level keys; tooling that wants the
  // duration quantiles reads them from here instead of re-bucketing spans.
  write_histogram_summaries(w);
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
  return os.good();
}

}  // namespace t1sfq::obs
