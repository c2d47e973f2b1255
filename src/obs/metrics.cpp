#include "obs/metrics.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>

namespace t1sfq::obs {

namespace {

/// Bucket index for a sample (see kHistogramBuckets).
std::size_t bucket_index(uint64_t us) {
  if (us == 0) {
    return 0;
  }
  const std::size_t idx = static_cast<std::size_t>(std::bit_width(us));
  return idx < kHistogramBuckets ? idx : kHistogramBuckets - 1;
}

}  // namespace

uint64_t Metric::percentile_us(double p) const {
  if (kind != MetricKind::Histogram || count == 0) {
    return 0;
  }
  p = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(count)));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      // Upper bound of bucket i is 2^i - 1 (bucket 0 holds only 0).
      const uint64_t upper = i == 0 ? 0 : (uint64_t{1} << i) - 1;
      return upper < max_us ? upper : max_us;
    }
  }
  return max_us;
}

namespace {

std::atomic<bool> g_enabled{false};

/// Innermost live CounterCapture of this thread (nullptr: none).
thread_local CounterCapture* t_capture = nullptr;

bool init_from_env() {
  const char* v = std::getenv("T1SFQ_TRACE");
  const bool on = v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  if (on) {
    g_enabled.store(true, std::memory_order_relaxed);
  }
  return on;
}

}  // namespace

bool env_trace_requested() {
  static const bool requested = init_from_env();
  return requested;
}

bool enabled() {
  // Touch the env exactly once per process, before the first check.
  (void)env_trace_requested();
  return g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

ScopedEnable::ScopedEnable(bool on) {
  if (on && !enabled()) {
    set_enabled(true);
    flipped_ = true;
  }
}

ScopedEnable::~ScopedEnable() {
  if (flipped_) {
    set_enabled(false);
  }
}

CounterCapture::CounterCapture() : parent_(t_capture) { t_capture = this; }

CounterCapture::~CounterCapture() { t_capture = parent_; }

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(std::string_view name, uint64_t delta) {
  for (CounterCapture* c = t_capture; c != nullptr; c = c->parent_) {
    const auto it = c->counters_.find(name);
    if (it != c->counters_.end()) {
      it->second += delta;
    } else {
      c->counters_.emplace(std::string(name), delta);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    it->second.count += delta;
    return;
  }
  Metric m;
  m.name = std::string(name);
  m.kind = MetricKind::Counter;
  m.count = delta;
  metrics_.emplace(m.name, m);
}

void Registry::set(std::string_view name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    it->second.value = value;
    return;
  }
  Metric m;
  m.name = std::string(name);
  m.kind = MetricKind::Gauge;
  m.value = value;
  metrics_.emplace(m.name, m);
}

void Registry::set_max(std::string_view name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (value > it->second.value) {
      it->second.value = value;
    }
    return;
  }
  Metric m;
  m.name = std::string(name);
  m.kind = MetricKind::Gauge;
  m.value = value;
  metrics_.emplace(m.name, m);
}

void Registry::observe_us(std::string_view name, uint64_t us) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    Metric& m = it->second;
    m.count += 1;
    m.sum_us += us;
    if (us > m.max_us) {
      m.max_us = us;
    }
    m.buckets[bucket_index(us)] += 1;
    return;
  }
  Metric m;
  m.name = std::string(name);
  m.kind = MetricKind::Histogram;
  m.count = 1;
  m.sum_us = us;
  m.max_us = us;
  m.buckets[bucket_index(us)] += 1;
  metrics_.emplace(m.name, m);
}

uint64_t Registry::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  return it != metrics_.end() ? it->second.count : 0;
}

int64_t Registry::gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  return it != metrics_.end() ? it->second.value : 0;
}

std::vector<Metric> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Metric> out;
  out.reserve(metrics_.size());
  for (const auto& [name, m] : metrics_) {
    out.push_back(m);  // std::map iterates sorted by name
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.clear();
}

}  // namespace t1sfq::obs
