#include "obs/resultdb.hpp"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.hpp"

namespace t1sfq::obs {

namespace {

template <typename T>
const T* find_pair(const std::vector<std::pair<std::string, T>>& pairs,
                   std::string_view name) {
  for (const auto& [k, v] : pairs) {
    if (k == name) {
      return &v;
    }
  }
  return nullptr;
}

/// First output line of a git command, or "" on any failure. Used only for
/// stamping (never on a hot path); `2>/dev/null` keeps a non-checkout quiet.
std::string git_line(const char* args) {
  std::string cmd = std::string("git ") + args + " 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return "";
  }
  char buf[256];
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    out = buf;
  }
  const int status = ::pclose(pipe);
  if (status != 0) {
    return "";
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

const json::Value* obj_field(const json::Value& v, std::string_view key,
                             json::Value::Kind kind) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->kind == kind ? f : nullptr;
}

}  // namespace

ResultStamp current_stamp() {
  ResultStamp s;
  // Env overrides first (CI pins them on detached checkouts; they also let
  // history be seeded for a commit other than HEAD), then git, then "unknown".
  const char* commit = std::getenv("T1SFQ_COMMIT");
  s.commit = commit != nullptr && commit[0] != '\0'
                 ? std::string(commit)
                 : git_line("rev-parse --short=12 HEAD");
  if (s.commit.empty()) {
    s.commit = "unknown";
  }
  const char* branch = std::getenv("T1SFQ_BRANCH");
  s.branch = branch != nullptr && branch[0] != '\0'
                 ? std::string(branch)
                 : git_line("rev-parse --abbrev-ref HEAD");
  if (s.branch.empty()) {
    s.branch = "unknown";
  }
#ifdef NDEBUG
  s.build_type = "release";
#else
  s.build_type = "debug";
#endif
  struct utsname un = {};
  if (::uname(&un) == 0) {
    s.host = std::string(un.nodename) + "/" + un.machine;
  } else {
    s.host = "unknown";
  }
  s.unix_time = static_cast<int64_t>(std::time(nullptr));
  return s;
}

const int64_t* ResultRow::metric(std::string_view name) const {
  return find_pair(metrics, name);
}
const double* ResultRow::ratio(std::string_view name) const {
  return find_pair(ratios, name);
}
const int64_t* ResultRow::counter(std::string_view name) const {
  return find_pair(counters, name);
}

void write_row(std::ostream& os, const ResultRow& row) {
  json::Writer w(os, /*compact=*/true);
  w.begin_object();
  w.kv("schema", kResultSchema);
  w.kv("bench", row.bench);
  w.kv("circuit", row.circuit);
  w.kv("config", row.config);
  w.kv("config_hash", row.config_hash);
  w.kv("commit", row.stamp.commit);
  w.kv("branch", row.stamp.branch);
  w.kv("build", row.stamp.build_type);
  w.kv("host", row.stamp.host);
  w.kv("unix_time", row.stamp.unix_time);
  w.key("metrics").begin_object();
  for (const auto& [k, v] : row.metrics) {
    w.kv(k, v);
  }
  w.end_object();
  w.key("time_ms").begin_object();
  for (const auto& [k, v] : row.time_ms) {
    w.kv(k, v);
  }
  w.end_object();
  w.key("ratios").begin_object();
  for (const auto& [k, v] : row.ratios) {
    w.kv(k, v);
  }
  w.end_object();
  w.key("counters").begin_object();
  for (const auto& [k, v] : row.counters) {
    w.kv(k, v);
  }
  w.end_object();
  w.end_object();
}

std::optional<ResultRow> parse_row(std::string_view line) {
  const auto doc = json::parse(line);
  if (!doc.has_value() || !doc->is_object()) {
    return std::nullopt;
  }
  const json::Value* schema = obj_field(*doc, "schema", json::Value::Kind::String);
  if (schema == nullptr || schema->string != kResultSchema) {
    return std::nullopt;  // unknown schema version: skip, never mis-read
  }
  ResultRow row;
  const json::Value* bench = obj_field(*doc, "bench", json::Value::Kind::String);
  const json::Value* circuit = obj_field(*doc, "circuit", json::Value::Kind::String);
  const json::Value* hash = obj_field(*doc, "config_hash", json::Value::Kind::Number);
  const json::Value* commit = obj_field(*doc, "commit", json::Value::Kind::String);
  if (bench == nullptr || circuit == nullptr || hash == nullptr || commit == nullptr) {
    return std::nullopt;
  }
  row.bench = bench->string;
  row.circuit = circuit->string;
  row.config_hash = static_cast<uint64_t>(hash->as_int());
  row.stamp.commit = commit->string;
  if (const auto* v = obj_field(*doc, "config", json::Value::Kind::String)) {
    row.config = v->string;
  }
  if (const auto* v = obj_field(*doc, "branch", json::Value::Kind::String)) {
    row.stamp.branch = v->string;
  }
  if (const auto* v = obj_field(*doc, "build", json::Value::Kind::String)) {
    row.stamp.build_type = v->string;
  }
  if (const auto* v = obj_field(*doc, "host", json::Value::Kind::String)) {
    row.stamp.host = v->string;
  }
  if (const auto* v = obj_field(*doc, "unix_time", json::Value::Kind::Number)) {
    row.stamp.unix_time = v->as_int();
  }
  if (const auto* v = obj_field(*doc, "metrics", json::Value::Kind::Object)) {
    for (const auto& [k, f] : v->fields) {
      row.metrics.emplace_back(k, f.as_int());
    }
  }
  if (const auto* v = obj_field(*doc, "time_ms", json::Value::Kind::Object)) {
    for (const auto& [k, f] : v->fields) {
      row.time_ms.emplace_back(k, f.is_integer ? static_cast<double>(f.integer)
                                               : f.number);
    }
  }
  if (const auto* v = obj_field(*doc, "ratios", json::Value::Kind::Object)) {
    for (const auto& [k, f] : v->fields) {
      row.ratios.emplace_back(k, f.is_integer ? static_cast<double>(f.integer)
                                              : f.number);
    }
  }
  if (const auto* v = obj_field(*doc, "counters", json::Value::Kind::Object)) {
    for (const auto& [k, f] : v->fields) {
      row.counters.emplace_back(k, f.as_int());
    }
  }
  return row;
}

ResultDb load_result_db(const std::string& path) {
  ResultDb db;
  std::ifstream is(path);
  if (!is) {
    return db;  // no history yet: an empty database, not an error
  }
  std::string line;
  while (std::getline(is, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;  // blank lines are layout, not corruption
    }
    if (auto row = parse_row(line)) {
      db.rows.push_back(std::move(*row));
    } else {
      ++db.skipped_lines;
    }
  }
  return db;
}

bool append_result_rows(const std::string& path, const std::vector<ResultRow>& rows) {
  // Preserve the existing file byte-for-byte (including any lines the loader
  // would skip — append-only means nothing is ever silently dropped), then
  // publish old + new through a temp file + rename so readers never observe
  // a torn write.
  std::string existing;
  {
    std::ifstream is(path);
    if (is) {
      std::ostringstream ss;
      ss << is.rdbuf();
      existing = ss.str();
    }
  }
  if (!existing.empty() && existing.back() != '\n') {
    existing += '\n';
  }
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream os(tmp);
    if (!os) {
      return false;
    }
    os << existing;
    for (const ResultRow& row : rows) {
      write_row(os, row);
      os << '\n';
    }
    if (!os.good()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool RowKey::operator<(const RowKey& o) const {
  if (bench != o.bench) {
    return bench < o.bench;
  }
  if (circuit != o.circuit) {
    return circuit < o.circuit;
  }
  return config_hash < o.config_hash;
}

bool RowKey::operator==(const RowKey& o) const {
  return bench == o.bench && circuit == o.circuit && config_hash == o.config_hash;
}

RowKey key_of(const ResultRow& row) { return {row.bench, row.circuit, row.config_hash}; }

std::vector<const ResultRow*> rows_for_key(const ResultDb& db, const RowKey& key) {
  std::vector<const ResultRow*> out;
  for (const ResultRow& row : db.rows) {
    if (key_of(row) == key) {
      out.push_back(&row);
    }
  }
  return out;
}

std::optional<std::vector<ResultRow>> rows_from_bench_json(std::string_view text,
                                                           const ResultStamp& stamp) {
  const auto doc = json::parse(text);
  if (!doc.has_value() || !doc->is_object()) {
    return std::nullopt;
  }
  const json::Value* schema = obj_field(*doc, "schema", json::Value::Kind::String);
  const json::Value* bench = obj_field(*doc, "bench", json::Value::Kind::String);
  const json::Value* records = obj_field(*doc, "records", json::Value::Kind::Array);
  if (schema == nullptr || schema->string != "t1sfq-bench-v1" || bench == nullptr ||
      records == nullptr) {
    return std::nullopt;
  }
  std::vector<ResultRow> rows;
  for (const json::Value& rec : records->items) {
    if (!rec.is_object()) {
      return std::nullopt;
    }
    ResultRow row;
    row.bench = bench->string;
    row.stamp = stamp;
    const json::Value* circuit = obj_field(rec, "circuit", json::Value::Kind::String);
    const json::Value* hash = obj_field(rec, "config_hash", json::Value::Kind::Number);
    if (circuit == nullptr || hash == nullptr) {
      return std::nullopt;
    }
    row.circuit = circuit->string;
    row.config_hash = static_cast<uint64_t>(hash->as_int());
    if (const auto* v = obj_field(rec, "config", json::Value::Kind::String)) {
      row.config = v->string;
    }
    if (const auto* v = obj_field(rec, "metrics", json::Value::Kind::Object)) {
      for (const auto& [k, f] : v->fields) {
        row.metrics.emplace_back(k, f.as_int());
      }
    }
    if (const auto* v = obj_field(rec, "time_ms", json::Value::Kind::Object)) {
      for (const auto& [k, f] : v->fields) {
        row.time_ms.emplace_back(k, f.is_integer ? static_cast<double>(f.integer)
                                                 : f.number);
      }
    }
    if (const auto* v = obj_field(rec, "ratios", json::Value::Kind::Object)) {
      for (const auto& [k, f] : v->fields) {
        row.ratios.emplace_back(k, f.is_integer ? static_cast<double>(f.integer)
                                                : f.number);
      }
    }
    if (const auto* v = obj_field(rec, "counters", json::Value::Kind::Object)) {
      for (const auto& [k, f] : v->fields) {
        row.counters.emplace_back(k, f.as_int());
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------------

namespace {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) {
    return 0.0;
  }
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string row_label(const ResultRow& row) {
  return row.bench + "/" + row.circuit + "[" + row.config + "]";
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string attribution_text(const ResultRow& ref, const ResultRow& cur,
                             std::size_t top_n) {
  const auto deltas = attribute_counters(ref, cur, top_n);
  if (deltas.empty()) {
    return " (no counter deltas — counter snapshots identical or absent)";
  }
  std::string out = "; suspect subsystem: " + counter_subsystem(deltas.front().name) +
                    "; top counter deltas:";
  for (const CounterDelta& d : deltas) {
    out += " " + d.name + " " + std::to_string(d.ref) + "->" + std::to_string(d.cur) +
           " (" + (d.rel >= 0 ? "+" : "") + fmt_double(d.rel * 100.0) + "%)";
  }
  return out;
}

}  // namespace

bool GateReport::ok() const {
  for (const GateFinding& f : findings) {
    if (f.failure) {
      return false;
    }
  }
  return true;
}

GateReport gate_against_history(const ResultDb& history,
                                const std::vector<ResultRow>& current,
                                const GateOptions& opts) {
  GateReport rep;

  std::map<RowKey, std::vector<const ResultRow*>> hist;
  std::map<std::string, std::string> latest_commit;  // bench -> last appended commit
  for (const ResultRow& row : history.rows) {
    hist[key_of(row)].push_back(&row);
    latest_commit[row.bench] = row.stamp.commit;
  }
  std::map<RowKey, const ResultRow*> cur;
  std::set<std::string> current_benches;
  for (const ResultRow& row : current) {
    cur[key_of(row)] = &row;
    current_benches.insert(row.bench);
  }

  // Coverage: every key still alive at the history's latest commit (for a
  // bench this run claims to cover) must appear — a silently vanished record
  // is a lost gate, not a pass. Keys whose trajectory ended at an older
  // commit are retired configurations and stay quiet.
  for (const auto& [key, rows] : hist) {
    if (current_benches.count(key.bench) == 0) {
      continue;
    }
    if (rows.back()->stamp.commit != latest_commit[key.bench]) {
      continue;
    }
    if (cur.count(key) == 0) {
      rep.findings.push_back({row_label(*rows.back()),
                              "record missing from current run (coverage loss)",
                              /*failure=*/true});
    }
  }

  for (const ResultRow& row : current) {
    const auto it = hist.find(key_of(row));
    const std::string label = row_label(row);
    if (it == hist.end()) {
      ++rep.ungated_new;
      rep.findings.push_back({label, "no history yet — ungated", /*failure=*/false});
      continue;
    }
    const std::vector<const ResultRow*>& traj = it->second;
    const ResultRow& ref = *traj.back();

    for (const auto& [name, bval] : ref.metrics) {
      const int64_t* cval = row.metric(name);
      if (cval == nullptr) {
        rep.findings.push_back({label, "metric '" + name + "' missing", true});
        continue;
      }
      ++rep.checked_metrics;
      const double tol = std::abs(static_cast<double>(bval)) * opts.quality_tol;
      if (std::abs(static_cast<double>(*cval - bval)) > tol) {
        rep.findings.push_back(
            {label, "metric " + name + " = " + std::to_string(*cval) + ", history " +
                        std::to_string(bval) + " @" + ref.stamp.commit +
                        (tol > 0 ? " (tol ±" + fmt_double(tol) + ")" : " (exact)"),
             true});
      }
    }

    for (const auto& [name, ref_val] : ref.ratios) {
      (void)ref_val;
      const double* cval = row.ratio(name);
      if (cval == nullptr) {
        rep.findings.push_back({label, "ratio '" + name + "' missing", true});
        continue;
      }
      ++rep.checked_ratios;
      // Rolling median over the last_k rows that carry this ratio: one noisy
      // entry cannot move the band the way a single snapshot could.
      std::vector<double> window;
      for (auto rit = traj.rbegin(); rit != traj.rend() && window.size() < opts.last_k;
           ++rit) {
        if (const double* v = (*rit)->ratio(name)) {
          window.push_back(*v);
        }
      }
      const double med = median(window);
      const double bound = std::max(opts.ratio_floor, opts.ratio_frac * med);
      if (*cval < bound) {
        rep.findings.push_back(
            {label, "ratio " + name + " = " + fmt_double(*cval) + " < required " +
                        fmt_double(bound) + " (median of last " +
                        std::to_string(window.size()) + " = " + fmt_double(med) + ")" +
                        attribution_text(ref, row, opts.explain_top),
             true});
      }
    }

    // A counter absent from the reference reads 0 (rows recorded before the
    // registry kept zero counts): a rebuild counter that was 0 in history and
    // fires now must still fail. One the reference carries must still be
    // there: a vanished gated counter was renamed or unhooked, not zeroed.
    for (const std::string_view name : kGatedCounters) {
      const int64_t* ref_val = ref.counter(name);
      const int64_t* cur_val = row.counter(name);
      if (ref_val == nullptr && cur_val == nullptr) {
        continue;
      }
      ++rep.checked_counters;
      if (cur_val == nullptr) {
        rep.findings.push_back(
            {label, "counter " + std::string(name) + " missing (history " +
                        std::to_string(*ref_val) + " @" + ref.stamp.commit +
                        "): renamed or unhooked",
             true});
        continue;
      }
      const int64_t rv = ref_val ? *ref_val : 0;
      const int64_t cv = *cur_val;
      const double bound = static_cast<double>(rv) * (1.0 + kCounterGrowthBound);
      if (static_cast<double>(cv) > bound) {
        rep.findings.push_back(
            {label, "counter " + std::string(name) + " = " + std::to_string(cv) +
                        ", history " + std::to_string(rv) + " @" + ref.stamp.commit +
                        " (bound +" + fmt_double(kCounterGrowthBound * 100.0) + "%)" +
                        attribution_text(ref, row, opts.explain_top),
             true});
      }
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Attribution
// ---------------------------------------------------------------------------

std::vector<CounterDelta> attribute_counters(const ResultRow& ref, const ResultRow& cur,
                                             std::size_t top_n) {
  std::map<std::string, std::pair<int64_t, int64_t>> merged;
  for (const auto& [k, v] : ref.counters) {
    merged[k].first = v;
  }
  for (const auto& [k, v] : cur.counters) {
    merged[k].second = v;
  }
  std::vector<CounterDelta> deltas;
  for (const auto& [name, rc] : merged) {
    const auto [r, c] = rc;
    if (r == c) {
      continue;
    }
    CounterDelta d;
    d.name = name;
    d.ref = r;
    d.cur = c;
    const double ref_mag = std::max<double>(1.0, std::abs(static_cast<double>(r)));
    d.rel = static_cast<double>(c - r) / ref_mag;
    // A counter that tripled matters more when it is large: weight the ratio
    // change by the (log) magnitude so detect.guard.declines 116->5000 beats
    // some.counter 1->3.
    const double ratio = (std::abs(static_cast<double>(c)) + 1.0) /
                         (std::abs(static_cast<double>(r)) + 1.0);
    const double mag =
        std::max(std::abs(static_cast<double>(r)), std::abs(static_cast<double>(c)));
    d.score = std::abs(std::log2(ratio)) * std::log2(2.0 + mag);
    deltas.push_back(std::move(d));
  }
  std::sort(deltas.begin(), deltas.end(), [](const CounterDelta& a, const CounterDelta& b) {
    return a.score != b.score ? a.score > b.score : a.name < b.name;
  });
  if (deltas.size() > top_n) {
    deltas.resize(top_n);
  }
  return deltas;
}

std::string counter_subsystem(std::string_view counter_name) {
  const std::size_t dot = counter_name.rfind('.');
  return std::string(dot == std::string_view::npos ? counter_name
                                                   : counter_name.substr(0, dot));
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

namespace {

/// One rendered table line: a named series with its sparkline and endpoints.
struct SeriesLine {
  std::string label;
  std::string spark;
  std::string first;
  std::string last;
  std::string delta;
};

struct GroupTable {
  std::string bench;
  std::string circuit;
  std::string config;
  std::string first_commit;
  std::string last_commit;
  std::size_t entries = 0;
  std::vector<SeriesLine> lines;
};

std::string sparkline(const std::vector<double>& values) {
  // 8 block heights; a flat series renders mid-height so "no change" is
  // visually distinct from "no data".
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  double lo = values.empty() ? 0.0 : values.front();
  double hi = lo;
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (const double v : values) {
    int idx = 3;
    if (hi > lo) {
      idx = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
      idx = std::max(0, std::min(7, idx));
    }
    out += kBlocks[idx];
  }
  return out;
}

std::string fmt_int64(int64_t v) { return std::to_string(v); }

std::string delta_pct(double first, double last) {
  if (first == 0.0) {
    return last == 0.0 ? "+0%" : "n/a";
  }
  const double pct = (last - first) / std::abs(first) * 100.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", pct);
  return buf;
}

/// One series line across a trajectory; rows missing the name are skipped.
template <typename T, typename Fmt>
void add_series(std::vector<SeriesLine>& out, const std::string& label,
                const std::vector<const ResultRow*>& rows,
                const std::vector<std::pair<std::string, T>> ResultRow::*field,
                const std::string& name, Fmt fmt) {
  std::vector<double> values;
  std::string first, last;
  for (const ResultRow* row : rows) {
    if (const T* v = find_pair(row->*field, name)) {
      values.push_back(static_cast<double>(*v));
      if (first.empty()) {
        first = fmt(*v);
      }
      last = fmt(*v);
    }
  }
  if (values.empty()) {
    return;
  }
  out.push_back({label, sparkline(values), first, last,
                 delta_pct(values.front(), values.back())});
}

std::vector<GroupTable> build_model(const ResultDb& db, const ReportOptions& opts) {
  std::vector<RowKey> order;
  std::map<RowKey, std::vector<const ResultRow*>> groups;
  for (const ResultRow& row : db.rows) {
    const RowKey key = key_of(row);
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) {
      order.push_back(key);
    }
    it->second.push_back(&row);
  }
  // Benches together, then first-appearance order within a bench.
  std::stable_sort(order.begin(), order.end(),
                   [](const RowKey& a, const RowKey& b) { return a.bench < b.bench; });

  std::vector<GroupTable> tables;
  for (const RowKey& key : order) {
    std::vector<const ResultRow*> rows = groups[key];
    if (opts.last_k > 0 && rows.size() > opts.last_k) {
      rows.erase(rows.begin(), rows.end() - static_cast<std::ptrdiff_t>(opts.last_k));
    }
    const ResultRow& latest = *rows.back();
    GroupTable t;
    t.bench = key.bench;
    t.circuit = key.circuit;
    t.config = latest.config;
    t.first_commit = rows.front()->stamp.commit;
    t.last_commit = latest.stamp.commit;
    t.entries = rows.size();
    // Series names in the latest row's order (the emitters keep it stable).
    for (const auto& [name, v] : latest.metrics) {
      (void)v;
      add_series(t.lines, name, rows, &ResultRow::metrics, name, fmt_int64);
    }
    for (const auto& [name, v] : latest.ratios) {
      (void)v;
      add_series(t.lines, "ratio:" + name, rows, &ResultRow::ratios, name, fmt_double);
    }
    for (const auto& [name, v] : latest.time_ms) {
      (void)v;
      add_series(t.lines, "time:" + name + " (ms)", rows, &ResultRow::time_ms, name,
                 fmt_double);
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

std::size_t count_commits(const ResultDb& db) {
  std::set<std::string> commits;
  for (const ResultRow& row : db.rows) {
    commits.insert(row.stamp.commit);
  }
  return commits.size();
}

std::string html_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

void render_report_markdown(std::ostream& os, const ResultDb& db,
                            const ReportOptions& opts) {
  const auto tables = build_model(db, opts);
  os << "# Perf trajectory\n\n";
  os << "Generated by `dbtool report` from `" << opts.db_name
     << "` — do not edit by hand; regenerate with\n"
     << "`./build/dbtool report --db " << opts.db_name
     << " --out docs/PERF_TRAJECTORY.md` after appending new rows.\n\n";
  os << db.rows.size() << " rows across " << count_commits(db) << " commit(s), "
     << tables.size() << " trajectories";
  if (db.skipped_lines > 0) {
    os << " (" << db.skipped_lines << " corrupt line(s) skipped)";
  }
  os << ". `ratio:*` series are CI-gated against the rolling median;\n"
     << "`time:*` series are machine-dependent and informational only.\n";

  std::string bench;
  for (const GroupTable& t : tables) {
    if (t.bench != bench) {
      bench = t.bench;
      os << "\n## " << bench << "\n";
    }
    os << "\n### `" << t.circuit << "` [`" << t.config << "`]\n\n";
    os << t.entries << " entr" << (t.entries == 1 ? "y" : "ies") << ", commits `"
       << t.first_commit << "` → `" << t.last_commit << "`.\n\n";
    os << "| series | trend | first | last | Δ |\n";
    os << "|---|---|---:|---:|---:|\n";
    for (const SeriesLine& l : t.lines) {
      os << "| " << l.label << " | " << l.spark << " | " << l.first << " | " << l.last
         << " | " << l.delta << " |\n";
    }
  }
}

void render_report_html(std::ostream& os, const ResultDb& db,
                        const ReportOptions& opts) {
  const auto tables = build_model(db, opts);
  os << "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
     << "<title>Perf trajectory</title>\n<style>\n"
     << "body{font-family:system-ui,sans-serif;margin:2rem;max-width:70rem}\n"
     << "table{border-collapse:collapse;margin:0.5rem 0}\n"
     << "td,th{border:1px solid #ccc;padding:3px 10px;font-size:0.9rem}\n"
     << "td.num{text-align:right}td.spark{font-family:monospace}\n"
     << "</style></head><body>\n<h1>Perf trajectory</h1>\n";
  os << "<p>" << db.rows.size() << " rows across " << count_commits(db)
     << " commit(s), " << tables.size() << " trajectories";
  if (db.skipped_lines > 0) {
    os << " (" << db.skipped_lines << " corrupt line(s) skipped)";
  }
  os << ". Generated from <code>" << html_escape(opts.db_name) << "</code>.</p>\n";

  std::string bench;
  for (const GroupTable& t : tables) {
    if (t.bench != bench) {
      bench = t.bench;
      os << "<h2>" << html_escape(bench) << "</h2>\n";
    }
    os << "<h3><code>" << html_escape(t.circuit) << "</code> [<code>"
       << html_escape(t.config) << "</code>]</h3>\n";
    os << "<p>" << t.entries << " entries, commits <code>"
       << html_escape(t.first_commit) << "</code> → <code>"
       << html_escape(t.last_commit) << "</code>.</p>\n";
    os << "<table><tr><th>series</th><th>trend</th><th>first</th><th>last</th>"
       << "<th>Δ</th></tr>\n";
    for (const SeriesLine& l : t.lines) {
      os << "<tr><td>" << html_escape(l.label) << "</td><td class=\"spark\">" << l.spark
         << "</td><td class=\"num\">" << l.first << "</td><td class=\"num\">" << l.last
         << "</td><td class=\"num\">" << l.delta << "</td></tr>\n";
    }
    os << "</table>\n";
  }
  os << "</body></html>\n";
}

}  // namespace t1sfq::obs
