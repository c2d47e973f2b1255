#include "service/protocol.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "network/io.hpp"
#include "obs/json.hpp"

namespace t1sfq::service {

namespace {

const json::Value* require(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  if (!v) {
    throw Error(ErrorCode::InvalidRequest,
                "request: missing field '" + std::string(key) + "'");
  }
  return v;
}

std::string get_string(const json::Value& obj, std::string_view key,
                       std::string fallback = {}) {
  const json::Value* v = obj.find(key);
  return v && v->is_string() ? v->string : fallback;
}

uint64_t get_uint(const json::Value& obj, std::string_view key, uint64_t fallback) {
  const json::Value* v = obj.find(key);
  return v && v->is_number() ? static_cast<uint64_t>(v->as_int()) : fallback;
}

bool get_bool(const json::Value& obj, std::string_view key, bool fallback) {
  const json::Value* v = obj.find(key);
  return v && v->kind == json::Value::Kind::Bool ? v->boolean : fallback;
}

FlowRequest parse_flow_fields(const json::Value& obj) {
  FlowRequest req;
  const json::Value* blif = require(obj, "blif");
  if (!blif->is_string()) {
    throw Error(ErrorCode::InvalidRequest, "request: 'blif' must be a string");
  }
  std::istringstream is(blif->string);
  req.network = read_blif(is);  // throws ParseError on malformed BLIF
  req.circuit = get_string(obj, "circuit", req.network.name());
  req.phases = static_cast<unsigned>(get_uint(obj, "phases", req.phases));
  req.use_t1 = get_bool(obj, "use_t1", req.use_t1);
  const std::string engine = get_string(obj, "engine", "heuristic");
  if (engine == "milp") {
    req.engine = PhaseEngine::ExactMilp;
  } else if (engine == "heuristic") {
    req.engine = PhaseEngine::Heuristic;
  } else {
    throw Error(ErrorCode::InvalidRequest,
                "request: unknown engine '" + engine + "'");
  }
  req.output_slack = static_cast<Stage>(get_uint(obj, "output_slack", req.output_slack));
  req.optimize = get_bool(obj, "optimize", req.optimize);
  req.opt_rounds = static_cast<unsigned>(get_uint(obj, "opt_rounds", req.opt_rounds));
  req.physics_check = get_bool(obj, "physics_check", req.physics_check);
  req.observe = get_bool(obj, "observe", req.observe);
  req.session = get_string(obj, "session");
  req.return_netlist = get_bool(obj, "return_netlist", req.return_netlist);
  return req;
}

void encode_flow_fields(json::Writer& w, const FlowRequest& req) {
  std::ostringstream blif;
  write_blif(req.network, blif);
  w.kv("circuit", req.circuit);
  w.kv("blif", blif.str());
  w.kv("phases", req.phases);
  w.kv("use_t1", req.use_t1);
  w.kv("engine", req.engine == PhaseEngine::ExactMilp ? "milp" : "heuristic");
  w.kv("output_slack", static_cast<uint64_t>(req.output_slack));
  w.kv("optimize", req.optimize);
  w.kv("opt_rounds", req.opt_rounds);
  w.kv("physics_check", req.physics_check);
  w.kv("observe", req.observe);
  if (!req.session.empty()) w.kv("session", req.session);
  w.kv("return_netlist", req.return_netlist);
}

std::string encode_simple(const char* op) {
  std::ostringstream ss;
  json::Writer w(ss, /*compact=*/true);
  w.begin_object().kv("schema", kFlowSchema).kv("op", op).end_object();
  return ss.str();
}

void encode_response_body(json::Writer& w, const FlowResponse& resp) {
  w.kv("ok", resp.ok);
  w.kv("tier", to_string(resp.tier));
  w.kv("cache_key", resp.cache_key);
  if (!resp.ok) {
    w.kv("error", to_string(resp.error));
    w.kv("message", resp.message);
    return;
  }
  const FlowMetrics& m = resp.metrics;
  w.key("metrics").begin_object();
  w.kv("num_gates", static_cast<uint64_t>(m.num_gates));
  w.kv("num_dffs", static_cast<uint64_t>(m.num_dffs));
  w.kv("num_splitters", static_cast<uint64_t>(m.num_splitters));
  w.kv("area_jj", m.area_jj);
  w.kv("depth_cycles", static_cast<uint64_t>(m.depth_cycles));
  w.kv("t1_found", static_cast<uint64_t>(m.t1_found));
  w.kv("t1_used", static_cast<uint64_t>(m.t1_used));
  w.kv("pre_opt_gates", static_cast<uint64_t>(m.pre_opt_gates));
  w.kv("pre_opt_depth", static_cast<uint64_t>(m.pre_opt_depth));
  w.kv("opt_gates", static_cast<uint64_t>(m.opt_gates));
  w.kv("opt_depth", static_cast<uint64_t>(m.opt_depth));
  w.kv("opt_applied", static_cast<uint64_t>(m.opt_applied));
  w.kv("pre_opt_area_jj", m.pre_opt_area_jj);
  w.kv("opt_area_jj", m.opt_area_jj);
  w.kv("detect_area_jj", m.detect_area_jj);
  w.key("breakdown").begin_object();
  w.kv("logic", m.breakdown.logic);
  w.kv("dff", m.breakdown.dff);
  w.kv("splitter", m.breakdown.splitter);
  w.kv("clock", m.breakdown.clock);
  w.end_object();
  w.end_object();
  const FlowTimings& t = resp.timings;
  w.key("timings").begin_object();
  w.kv("cleanup_ms", t.cleanup_ms);
  w.kv("opt_ms", t.opt_ms);
  w.kv("detect_ms", t.detect_ms);
  w.kv("assign_ms", t.assign_ms);
  w.kv("insert_ms", t.insert_ms);
  w.kv("physics_ms", t.physics_ms);
  w.kv("total_ms", t.total_ms);
  w.end_object();
  if (!resp.netlist_blif.empty()) w.kv("netlist", resp.netlist_blif);
}

double get_double(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  return v && v->is_number() ? v->number : 0.0;
}

FlowResponse parse_response_object(const json::Value& obj) {
  FlowResponse resp;
  resp.ok = get_bool(obj, "ok", false);
  const std::string tier = get_string(obj, "tier", "cold");
  if (tier == "warm") {
    resp.tier = FlowTier::Warm;
  } else if (tier == "eco") {
    resp.tier = FlowTier::Eco;
  } else {
    resp.tier = FlowTier::Cold;
  }
  resp.cache_key = get_uint(obj, "cache_key", 0);
  if (!resp.ok) {
    resp.error = error_code_from_string(get_string(obj, "error", "internal"));
    resp.message = get_string(obj, "message");
    return resp;
  }
  if (const json::Value* m = obj.find("metrics"); m && m->is_object()) {
    FlowMetrics& fm = resp.metrics;
    fm.num_gates = get_uint(*m, "num_gates", 0);
    fm.num_dffs = get_uint(*m, "num_dffs", 0);
    fm.num_splitters = get_uint(*m, "num_splitters", 0);
    fm.area_jj = get_uint(*m, "area_jj", 0);
    fm.depth_cycles = static_cast<Stage>(get_uint(*m, "depth_cycles", 0));
    fm.t1_found = get_uint(*m, "t1_found", 0);
    fm.t1_used = get_uint(*m, "t1_used", 0);
    fm.pre_opt_gates = get_uint(*m, "pre_opt_gates", 0);
    fm.pre_opt_depth = static_cast<uint32_t>(get_uint(*m, "pre_opt_depth", 0));
    fm.opt_gates = get_uint(*m, "opt_gates", 0);
    fm.opt_depth = static_cast<uint32_t>(get_uint(*m, "opt_depth", 0));
    fm.opt_applied = get_uint(*m, "opt_applied", 0);
    fm.pre_opt_area_jj = get_uint(*m, "pre_opt_area_jj", 0);
    fm.opt_area_jj = get_uint(*m, "opt_area_jj", 0);
    fm.detect_area_jj = get_uint(*m, "detect_area_jj", 0);
    if (const json::Value* b = m->find("breakdown"); b && b->is_object()) {
      fm.breakdown.logic = get_uint(*b, "logic", 0);
      fm.breakdown.dff = get_uint(*b, "dff", 0);
      fm.breakdown.splitter = get_uint(*b, "splitter", 0);
      fm.breakdown.clock = get_uint(*b, "clock", 0);
    }
  }
  if (const json::Value* t = obj.find("timings"); t && t->is_object()) {
    FlowTimings& ft = resp.timings;
    ft.cleanup_ms = get_double(*t, "cleanup_ms");
    ft.opt_ms = get_double(*t, "opt_ms");
    ft.detect_ms = get_double(*t, "detect_ms");
    ft.assign_ms = get_double(*t, "assign_ms");
    ft.insert_ms = get_double(*t, "insert_ms");
    ft.physics_ms = get_double(*t, "physics_ms");
    ft.total_ms = get_double(*t, "total_ms");
  }
  resp.netlist_blif = get_string(obj, "netlist");
  return resp;
}

}  // namespace

bool read_frame(std::istream& in, std::string& payload) {
  uint8_t len_bytes[4];
  in.read(reinterpret_cast<char*>(len_bytes), 4);
  if (in.gcount() == 0 && in.eof()) return false;  // clean EOF between frames
  if (in.gcount() != 4) {
    throw Error(ErrorCode::InvalidRequest, "frame: truncated length prefix");
  }
  const uint32_t len = (uint32_t{len_bytes[0]} << 24) | (uint32_t{len_bytes[1]} << 16) |
                       (uint32_t{len_bytes[2]} << 8) | uint32_t{len_bytes[3]};
  if (len > kMaxFrameBytes) {
    throw Error(ErrorCode::InvalidRequest,
                "frame: payload length " + std::to_string(len) + " exceeds limit");
  }
  // Grow with the bytes actually received: a corrupt prefix announcing up to
  // the cap on a short stream must not allocate the announced size first.
  constexpr std::size_t kChunk = 1u << 16;
  payload.clear();
  while (payload.size() < len) {
    const std::size_t have = payload.size();
    const std::size_t want = std::min<std::size_t>(len - have, kChunk);
    payload.resize(have + want);
    in.read(payload.data() + have, static_cast<std::streamsize>(want));
    if (static_cast<std::size_t>(in.gcount()) != want) {
      throw Error(ErrorCode::InvalidRequest, "frame: truncated payload");
    }
  }
  return true;
}

void write_frame(std::ostream& out, std::string_view payload) {
  const auto len = static_cast<uint32_t>(payload.size());
  const char len_bytes[4] = {
      static_cast<char>(len >> 24), static_cast<char>(len >> 16),
      static_cast<char>(len >> 8), static_cast<char>(len)};
  out.write(len_bytes, 4);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.flush();
}

Request parse_request(const std::string& payload) {
  const std::optional<json::Value> doc = json::parse(payload);
  if (!doc || !doc->is_object()) {
    throw ParseError("request: malformed JSON payload");
  }
  const std::string schema = get_string(*doc, "schema");
  if (schema != kFlowSchema) {
    throw Error(ErrorCode::InvalidRequest,
                "request: unsupported schema '" + schema + "' (expected " +
                    std::string(kFlowSchema) + ")");
  }
  const json::Value* opv = require(*doc, "op");
  if (!opv->is_string()) {
    throw Error(ErrorCode::InvalidRequest, "request: 'op' must be a string");
  }
  Request req;
  const std::string& op_name = opv->string;
  if (op_name == "ping") {
    req.op = Request::Op::Ping;
  } else if (op_name == "stats") {
    req.op = Request::Op::Stats;
  } else if (op_name == "shutdown") {
    req.op = Request::Op::Shutdown;
  } else if (op_name == "flow") {
    req.op = Request::Op::Flow;
    req.flow = parse_flow_fields(*doc);
  } else if (op_name == "batch") {
    req.op = Request::Op::Batch;
    const json::Value* jobs = require(*doc, "jobs");
    if (!jobs->is_array()) {
      throw Error(ErrorCode::InvalidRequest, "request: 'jobs' must be an array");
    }
    req.batch.reserve(jobs->items.size());
    for (const json::Value& job : jobs->items) {
      if (!job.is_object()) {
        throw Error(ErrorCode::InvalidRequest, "request: batch job must be an object");
      }
      req.batch.push_back(parse_flow_fields(job));
    }
    req.threads = static_cast<unsigned>(get_uint(*doc, "threads", 0));
  } else {
    throw Error(ErrorCode::InvalidRequest, "request: unknown op '" + op_name + "'");
  }
  return req;
}

std::string encode_ping() { return encode_simple("ping"); }
std::string encode_stats_request() { return encode_simple("stats"); }
std::string encode_shutdown() { return encode_simple("shutdown"); }

std::string encode_flow_request(const FlowRequest& req) {
  std::ostringstream ss;
  json::Writer w(ss, /*compact=*/true);
  w.begin_object().kv("schema", kFlowSchema).kv("op", "flow");
  encode_flow_fields(w, req);
  w.end_object();
  return ss.str();
}

std::string encode_batch_request(const std::vector<FlowRequest>& reqs, unsigned threads) {
  std::ostringstream ss;
  json::Writer w(ss, /*compact=*/true);
  w.begin_object().kv("schema", kFlowSchema).kv("op", "batch");
  if (threads != 0) w.kv("threads", threads);
  w.key("jobs").begin_array();
  for (const FlowRequest& req : reqs) {
    w.begin_object();
    encode_flow_fields(w, req);
    w.end_object();
  }
  w.end_array().end_object();
  return ss.str();
}

std::string encode_response(const FlowResponse& resp) {
  std::ostringstream ss;
  json::Writer w(ss, /*compact=*/true);
  w.begin_object().kv("schema", kFlowSchema).kv("op", "result");
  encode_response_body(w, resp);
  w.end_object();
  return ss.str();
}

std::string encode_batch_response(const std::vector<FlowResponse>& resps) {
  std::ostringstream ss;
  json::Writer w(ss, /*compact=*/true);
  w.begin_object().kv("schema", kFlowSchema).kv("op", "batch_result");
  w.kv("ok", true);
  w.key("results").begin_array();
  for (const FlowResponse& resp : resps) {
    w.begin_object();
    encode_response_body(w, resp);
    w.end_object();
  }
  w.end_array().end_object();
  return ss.str();
}

std::string encode_error(ErrorCode code, const std::string& message) {
  FlowResponse resp;
  resp.ok = false;
  resp.error = code;
  resp.message = message;
  return encode_response(resp);
}

FlowResponse parse_response(const std::string& payload) {
  const std::optional<json::Value> doc = json::parse(payload);
  if (!doc || !doc->is_object()) {
    throw ParseError("response: malformed JSON payload");
  }
  return parse_response_object(*doc);
}

std::vector<FlowResponse> parse_batch_response(const std::string& payload) {
  const std::optional<json::Value> doc = json::parse(payload);
  if (!doc || !doc->is_object()) {
    throw ParseError("response: malformed JSON payload");
  }
  std::vector<FlowResponse> out;
  if (const json::Value* results = doc->find("results"); results && results->is_array()) {
    out.reserve(results->items.size());
    for (const json::Value& item : results->items) {
      out.push_back(parse_response_object(item));
    }
  }
  return out;
}

}  // namespace t1sfq::service
