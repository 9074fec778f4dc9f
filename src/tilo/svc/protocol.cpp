#include "tilo/svc/protocol.hpp"

#include "tilo/pipeline/serialize.hpp"
#include "tilo/util/error.hpp"

namespace tilo::svc {

namespace {

/// Envelope check shared by both directions: {"tilo": <doc>, "version": 1}.
void require_envelope(const Json& j, std::string_view doc) {
  TILO_REQUIRE(j.is_object(), "svc ", doc, ": not a JSON object");
  const Json* tag = j.find("tilo");
  TILO_REQUIRE(tag && tag->as_string("tilo") == doc, "svc ", doc,
               ": missing or wrong \"tilo\" tag");
  const Json* version = j.find("version");
  TILO_REQUIRE(version, "svc ", doc, ": missing \"version\"");
  const i64 v = version->as_integer("version");
  TILO_REQUIRE(v == kProtocolVersion, "svc ", doc, ": version ", v,
               " unsupported (this build speaks version ", kProtocolVersion,
               ")");
}

Json vec_to_json(const lat::Vec& v) {
  Json a = Json::array();
  for (std::size_t i = 0; i < v.size(); ++i) a.push(Json::integer(v[i]));
  return a;
}

lat::Vec vec_from_json(const Json& j, std::string_view what) {
  const Json::Array& a = j.as_array(what);
  std::vector<i64> v;
  v.reserve(a.size());
  for (const Json& e : a) v.push_back(e.as_integer(what));
  return lat::Vec(std::move(v));
}

}  // namespace

/// The canonical workload object — the only fields problem identity (and
/// therefore single-flight batching and the multi-problem plan cache key)
/// depends on.  Field order is fixed; absent optionals are omitted.
Json workload_to_json(const CompileParams& p) {
  Json w = Json::object();
  w.set("name", Json::string(p.name));
  w.set("source", Json::string(p.source));
  if (p.procs) w.set("procs", vec_to_json(*p.procs));
  if (p.auto_procs) w.set("auto_procs", Json::integer(*p.auto_procs));
  if (p.height) w.set("height", Json::integer(*p.height));
  w.set("schedule", Json::string(std::string(
                        pipeline::schedule_kind_name(p.kind))));
  if (p.simulate) w.set("simulate", Json::boolean(true));
  if (p.include_plan) w.set("include_plan", Json::boolean(true));
  if (!p.model.empty()) w.set("model", Json::string(p.model));
  if (!p.workload_kind.empty())
    w.set("kind", Json::string(p.workload_kind));
  if (!p.constraints.empty()) {
    Json a = Json::array();
    for (const std::string& c : p.constraints) a.push(Json::string(c));
    w.set("constraints", std::move(a));
  }
  return w;
}

CompileParams workload_from_json(const Json& j) {
  TILO_REQUIRE(j.is_object(), "svc request: \"workload\" is not an object");
  CompileParams p;
  p.name = j.at("name").as_string("workload.name");
  p.source = j.at("source").as_string("workload.source");
  TILO_REQUIRE(!p.source.empty(), "svc request: empty workload source");
  if (const Json* v = j.find("procs"))
    p.procs = vec_from_json(*v, "workload.procs");
  if (const Json* v = j.find("auto_procs"))
    p.auto_procs = v->as_integer("workload.auto_procs");
  if (const Json* v = j.find("height"))
    p.height = v->as_integer("workload.height");
  if (const Json* v = j.find("schedule"))
    p.kind = pipeline::schedule_kind_from(v->as_string("workload.schedule"));
  if (const Json* v = j.find("simulate"))
    p.simulate = v->as_bool("workload.simulate");
  if (const Json* v = j.find("include_plan"))
    p.include_plan = v->as_bool("workload.include_plan");
  if (const Json* v = j.find("model"))
    p.model = v->as_string("workload.model");
  if (const Json* v = j.find("kind"))
    p.workload_kind = v->as_string("workload.kind");
  if (const Json* v = j.find("constraints"))
    for (const Json& c : v->as_array("workload.constraints"))
      p.constraints.push_back(c.as_string("workload.constraints"));
  return p;
}

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kCompile: return "compile";
    case Op::kPing: return "ping";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
    case Op::kRegister: return "register";
    case Op::kHeartbeat: return "heartbeat";
    case Op::kDeregister: return "deregister";
    case Op::kUnit: return "unit";
    case Op::kQueue: return "queue";
    case Op::kAcct: return "accounting";
  }
  return "?";
}

Op op_from(std::string_view name) {
  if (name == "compile") return Op::kCompile;
  if (name == "ping") return Op::kPing;
  if (name == "stats") return Op::kStats;
  if (name == "shutdown") return Op::kShutdown;
  if (name == "register") return Op::kRegister;
  if (name == "heartbeat") return Op::kHeartbeat;
  if (name == "deregister") return Op::kDeregister;
  if (name == "unit") return Op::kUnit;
  if (name == "queue") return Op::kQueue;
  if (name == "accounting") return Op::kAcct;
  TILO_REQUIRE(false, "svc request: unknown op \"", std::string(name), "\"");
  return Op::kPing;  // unreachable
}

Json request_to_json(const Request& req) {
  Json j = Json::object();
  j.set("tilo", Json::string("svc.request"));
  j.set("version", Json::integer(kProtocolVersion));
  if (req.id) j.set("id", Json::integer(*req.id));
  j.set("op", Json::string(std::string(op_name(req.op))));
  if (req.deadline_ms) j.set("deadline_ms", Json::integer(*req.deadline_ms));
  if (req.op == Op::kCompile) j.set("workload", workload_to_json(req.compile));
  if (!req.fleet.is_null()) j.set("fleet", req.fleet);
  if (!req.tenant.empty()) j.set("tenant", Json::string(req.tenant));
  return j;
}

Request request_from_json(const Json& j) {
  require_envelope(j, "svc.request");
  Request req;
  if (const Json* id = j.find("id")) req.id = id->as_integer("id");
  req.op = op_from(j.at("op").as_string("op"));
  if (const Json* d = j.find("deadline_ms")) {
    req.deadline_ms = d->as_integer("deadline_ms");
    TILO_REQUIRE(*req.deadline_ms >= 0, "svc request: negative deadline_ms");
  }
  if (req.op == Op::kCompile) req.compile = workload_from_json(j.at("workload"));
  if (const Json* f = j.find("fleet")) {
    TILO_REQUIRE(f->is_object(), "svc request: \"fleet\" is not an object");
    req.fleet = *f;
  }
  if (const Json* t = j.find("tenant")) req.tenant = t->as_string("tenant");
  return req;
}

std::string problem_key(const CompileParams& params) {
  return workload_to_json(params).dump();
}

std::string_view status_name(RespStatus status) {
  switch (status) {
    case RespStatus::kOk: return "ok";
    case RespStatus::kBadRequest: return "bad_request";
    case RespStatus::kUnsupportedVersion: return "unsupported_version";
    case RespStatus::kOverloaded: return "overloaded";
    case RespStatus::kTimeout: return "timeout";
    case RespStatus::kShuttingDown: return "shutting_down";
    case RespStatus::kQuotaExceeded: return "quota_exceeded";
    case RespStatus::kError: return "error";
  }
  return "?";
}

RespStatus status_from(std::string_view name) {
  if (name == "ok") return RespStatus::kOk;
  if (name == "bad_request") return RespStatus::kBadRequest;
  if (name == "unsupported_version") return RespStatus::kUnsupportedVersion;
  if (name == "overloaded") return RespStatus::kOverloaded;
  if (name == "timeout") return RespStatus::kTimeout;
  if (name == "shutting_down") return RespStatus::kShuttingDown;
  if (name == "quota_exceeded") return RespStatus::kQuotaExceeded;
  if (name == "error") return RespStatus::kError;
  TILO_REQUIRE(false, "svc response: unknown status \"", std::string(name),
               "\"");
  return RespStatus::kError;  // unreachable
}

std::string response_to_wire(const Response& resp) {
  // Hand-assembled so `result` is spliced verbatim: single-flight followers
  // and the leader all send the exact bytes the compile produced once.
  std::string out = "{\"tilo\":\"svc.response\",\"version\":";
  out += std::to_string(kProtocolVersion);
  if (resp.id) {
    out += ",\"id\":";
    out += std::to_string(*resp.id);
  }
  out += ",\"status\":\"";
  out += status_name(resp.status);
  out += '"';
  if (!resp.error.empty()) {
    out += ",\"error\":";
    out += Json::string(resp.error).dump();  // quoted + escaped
  }
  if (!resp.result.empty()) {
    out += ",\"result\":";
    out += resp.result;
  }
  out += '}';
  return out;
}

Response response_from_wire(std::string_view text) {
  const Json j = Json::parse(text);
  require_envelope(j, "svc.response");
  Response resp;
  resp.status = status_from(j.at("status").as_string("status"));
  if (const Json* id = j.find("id")) resp.id = id->as_integer("id");
  if (const Json* err = j.find("error"))
    resp.error = err->as_string("error");
  // Re-dumping the parsed result is byte-identical to the wire bytes (the
  // writer is deterministic and parse→dump round-trips), so clients can
  // compare result strings directly.
  if (const Json* res = j.find("result")) resp.result = res->dump();
  return resp;
}

Response oversized_frame_response(std::size_t max_frame_bytes) {
  Response resp;
  resp.status = RespStatus::kBadRequest;
  resp.error = util::concat("frame length exceeds the ", max_frame_bytes,
                            "-byte cap");
  return resp;
}

}  // namespace tilo::svc
