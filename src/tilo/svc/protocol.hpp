// The plan-compilation service's wire protocol: versioned JSON request and
// response envelopes carried in length-prefixed frames (socket.hpp).
//
//   request   {"tilo": "svc.request", "version": 1, "id": 7,
//              "op": "compile", "deadline_ms": 250,
//              "workload": {"name": "heat", "source": "FOR i = ...",
//                           "procs": [4, 1], "height": 16,
//                           "schedule": "overlap", "simulate": true,
//                           "include_plan": false}}
//   response  {"tilo": "svc.response", "version": 1, "id": 7,
//              "status": "ok", "result": { ... }}
//
// Ops: "compile" (the real work), "ping", "stats", "shutdown" (graceful
// drain), plus the fleet-orchestration trio "register"/"heartbeat"/"unit"
// (and "deregister") and the scheduler-introspection pair
// "queue"/"accounting" served by a fleet::Controller — a plain svc::Server
// answers those with bad_request.  Non-"ok" statuses are the service's
// explicit load-shedding and failure vocabulary — a client always gets an
// answer, never silence.
//
// Single-flight batching hangs off problem_key(): the canonical dump of a
// compile's workload object.  Responses splice the serialized result in
// verbatim (response_to_wire), so every member of a batched flight receives
// byte-identical result bytes — the property the svc tests pin down.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tilo/lattice/vec.hpp"
#include "tilo/pipeline/json.hpp"
#include "tilo/sched/tiled.hpp"

namespace tilo::svc {

using pipeline::Json;
using util::i64;

/// Version stamped into (and required of) every request and response.
inline constexpr i64 kProtocolVersion = 1;

enum class Op {
  kCompile,
  kPing,
  kStats,
  kShutdown,
  kRegister,    ///< fleet: worker joins, receives id + credit window
  kHeartbeat,   ///< fleet: liveness beacon between unit round trips
  kDeregister,  ///< fleet: graceful leave; leases requeue immediately
  kUnit,        ///< fleet: return completed units, lease the next batch
  kQueue,       ///< fleet: squeue-style per-job / per-partition snapshot
  kAcct,        ///< fleet: sacct-style per-tenant fair-share accounting
};
std::string_view op_name(Op op);
Op op_from(std::string_view name);  ///< throws util::Error on unknown ops

/// The compile op's workload: what to compile and how.  Mirrors the
/// per-workload knobs of pipeline scenario files; absent grid fields fall
/// back to the pipeline default (one processor everywhere).
struct CompileParams {
  std::string name = "workload";
  std::string source;                 ///< loop-nest grammar text
  std::optional<lat::Vec> procs;      ///< explicit grid
  std::optional<i64> auto_procs;      ///< planner budget (wins over procs)
  std::optional<i64> height;          ///< tile height V; empty = analytic
  sched::ScheduleKind kind = sched::ScheduleKind::kOverlap;
  bool simulate = false;              ///< also run the simulator
  bool include_plan = false;          ///< embed the full plan bundle
  /// Machine-model registry name (mach::make_model) to compile under;
  /// "" keeps the server's own machine/model (and, being omitted from the
  /// workload object, leaves historical problem_key bytes unchanged).
  /// Unknown names answer kBadRequest.
  std::string model;
  /// Workload family (workload::kind_name) of `source`; "" means uniform
  /// and is omitted from the workload object, so historical problem_key
  /// bytes are unchanged.  Unknown names answer kBadRequest.
  std::string workload_kind;
  /// Projective cut planes; empty is omitted from the wire.
  std::vector<std::string> constraints;
};

struct Request {
  Op op = Op::kPing;
  std::optional<i64> id;           ///< echoed back; absent = no echo
  std::optional<i64> deadline_ms;  ///< admission-to-completion budget
  CompileParams compile;           ///< only meaningful when op == kCompile
  Json fleet;                      ///< fleet-op body; null for other ops
  /// Admission-control identity (store::Quota); lives on the envelope, not
  /// the workload — quota identity must not perturb problem_key.  "" means
  /// the "default" tenant and is omitted from the wire.
  std::string tenant;
};

/// The canonical workload object (the basis of problem_key); public so the
/// fleet can embed compile workloads inside its unit payloads verbatim.
Json workload_to_json(const CompileParams& p);
CompileParams workload_from_json(const Json& j);

Json request_to_json(const Request& req);
/// Validates the envelope ({"tilo": "svc.request", "version": 1}) and
/// every field; throws util::Error on anything malformed.
Request request_from_json(const Json& j);

/// Problem identity of a compile: the canonical dump of every field that
/// determines the compiled artifact (not id, not deadline).  Two requests
/// with equal keys are satisfied by one compile.
std::string problem_key(const CompileParams& params);

enum class RespStatus {
  kOk,
  kBadRequest,          ///< malformed frame / JSON / fields
  kUnsupportedVersion,  ///< envelope version != kProtocolVersion
  kOverloaded,          ///< admission queue full — shed, retry later
  kTimeout,             ///< deadline passed before a worker got to it
  kShuttingDown,        ///< server is draining; no new work
  kQuotaExceeded,       ///< tenant token bucket dry — back off, retry later
  kError,               ///< the compile itself failed (util::Error)
};
std::string_view status_name(RespStatus status);
RespStatus status_from(std::string_view name);  ///< throws on unknown

struct Response {
  RespStatus status = RespStatus::kOk;
  std::optional<i64> id;
  std::string error;   ///< human-readable detail for non-ok statuses
  std::string result;  ///< raw JSON text of the result object; "" = none
};

/// Serializes the envelope with `result` spliced in verbatim, so a cached
/// or single-flight-shared result string reaches every client unchanged.
std::string response_to_wire(const Response& resp);
Response response_from_wire(std::string_view text);  ///< throws on malformed

/// The one answer to a length prefix beyond `max_frame_bytes`, sent before
/// the connection closes.
Response oversized_frame_response(std::size_t max_frame_bytes);

}  // namespace tilo::svc
