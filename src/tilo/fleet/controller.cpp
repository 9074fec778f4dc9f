#include "tilo/fleet/controller.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <numeric>
#include <ostream>

#include "tilo/svc/server.hpp"  // histogram_percentile_ns
#include "tilo/util/error.hpp"

namespace tilo::fleet {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The legacy single-job plan: every unit under one default-spec array.
std::vector<JobArray> wrap_units(std::vector<WorkUnit> units) {
  std::vector<JobArray> jobs(1);
  jobs[0].units = std::move(units);
  return jobs;
}

/// Segment-log key of the fair-share snapshot record (last one wins).
constexpr const char* kAcctKey = "fairshare";

/// The persisted snapshot: a JSON array of tenant rows.  Factor is
/// recomputed after restore, so only the durable fields travel.
std::string acct_rows_to_json(const std::vector<sched::TenantStatus>& rows) {
  Json a = Json::array();
  for (const sched::TenantStatus& t : rows) {
    Json o = Json::object();
    o.set("name", Json::string(t.name));
    o.set("share", Json::number(t.share));
    o.set("usage", Json::number(t.usage));
    o.set("charged_units", Json::integer(static_cast<i64>(t.charged_units)));
    a.push(std::move(o));
  }
  return a.dump();
}

std::vector<sched::TenantStatus> acct_rows_from_json(std::string_view text) {
  std::vector<sched::TenantStatus> rows;
  const Json a = Json::parse(text);
  for (const Json& o : a.as_array("fairshare snapshot")) {
    sched::TenantStatus t;
    t.name = o.at("name").as_string("fairshare.name");
    t.share = o.at("share").as_number("fairshare.share");
    t.usage = o.at("usage").as_number("fairshare.usage");
    t.charged_units = static_cast<std::uint64_t>(
        o.at("charged_units").as_integer("fairshare.charged_units"));
    rows.push_back(std::move(t));
  }
  return rows;
}

}  // namespace

Controller::Controller(ControllerConfig cfg, std::vector<WorkUnit> units)
    : Controller(std::move(cfg), wrap_units(std::move(units))) {}

Controller::Controller(ControllerConfig cfg, std::vector<JobArray> jobs)
    : cfg_(std::move(cfg)),
      policy_(sched::make_policy(cfg_.sched)),
      merge_(0),
      listener_(cfg_.max_frame_bytes,
                std::bind_front(&Controller::on_frame, this)) {
  TILO_REQUIRE(cfg_.credit >= 1, "fleet: credit window must be >= 1, got ",
               cfg_.credit);
  TILO_REQUIRE(cfg_.heartbeat_ms >= 1, "fleet: heartbeat_ms must be >= 1");
  TILO_REQUIRE(cfg_.miss_threshold >= 1, "fleet: miss_threshold must be >= 1");
  std::size_t total = 0;
  for (const JobArray& j : jobs) total += j.units.size();
  TILO_REQUIRE(total > 0, "fleet: nothing to dispatch (0 units)");
  const i64 now = now_ns();
  restore_accounting(now);
  for (JobArray& j : jobs) submit_locked(std::move(j), now);
  if (cfg_.sink)
    cfg_.sink->counter("fleet.units", static_cast<double>(units_.size()));
}

Controller::~Controller() { stop(); }

void Controller::restore_accounting(i64 now) {
  if (cfg_.accounting_dir.empty()) return;
  acct_log_ = store::SegmentLog::open(cfg_.accounting_dir);
  // Replay keeps only the newest snapshot (append order = time order);
  // a torn tail simply falls back to the previous intact snapshot.
  std::string latest;
  acct_log_->replay([&latest](std::string_view key, std::string_view value) {
    if (key == kAcctKey) latest.assign(value);
  });
  if (latest.empty()) return;
  try {
    policy_->restore_fairshare(acct_rows_from_json(latest), now);
  } catch (const util::Error&) {
    // A malformed snapshot costs the restored standing, never the run.
  }
}

void Controller::snapshot_accounting() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!acct_log_) return;
  const std::vector<sched::TenantStatus> rows =
      policy_->tenant_statuses(now_ns());
  if (rows.empty()) return;
  const std::string snapshot = acct_rows_to_json(rows);
  acct_log_->append(kAcctKey, snapshot);
  // One live record; everything older is history.  Compacting here keeps
  // restart replay O(1) snapshots no matter how many runs came before.
  acct_log_->compact({{kAcctKey, snapshot}});
}

i64 Controller::submit(JobArray job) {
  std::lock_guard<std::mutex> lock(mu_);
  return submit_locked(std::move(job), now_ns());
}

i64 Controller::submit_locked(JobArray job, i64 now) {
  const std::size_t base = units_.size();
  const std::size_t n = job.units.size();
  TILO_REQUIRE(n > 0, "fleet: job array \"", job.spec.name, "\" has no units");
  TILO_REQUIRE(
      job.unit_costs_ns.empty() || job.unit_costs_ns.size() == n,
      "fleet: job array \"", job.spec.name, "\" has ", job.unit_costs_ns.size(),
      " cost estimates for ", n, " units");
  units_.resize(base + n);
  for (WorkUnit& u : job.units) {
    TILO_REQUIRE(u.index >= base && u.index < base + n, "fleet: unit index ",
                 u.index, " out of range");
    TILO_REQUIRE(units_[u.index].payload.empty(), "fleet: duplicate unit ",
                 u.index);
    units_[u.index].payload = std::move(u.payload);
  }
  for (std::size_t i = base; i < base + n; ++i)
    TILO_REQUIRE(!units_[i].payload.empty(), "fleet: missing unit ", i);
  merge_.extend(n);

  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), base);
  const i64 id =
      policy_->submit(job.spec, indices, job.unit_costs_ns, now);
  if (cfg_.sink) cfg_.sink->counter("sched.jobs", 1);
  // A high-priority arrival into a full partition evicts the lowest
  // -priority running job's leases — through the same exactly-once
  // requeue machinery worker eviction uses.
  const std::vector<std::size_t> victims =
      policy_->preemption_victims(id, now);
  if (!victims.empty()) preempt_locked(victims, now);
  return id;
}

/// Forcibly requeues leased units so a higher-priority job can run: strip
/// every lease, queue a drop notice for each holder's next unit poll, and
/// hand the unit back to the policy front-of-queue.
void Controller::preempt_locked(const std::vector<std::size_t>& victims,
                                i64 now) {
  for (auto it = victims.rbegin(); it != victims.rend(); ++it) {
    Unit& u = units_[*it];
    if (u.state != UnitState::kLeased) continue;
    for (int worker : u.owners) {
      if (Member* m = membership_.find(worker))
        m->leased.erase(std::remove(m->leased.begin(), m->leased.end(), *it),
                        m->leased.end());
      dropped_[worker].push_back(*it);
    }
    u.owners.clear();
    u.state = UnitState::kPending;
    policy_->requeue(*it, now, /*preempted=*/true);
    ++requeued_;
    ++preempted_;
    if (cfg_.sink) {
      cfg_.sink->counter("sched.preempted", 1);
      cfg_.sink->counter("fleet.requeued", 1);
      cfg_.sink->counter("fleet.queue_depth", 1);
    }
  }
}

void Controller::start() {
  TILO_REQUIRE(!started_.load(), "fleet::Controller::start called twice");
  listener_.start(cfg_.address);
  tick_thread_ = std::thread([this] { tick_loop(); });
  started_.store(true, std::memory_order_release);
}

void Controller::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return merge_.complete(); });
}

bool Controller::wait_for_ms(i64 timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_done_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [this] { return merge_.complete(); });
}

void Controller::stop() {
  if (!started_.load() || stopping_.exchange(true)) {
    // Never started (in-process fast-lane use): the usage still deserves
    // to survive, so snapshot on the first stop() even without threads.
    if (!started_.load() && !stopping_.exchange(true)) snapshot_accounting();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    cv_tick_.notify_all();
  }
  listener_.stop_accepting();
  if (tick_thread_.joinable()) tick_thread_.join();
  listener_.close();
  // Every charge has landed (workers are gone); persist the final usage.
  snapshot_accounting();
}

/// Every fleet op is answered inline on the reader thread: the
/// bookkeeping is microseconds, unlike a compile, so there is no worker
/// pool and a failed write simply ends the connection.
bool Controller::on_frame(const std::shared_ptr<svc::Listener::Conn>& conn,
                          svc::FrameStatus status, const std::string& payload) {
  svc::Response resp;
  if (status == svc::FrameStatus::kOversized) {
    resp = svc::oversized_frame_response(cfg_.max_frame_bytes);
  } else {
    try {
      resp = handle(svc::request_from_json(Json::parse(payload)));
    } catch (const util::Error& e) {
      resp.status = svc::RespStatus::kBadRequest;
      resp.error = e.what();
    }
  }
  return conn->send(svc::response_to_wire(resp));
}

/// The eviction clock: scan every half heartbeat interval, evict members
/// silent for miss_threshold intervals, and requeue what they held.
void Controller::tick_loop() {
  const i64 max_silence_ns = cfg_.heartbeat_ms * 1'000'000 *
                             static_cast<i64>(cfg_.miss_threshold);
  const auto period =
      std::chrono::milliseconds(std::max<i64>(1, cfg_.heartbeat_ms / 2));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_tick_.wait_for(lock, period,
                      [this] { return stopping_.load(std::memory_order_acquire); });
    if (stopping_.load(std::memory_order_acquire)) return;
    std::vector<Member> gone = membership_.evict_stale(now_ns(), max_silence_ns);
    for (const Member& m : gone) {
      ++evicted_;
      if (cfg_.sink) cfg_.sink->counter("fleet.evicted", 1);
      requeue_locked(m.leased, m.id);
    }
  }
}

svc::Response Controller::call_local(const svc::Request& req) {
  try {
    return handle(req);
  } catch (const util::Error& e) {
    svc::Response resp;
    resp.id = req.id;
    resp.status = svc::RespStatus::kBadRequest;
    resp.error = e.what();
    return resp;
  }
}

svc::Response Controller::handle(const svc::Request& req) {
  svc::Response resp;
  resp.id = req.id;
  switch (req.op) {
    case svc::Op::kPing:
      resp.result = "{\"pong\":true,\"role\":\"fleet-controller\"}";
      return resp;
    case svc::Op::kStats: {
      const FleetStats s = stats();
      Json r = Json::object();
      r.set("units", Json::integer(static_cast<i64>(s.units)));
      r.set("completed", Json::integer(static_cast<i64>(s.completed)));
      r.set("pending", Json::integer(static_cast<i64>(s.pending)));
      r.set("in_flight", Json::integer(static_cast<i64>(s.in_flight)));
      r.set("workers", Json::integer(static_cast<i64>(s.workers)));
      r.set("registered", Json::integer(static_cast<i64>(s.registered)));
      r.set("evicted", Json::integer(static_cast<i64>(s.evicted)));
      r.set("requeued", Json::integer(static_cast<i64>(s.requeued)));
      r.set("speculated", Json::integer(static_cast<i64>(s.speculated)));
      r.set("duplicates", Json::integer(static_cast<i64>(s.duplicates)));
      r.set("jobs", Json::integer(static_cast<i64>(s.jobs)));
      r.set("preempted", Json::integer(static_cast<i64>(s.preempted)));
      r.set("backfilled", Json::integer(static_cast<i64>(s.backfilled)));
      resp.result = r.dump();
      return resp;
    }
    case svc::Op::kQueue:
      resp.result = handle_queue();
      return resp;
    case svc::Op::kAcct:
      resp.result = handle_acct();
      return resp;
    case svc::Op::kRegister:
      resp.result = handle_register(req.fleet);
      return resp;
    case svc::Op::kHeartbeat:
      resp.result = handle_heartbeat(req.fleet);
      return resp;
    case svc::Op::kDeregister:
      resp.result = handle_deregister(req.fleet);
      return resp;
    case svc::Op::kUnit:
      resp.result = handle_unit(req.fleet);
      return resp;
    case svc::Op::kCompile:
    case svc::Op::kShutdown:
      resp.status = svc::RespStatus::kBadRequest;
      resp.error = util::concat("op \"", svc::op_name(req.op),
                                "\" is not served by a fleet controller");
      return resp;
  }
  resp.status = svc::RespStatus::kBadRequest;
  resp.error = "unknown op";
  return resp;
}

std::string Controller::handle_register(const Json& body) {
  TILO_REQUIRE(body.is_object(), "fleet register: missing \"fleet\" body");
  std::string name = "worker";
  if (const Json* n = body.find("name")) name = n->as_string("fleet.name");
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = membership_.add(std::move(name), now_ns());
    ++registered_;
  }
  if (cfg_.sink) cfg_.sink->counter("fleet.registered", 1);
  Json r = Json::object();
  r.set("worker_id", Json::integer(id));
  r.set("credit", Json::integer(cfg_.credit));
  r.set("heartbeat_ms", Json::integer(cfg_.heartbeat_ms));
  r.set("fleet_version", Json::integer(kFleetVersion));
  return r.dump();
}

std::string Controller::handle_heartbeat(const Json& body) {
  TILO_REQUIRE(body.is_object(), "fleet heartbeat: missing \"fleet\" body");
  const int id =
      static_cast<int>(body.at("worker_id").as_integer("fleet.worker_id"));
  bool known = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    known = membership_.touch(id, now_ns());
    ++heartbeats_;
  }
  return known ? "{\"known\":true}" : "{\"known\":false}";
}

std::string Controller::handle_deregister(const Json& body) {
  TILO_REQUIRE(body.is_object(), "fleet deregister: missing \"fleet\" body");
  const int id =
      static_cast<int>(body.at("worker_id").as_integer("fleet.worker_id"));
  bool known = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Member gone;
    known = membership_.remove(id, &gone);
    if (known) {
      ++deregistered_;
      requeue_locked(gone.leased, gone.id);
    }
  }
  return known ? "{\"known\":true}" : "{\"known\":false}";
}

std::string Controller::handle_unit(const Json& body) {
  TILO_REQUIRE(body.is_object(), "fleet unit: missing \"fleet\" body");
  const int id =
      static_cast<int>(body.at("worker_id").as_integer("fleet.worker_id"));
  i64 want = cfg_.credit;
  if (const Json* w = body.find("want")) want = w->as_integer("fleet.want");

  std::vector<std::size_t> leased;
  bool known = false;
  bool done = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const i64 now = now_ns();
    ++unit_polls_;
    known = membership_.touch(id, now);
    // Completed results are accepted even from unknown (evicted) workers:
    // the unit state machine, not membership, enforces exactly-once.
    if (const Json* comp = body.find("completed")) {
      for (const Json& entry : comp->as_array("fleet.completed")) {
        const std::size_t index = static_cast<std::size_t>(
            entry.at("unit").as_integer("fleet.completed.unit"));
        complete_locked(index, entry.at("result").dump(), id, now);
      }
    }
    done = merge_.complete();
    if (known && !done)
      if (Member* m = membership_.find(id)) leased = lease_locked(*m, want, now);
  }
  if (cfg_.sink) cfg_.sink->counter("fleet.unit_polls", 1);

  // Hand-assembled so unit payloads are spliced verbatim: every worker
  // sees the exact canonical bytes the unit plan produced.
  std::string out = "{\"known\":";
  out += known ? "true" : "false";
  out += ",\"done\":";
  out += done ? "true" : "false";
  out += ",\"units\":[";
  bool first = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t index : leased) {
    if (!first) out += ',';
    first = false;
    out += "{\"unit\":";
    out += std::to_string(index);
    out += ",\"payload\":";
    out += units_[index].payload;
    out += '}';
  }
  out += "]";
  // Preemption drop notices ride the poll the victims' holder makes next.
  // The key is emitted only when non-empty, so pre-scheduler response
  // bytes are unchanged whenever nothing was preempted (always, under
  // fifo).
  if (auto it = dropped_.find(id); it != dropped_.end()) {
    if (!it->second.empty()) {
      std::sort(it->second.begin(), it->second.end());
      out += ",\"drop\":[";
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        if (i) out += ',';
        out += std::to_string(it->second[i]);
      }
      out += "]";
    }
    dropped_.erase(it);
  }
  out += "}";
  return out;
}

std::string Controller::handle_queue() {
  std::lock_guard<std::mutex> lock(mu_);
  const i64 now = now_ns();
  Json r = Json::object();
  r.set("policy", Json::string(std::string(policy_->name())));
  Json jobs = Json::array();
  for (const sched::JobStatus& j : policy_->job_statuses(now)) {
    Json o = Json::object();
    o.set("job", Json::integer(j.id));
    o.set("name", Json::string(j.name));
    o.set("tenant", Json::string(j.tenant));
    o.set("partition", Json::string(j.partition));
    o.set("state", Json::string(std::string(sched::job_state_name(j.state))));
    o.set("priority", Json::integer(j.priority));
    o.set("effective_priority", Json::integer(j.effective_priority));
    o.set("age_ms", Json::integer(j.age_ns / 1'000'000));
    o.set("units", Json::integer(static_cast<i64>(j.units)));
    o.set("queued", Json::integer(static_cast<i64>(j.queued)));
    o.set("in_flight", Json::integer(static_cast<i64>(j.in_flight)));
    o.set("done", Json::integer(static_cast<i64>(j.done)));
    o.set("preempted", Json::integer(j.preempted));
    jobs.push(std::move(o));
  }
  r.set("jobs", std::move(jobs));
  Json parts = Json::array();
  for (const sched::PartitionStatus& p : policy_->partition_statuses()) {
    Json o = Json::object();
    o.set("name", Json::string(p.name));
    o.set("max_in_flight", Json::integer(p.max_in_flight));
    o.set("max_units_per_job", Json::integer(p.max_units_per_job));
    o.set("queued", Json::integer(static_cast<i64>(p.queued)));
    o.set("in_flight", Json::integer(static_cast<i64>(p.in_flight)));
    parts.push(std::move(o));
  }
  r.set("partitions", std::move(parts));
  return r.dump();
}

std::string Controller::handle_acct() {
  std::lock_guard<std::mutex> lock(mu_);
  const i64 now = now_ns();
  Json r = Json::object();
  r.set("policy", Json::string(std::string(policy_->name())));
  Json tenants = Json::array();
  for (const sched::TenantStatus& t : policy_->tenant_statuses(now)) {
    Json o = Json::object();
    o.set("name", Json::string(t.name));
    o.set("share", Json::number(t.share));
    o.set("usage", Json::number(t.usage));
    o.set("factor", Json::number(t.factor));
    o.set("charged_units", Json::integer(t.charged_units));
    tenants.push(std::move(o));
  }
  r.set("tenants", std::move(tenants));
  r.set("preempted", Json::integer(static_cast<i64>(preempted_)));
  r.set("backfilled", Json::integer(static_cast<i64>(policy_->backfilled())));
  return r.dump();
}

/// The oldest singly-leased unit this worker does not already hold —
/// the speculation candidate.
std::size_t Controller::straggler_locked(int worker, i64 now) {
  const i64 min_age_ns = cfg_.speculate_after_ms * 1'000'000;
  std::size_t best = kNone;
  i64 best_lease = std::numeric_limits<i64>::max();
  for (std::size_t i = 0; i < units_.size(); ++i) {
    const Unit& u = units_[i];
    if (u.state != UnitState::kLeased || u.lease_count >= 2) continue;
    if (now - u.first_lease_ns < min_age_ns) continue;
    if (std::find(u.owners.begin(), u.owners.end(), worker) != u.owners.end())
      continue;
    if (u.first_lease_ns < best_lease) {
      best_lease = u.first_lease_ns;
      best = i;
    }
  }
  return best;
}

std::vector<std::size_t> Controller::lease_locked(Member& m, i64 want,
                                                  i64 now) {
  std::vector<std::size_t> out;
  const i64 window = std::min<i64>(want, cfg_.credit);
  while (static_cast<i64>(m.leased.size()) < window) {
    const std::uint64_t backfills = policy_->backfilled();
    std::size_t index = policy_->pick(now);
    bool speculative = false;
    if (index == kNone && cfg_.speculate) {
      index = straggler_locked(m.id, now);
      speculative = index != kNone;
    }
    if (index == kNone) break;
    if (!speculative && policy_->backfilled() != backfills && cfg_.sink)
      cfg_.sink->counter("sched.backfilled", 1);
    // A lease supersedes any not-yet-delivered drop notice for the same
    // unit: never tell a worker to drop work this response hands it.
    if (auto d = dropped_.find(m.id); d != dropped_.end())
      d->second.erase(std::remove(d->second.begin(), d->second.end(), index),
                      d->second.end());
    Unit& u = units_[index];
    u.state = UnitState::kLeased;
    if (u.first_lease_ns == 0) u.first_lease_ns = now;
    ++u.lease_count;
    u.owners.push_back(m.id);
    m.leased.push_back(index);
    out.push_back(index);
    if (speculative) {
      ++speculated_;
      if (cfg_.sink) cfg_.sink->counter("fleet.speculated", 1);
    } else if (cfg_.sink) {
      cfg_.sink->counter("fleet.queue_depth", -1);
    }
  }
  return out;
}

void Controller::complete_locked(std::size_t index, std::string payload,
                                 int worker, i64 now) {
  TILO_REQUIRE(index < units_.size(), "fleet: completed unit ", index,
               " out of range");
  Unit& u = units_[index];
  // Drop the submitting worker's lease whatever happens next.
  if (Member* m = membership_.find(worker))
    m->leased.erase(std::remove(m->leased.begin(), m->leased.end(), index),
                    m->leased.end());
  u.owners.erase(std::remove(u.owners.begin(), u.owners.end(), worker),
                 u.owners.end());
  if (u.state == UnitState::kDone) {
    ++duplicates_;
    if (cfg_.sink) cfg_.sink->counter("fleet.duplicates", 1);
    return;
  }
  // A pending unit can complete too: a zombie's result arriving after its
  // lease was requeued but before anyone re-leased it still wins.
  if (u.state == UnitState::kPending && cfg_.sink)
    cfg_.sink->counter("fleet.queue_depth", -1);
  u.state = UnitState::kDone;
  policy_->complete(index, now);
  const bool won = merge_.add(index, std::move(payload));
  TILO_ASSERT(won, "fleet: unit state/merge disagreement at ", index);
  if (Member* m = membership_.find(worker)) ++m->completed;
  latency_.add(now - u.first_lease_ns);
  if (cfg_.sink) {
    cfg_.sink->host_span(util::concat("fleet.unit [u", index, "]"),
                         u.first_lease_ns, now, worker);
    cfg_.sink->counter("fleet.completed", 1);
  }
  // Remaining speculative copies stay leased at their workers; their late
  // results will land in the kDone branch above.
  u.owners.clear();
  if (merge_.complete()) cv_done_.notify_all();
}

/// Returns lost leases to the front of the pending queue in index order —
/// exactly once: a unit already Done (a result landed before the owner
/// died) or still co-leased by a live speculative holder stays put.
void Controller::requeue_locked(const std::vector<std::size_t>& leases,
                                int worker) {
  const i64 now = now_ns();
  dropped_.erase(worker);
  std::vector<std::size_t> lost(leases);
  std::sort(lost.begin(), lost.end());
  for (auto it = lost.rbegin(); it != lost.rend(); ++it) {
    Unit& u = units_[*it];
    u.owners.erase(std::remove(u.owners.begin(), u.owners.end(), worker),
                   u.owners.end());
    if (u.state != UnitState::kLeased || !u.owners.empty()) continue;
    u.state = UnitState::kPending;
    policy_->requeue(*it, now);
    ++requeued_;
    if (cfg_.sink) {
      cfg_.sink->counter("fleet.requeued", 1);
      cfg_.sink->counter("fleet.queue_depth", 1);
    }
  }
}

FleetStats Controller::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetStats s;
  s.units = units_.size();
  s.completed = merge_.completed();
  s.workers = membership_.size();
  for (const Unit& u : units_) {
    if (u.state == UnitState::kPending) ++s.pending;
    if (u.state == UnitState::kLeased) s.in_flight += u.owners.size();
  }
  s.registered = registered_;
  s.deregistered = deregistered_;
  s.evicted = evicted_;
  s.requeued = requeued_;
  s.speculated = speculated_;
  s.duplicates = duplicates_;
  s.heartbeats = heartbeats_;
  s.unit_polls = unit_polls_;
  s.jobs = policy_->jobs();
  s.preempted = preempted_;
  s.backfilled = policy_->backfilled();
  return s;
}

void Controller::write_report(std::ostream& os) const {
  const FleetStats s = stats();
  os << "fleet report (" << address().str() << ")\n"
     << "  units       " << s.completed << " of " << s.units << " completed ("
     << s.pending << " pending, " << s.in_flight << " in flight)\n"
     << "  workers     " << s.workers << " registered now, " << s.registered
     << " ever, " << s.evicted << " evicted, " << s.deregistered
     << " deregistered\n"
     << "  resilience  " << s.requeued << " requeued, " << s.speculated
     << " speculative lease(s), " << s.duplicates
     << " duplicate result(s) dropped\n"
     << "  scheduler   " << cfg_.sched.policy << " policy, " << s.jobs
     << " job(s), " << s.preempted << " preempted lease(s), " << s.backfilled
     << " backfilled\n"
     << "  traffic     " << s.unit_polls << " unit poll(s), " << s.heartbeats
     << " heartbeat(s)\n"
     << "  latency     unit p50 ~"
     << svc::histogram_percentile_ns(latency_, 0.50) / 1e6 << " ms, p99 ~"
     << svc::histogram_percentile_ns(latency_, 0.99) / 1e6
     << " ms (log-bucket upper edges)\n";
}

}  // namespace tilo::fleet
