// svc-hot and svc-cold: the compile service (svc::Server, 2 workers, with
// its plan store) over a Unix socket in the run's scratch directory.
//
// svc-hot is the warm read path: an open loop of Poisson arrivals from
// one sender thread, pipelined over 2 connections (one receiver thread
// each, matching responses by id), on a Zipf draw over 64 small nests
// that set-up compiled into the store.  Every request is a store hit.
//
// svc-cold is the write path: a closed loop of 2 synchronous svc::Client
// connections, each request a distinct simulated nest on an empty store,
// so every request compiles, simulates and appends to the segment log.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <thread>
#include <vector>

#include "gen.hpp"
#include "tilo/core/parallel.hpp"
#include "tilo/core/plancache.hpp"
#include "tilo/pipeline/compiler.hpp"
#include "tilo/pipeline/stages.hpp"
#include "tilo/store/plan_store.hpp"
#include "tilo/store/segment_log.hpp"
#include "tilo/svc/client.hpp"
#include "tilo/svc/compile.hpp"
#include "tilo/svc/protocol.hpp"
#include "tilo/svc/server.hpp"
#include "tilo/svc/socket.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace svc = tilo::svc;
namespace fs = std::filesystem;
using i64 = std::int64_t;

constexpr int kWorkers = 2;
constexpr int kConnections = 2;

/// svc-hot's fixed offered rate for the end-to-end latencies.
constexpr double kHotRate = 4000;
/// The ladder max_rate_rps climbs (requests per second).
constexpr double kHotLadder[] = {4000, 8000, 12000, 16000, 24000, 32000};

/// A started server on a fresh scratch directory.
struct Service {
  std::string dir;
  std::unique_ptr<svc::Server> server;
  std::string address;

  Service(const std::string& work_dir, const std::string& tag) {
    dir = work_dir + "/" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    svc::ServerConfig sc;
    sc.address = "unix:" + dir + "/svc.sock";
    sc.workers = kWorkers;
    sc.store_dir = dir + "/store";
    address = sc.address;
    server = std::make_unique<svc::Server>(sc);
    server->start();
  }
  ~Service() {
    server->drain();
    server.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
};

svc::Fd connect(const std::string& address) {
  return svc::connect_to(svc::Address::parse(address), 2000);
}

svc::Request compile_request(const svc::CompileParams& p, i64 id) {
  svc::Request r;
  r.op = svc::Op::kCompile;
  r.id = id;
  r.compile = p;
  return r;
}

/// requests == completed + shed + timed_out + failed + rejected +
/// quota_denied, on the difference of two snapshots.
svc::ServerStats delta(const svc::ServerStats& a, const svc::ServerStats& b) {
  svc::ServerStats d = b;
  d.connections -= a.connections;
  d.requests -= a.requests;
  d.completed -= a.completed;
  d.shed -= a.shed;
  d.timed_out -= a.timed_out;
  d.failed -= a.failed;
  d.rejected -= a.rejected;
  d.quota_denied -= a.quota_denied;
  d.batched -= a.batched;
  d.compiles -= a.compiles;
  d.cache_hits -= a.cache_hits;
  d.cache_misses -= a.cache_misses;
  d.store_hits -= a.store_hits;
  d.store_misses -= a.store_misses;
  d.store_puts -= a.store_puts;
  return d;
}

void reconcile(Result& out, const svc::ServerStats& d, std::uint64_t sent,
               std::uint64_t answered, const std::string& what) {
  const std::uint64_t outcomes = d.completed + d.shed + d.timed_out +
                                 d.failed + d.rejected + d.quota_denied;
  out.check(d.requests == outcomes,
            what + ": server requests " + std::to_string(d.requests) +
                " != outcome sum " + std::to_string(outcomes));
  out.check(d.requests == sent && sent == answered,
            what + ": server requests " + std::to_string(d.requests) +
                ", generator sent " + std::to_string(sent) + ", answered " +
                std::to_string(answered));
}

// ------------------------------------------------------------- svc-hot

struct HotSetup {
  std::unique_ptr<Service> service;
  std::vector<svc::CompileParams> keys;
  std::vector<std::string> results;  ///< set-up result bytes per key
};

/// Starts a server on an empty store and compiles every hot key into it
/// through one client, keeping the result bytes the run must reproduce.
HotSetup hot_setup(const RunConfig& cfg, Result& out, const std::string& tag) {
  HotSetup h;
  h.service = std::make_unique<Service>(cfg.work_dir, tag);
  h.keys = hot_workloads(cfg.seed);
  svc::Client client = svc::Client::connect(h.service->address);
  for (const svc::CompileParams& p : h.keys) {
    const svc::Response r = client.compile(p);
    out.check(r.status == svc::RespStatus::kOk,
              "svc-hot set-up compile of " + p.name + " failed: " + r.error);
    h.results.push_back(r.result);
  }
  const svc::ServerStats s = h.service->server->stats();
  out.check(s.compiles == h.keys.size() && s.store_puts == h.keys.size(),
            "svc-hot set-up did not compile every key into the store");
  return h;
}

struct OpenLoop {
  LatencySummary lat;  ///< ms from each request's due time
  std::uint64_t sent = 0, answered = 0, ok = 0, mismatched = 0;
  std::uint64_t outstanding_at_end = 0;  ///< backlog when sending stopped
  Lateness late;
  double wall_s = 0;
};

/// One open-loop phase: `seconds` of Poisson arrivals at `rate`, keys by
/// Zipf, sent by one thread round-robin over the connections; one
/// receiver per connection matches responses to requests by id.
OpenLoop open_loop(const HotSetup& h, std::vector<svc::Fd>& conns,
                   double rate, double seconds, std::uint64_t seed) {
  // The whole schedule is drawn before the phase starts, so the threads
  // share only immutable inputs plus per-index result slots.
  PoissonSchedule arrivals(rate, stream_seed(seed, 10));
  tilo::util::Rng key_rng(stream_seed(seed, 11));
  const Zipf zipf(kHotKeys, 1.0);
  std::vector<i64> due;
  std::vector<int> key;
  for (i64 t = arrivals.next(); t < i64(seconds * 1e9); t = arrivals.next()) {
    due.push_back(t);
    key.push_back(zipf.draw(key_rng));
  }
  const std::size_t n = due.size();
  std::vector<i64> recv(n, -1);
  std::vector<char> status_ok(n, 0), bytes_ok(n, 0);
  std::atomic<std::uint64_t> answered{0};

  OpenLoop out;
  const i64 start = now_ns() + 2'000'000;  // let the receivers park first
  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    receivers.emplace_back([&, c] {
      std::string payload;
      while (svc::read_frame(conns[c].get(), payload) ==
             svc::FrameStatus::kFrame) {
        const i64 t = now_ns();
        svc::Response r;
        try {
          r = svc::response_from_wire(payload);
        } catch (const std::exception&) {
          continue;  // unmatched: counted as unanswered
        }
        if (!r.id || *r.id < 0 || std::size_t(*r.id) >= n) continue;
        const std::size_t i = std::size_t(*r.id);
        recv[i] = t;
        status_ok[i] = r.status == svc::RespStatus::kOk;
        bytes_ok[i] = r.result == h.results[std::size_t(key[i])];
        answered.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    const i64 at = start + due[i];
    // Spin rather than sleep: a sleeping sender wakes up to milliseconds
    // late on a virtualized host, and that lateness would count as
    // latency.  Yield while spinning, or a server thread queued on the
    // sender's CPU waits a whole scheduler slice (milliseconds of tail).
    while (now_ns() < at) std::this_thread::yield();
    out.late.add(at, now_ns());
    const std::string wire =
        svc::request_to_json(
            compile_request(h.keys[std::size_t(key[i])], i64(i)))
            .dump();
    svc::write_frame(conns[i % conns.size()].get(), wire);
  }
  const i64 sent_end = now_ns();
  out.outstanding_at_end = n - answered.load(std::memory_order_acquire);
  while (answered.load(std::memory_order_acquire) < n &&
         now_ns() - sent_end < 5'000'000'000)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Unblock the receivers; the connections are not reused after this.
  for (svc::Fd& c : conns) ::shutdown(c.get(), SHUT_RDWR);
  for (std::thread& t : receivers) t.join();

  std::vector<double> lat;
  i64 last = start;
  for (std::size_t i = 0; i < n; ++i) {
    if (recv[i] < 0) continue;
    ++out.answered;
    lat.push_back(double(recv[i] - (start + due[i])) / 1e6);
    last = std::max(last, recv[i]);
    if (status_ok[i]) ++out.ok;
    if (!bytes_ok[i]) ++out.mismatched;
  }
  out.sent = n;
  out.lat = summarize(std::move(lat));
  out.wall_s = double(last - start) / 1e9;
  return out;
}

/// svc-hot's gates and counter reconciliation over open-loop phases whose
/// server counters differ by `d`.
void check_hot(Result& out, const svc::ServerStats& d, std::uint64_t sent,
               std::uint64_t answered, std::uint64_t ok,
               std::uint64_t mismatched) {
  out.check(answered == sent, std::to_string(sent - answered) +
                                  " svc-hot request(s) unanswered");
  out.check(ok == answered, std::to_string(answered - ok) +
                                " svc-hot response(s) not ok");
  out.check(mismatched == 0, std::to_string(mismatched) +
                                 " svc-hot response(s) differ from their "
                                 "set-up result bytes");
  reconcile(out, d, sent, answered, "svc-hot");
  out.check(d.compiles == 0, "svc-hot compiled " +
                                 std::to_string(d.compiles) + " time(s)");
  // Single-flight followers join the leader's store read instead of
  // reading the store themselves, so every request is one or the other.
  out.check(d.store_hits + d.batched == d.requests && d.store_misses == 0,
            "svc-hot store hits " + std::to_string(d.store_hits) +
                " + batched " + std::to_string(d.batched) +
                " != requests " + std::to_string(d.requests));
}

std::vector<svc::Fd> open_connections(const std::string& address) {
  std::vector<svc::Fd> conns;
  for (int c = 0; c < kConnections; ++c) conns.push_back(connect(address));
  return conns;
}

}  // namespace

void run_svc_hot(const RunConfig& cfg, Result& out) {
  std::vector<double> setups;
  HotSetup h;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const i64 t0 = now_ns();
    h = HotSetup{};  // the previous repetition's server drains here
    h = hot_setup(cfg, out, "hot");
    setups.push_back(double(now_ns() - t0) / 1e9);
  }
  out.set("setup_s", median(setups), "s");

  const svc::ServerStats before = h.service->server->stats();
  // Main phase: the fixed offered rate, 60% of the budget.
  std::vector<svc::Fd> conns = open_connections(h.service->address);
  const OpenLoop main =
      open_loop(h, conns, kHotRate, cfg.seconds * 0.6, cfg.seed);
  std::uint64_t sent = main.sent, answered = main.answered;
  std::uint64_t ok = main.ok, mismatched = main.mismatched;

  // Ladder: climb until a rung misses the limit or its backlog grows.
  double max_rate = 0;
  const double rung_s =
      cfg.seconds * 0.4 / double(std::size(kHotLadder));
  int rung_index = 0;
  for (const double rate : kHotLadder) {
    std::vector<svc::Fd> rc = open_connections(h.service->address);
    const OpenLoop r =
        open_loop(h, rc, rate, rung_s, cfg.seed + 1000 * ++rung_index);
    sent += r.sent;
    answered += r.answered;
    ok += r.ok;
    mismatched += r.mismatched;
    const bool pass = r.answered == r.sent && r.ok == r.sent &&
                      r.lat.tail < kSvcHotLimitMs &&
                      double(r.outstanding_at_end) <=
                          1.0 + rate * kSvcHotLimitMs / 1e3;
    std::ostringstream line;
    line << "  rung " << rate << " rps: p50 " << r.lat.p50 << " ms, p"
         << 100 * r.lat.tail_q << " " << r.lat.tail << " ms (n=" << r.lat.n
         << "), backlog at end " << r.outstanding_at_end << ", sender late "
         << r.late.mean_us() << " us mean -> " << (pass ? "pass" : "miss");
    note(line.str());
    if (!pass) break;
    max_rate = rate;
  }
  const svc::ServerStats d = delta(before, h.service->server->stats());

  out.attempted = sent;
  out.failed = sent - ok + mismatched;
  out.set("ops_per_s", double(main.ok) / main.wall_s, "1/s");
  out.set_latency(main.lat);
  out.set("max_rate_rps", max_rate, "1/s");
  out.set("gen.late_us", main.late.mean_us(), "us");
  out.set("offered_rps", kHotRate, "1/s");
  out.set("svc.max_queue_depth", double(d.max_queue_depth), "count");

  check_hot(out, d, sent, answered, ok, mismatched);
  std::ostringstream line;
  line << "svc-hot server: requests " << d.requests << ", store hits "
       << d.store_hits << ", batched " << d.batched << ", max queue depth "
       << d.max_queue_depth << " (not gated), sender late "
       << main.late.late_sends << "/" << main.late.sends << " sends > 100 us";
  note(line.str());
}

// ------------------------------------------------------------ svc-cold

namespace {

/// svc-cold set-up's warm-up compiles, and where their indices start.
constexpr std::uint64_t kColdWarmup = 16;
constexpr std::uint64_t kWarmupIndex = std::uint64_t{1} << 62;

struct ColdOp {
  std::uint64_t index = 0;
  svc::Response resp;
  double ms = 0;
};

/// The closed loop: each client sends its next distinct request when the
/// previous one is answered, until `seconds` have passed.  A client whose
/// connection fails records the request as an error and stops.
std::vector<ColdOp> cold_loop(const std::string& address, std::uint64_t seed,
                              double seconds, double* wall_s) {
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<ColdOp>> per(kConnections);
  const i64 start = now_ns();
  const auto budget = i64(seconds * 1e9);
  std::vector<std::thread> clients;
  std::atomic<i64> last{start};
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      std::optional<svc::Client> client;
      while (now_ns() - start < budget) {
        const std::uint64_t idx = next.fetch_add(1);
        const svc::CompileParams p = cold_workload(seed, idx);
        const i64 t0 = now_ns();
        svc::Response r;
        bool broken = false;
        try {
          if (!client) client.emplace(svc::Client::connect(address));
          r = client->compile(p);
        } catch (const std::exception& e) {
          r.status = svc::RespStatus::kError;
          r.error = e.what();
          broken = true;
        }
        const i64 t1 = now_ns();
        per[std::size_t(c)].push_back(
            ColdOp{idx, std::move(r), double(t1 - t0) / 1e6});
        i64 seen = last.load();
        while (t1 > seen && !last.compare_exchange_weak(seen, t1)) {
        }
        if (broken) break;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  *wall_s = double(last.load() - start) / 1e9;
  std::vector<ColdOp> all;
  for (auto& v : per)
    for (ColdOp& op : v) all.push_back(std::move(op));
  return all;
}

}  // namespace

void run_svc_cold(const RunConfig& cfg, Result& out) {
  std::vector<double> setups;
  std::unique_ptr<Service> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const i64 t0 = now_ns();
    service.reset();
    service = std::make_unique<Service>(cfg.work_dir, "cold");
    for (int c = 0; c < kConnections; ++c)
      out.check(svc::Client::connect(service->address).ping().status ==
                    svc::RespStatus::kOk,
                "svc-cold set-up ping failed");
    // Warm the compile path in-process (code, allocator, lazily built
    // statics) on requests outside the timed index range, keeping the
    // server's store empty.
    for (std::uint64_t i = 0; i < kColdWarmup; ++i)
      (void)svc::execute_compile(tilo::pipeline::CompileOptions{},
                                 cold_workload(cfg.seed, kWarmupIndex + i));
    setups.push_back(double(now_ns() - t0) / 1e9);
  }
  out.set("setup_s", median(setups), "s");

  const svc::ServerStats before = service->server->stats();
  double wall = 0;
  std::vector<ColdOp> ops =
      cold_loop(service->address, cfg.seed, cfg.seconds, &wall);
  const svc::ServerStats d = delta(before, service->server->stats());

  // Index order is send order, which the block tail needs.
  std::sort(ops.begin(), ops.end(), [](const ColdOp& a, const ColdOp& b) {
    return a.index < b.index;
  });
  std::vector<double> lat;
  std::uint64_t ok = 0;
  for (const ColdOp& op : ops) {
    lat.push_back(op.ms);
    ok += op.resp.status == svc::RespStatus::kOk;
  }
  out.attempted = ops.size();
  out.failed = ops.size() - ok;
  out.set("ops_per_s", double(ok) / wall, "1/s");
  out.set_latency(summarize(lat));
  out.set("peak_rss_mb", peak_rss_mb(), "MB");  // before the reference work

  // Gate, after the window: every response byte-identical to an
  // in-process execute_compile of the same params.
  std::atomic<std::uint64_t> mismatched{0};
  tilo::core::parallel_for_index(4, ops.size(), [&](int, std::size_t i) {
    const svc::Response ref =
        svc::execute_compile(tilo::pipeline::CompileOptions{},
                             cold_workload(cfg.seed, ops[i].index));
    if (ref.status != ops[i].resp.status || ref.result != ops[i].resp.result)
      mismatched.fetch_add(1);
  });
  out.failed += mismatched.load();
  out.check(ok == ops.size(), std::to_string(ops.size() - ok) +
                                  " svc-cold response(s) not ok");
  out.check(mismatched == 0, std::to_string(mismatched.load()) +
                                 " svc-cold response(s) differ from "
                                 "execute_compile");
  reconcile(out, d, ops.size(), ops.size(), "svc-cold");
  out.check(d.compiles == d.requests && d.store_misses == d.requests &&
                d.store_puts == d.requests,
            "svc-cold: every request must compile, miss the store and put");
  std::ostringstream line;
  line << "svc-cold server: requests " << d.requests << ", compiles "
       << d.compiles << ", store puts " << d.store_puts
       << ", max queue depth " << d.max_queue_depth << " (not gated)";
  note(line.str());
}

// ------------------------------------------------------------------ trace

namespace {

struct SocketPair {
  svc::Fd a, b;
  SocketPair() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
      throw std::runtime_error("socketpair failed");
    a.reset(fds[0]);
    b.reset(fds[1]);
  }
};

/// One synchronous round trip on a raw pipelined connection: encode,
/// send, receive, decode — what an open-loop request costs unloaded.
svc::Response round_trip(int fd, const svc::Request& req) {
  svc::write_frame(fd, svc::request_to_json(req).dump());
  std::string payload;
  svc::read_frame(fd, payload);
  return svc::response_from_wire(payload);
}

/// Per-op figures of an svc sample.
struct SvcSample {
  std::vector<double> rtt_ms, layers_ms, wait_us;
  double wall_ms = 0;
};

/// Replays each request through the public calls the server makes for it
/// (protocol.encode, svc.frame over a socket pair, protocol.parse,
/// protocol.key, then `serve`, then protocol.wire), each in its own span,
/// and then sends it for real (svc.rtt).  The server's wait — queue
/// handoff, wake-ups, syscalls — is the round trip minus the replayed
/// layers.  `serve(key, parsed, tr, parent, op)` returns the response the
/// layers produce; `send(req, resp)` performs and checks the round trip.
/// With a null tracer the same code runs untraced.
template <typename Serve, typename Send>
SvcSample replay_requests(Tracer* tr, const std::vector<svc::Request>& reqs,
                          Serve&& serve, Send&& send) {
  SvcSample t;
  SocketPair sp;
  const i64 t0 = now_ns();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto op = i64(i);
    Span root(tr, "svc.op", -1, op);
    const int p = root.index();
    const i64 l0 = now_ns();
    std::string bytes, payload;
    {
      Span s(tr, "protocol.encode", p, op);
      bytes = svc::request_to_json(reqs[i]).dump();
    }
    {
      Span s(tr, "svc.frame", p, op);
      svc::write_frame(sp.a.get(), bytes);
      svc::read_frame(sp.b.get(), payload);
    }
    svc::Request parsed;
    {
      Span s(tr, "protocol.parse", p, op);
      parsed = svc::request_from_json(svc::Json::parse(payload));
    }
    std::string key;
    {
      Span s(tr, "protocol.key", p, op);
      key = svc::problem_key(parsed.compile);
    }
    svc::Response resp = serve(key, parsed, tr, p, op);
    {
      Span s(tr, "protocol.wire", p, op);
      resp.id = parsed.id;
      (void)svc::response_from_wire(svc::response_to_wire(resp));
    }
    const double layers = double(now_ns() - l0) / 1e6;
    const i64 r0 = now_ns();
    {
      Span s(tr, "svc.rtt", p, op);
      send(reqs[i], resp);
    }
    const double rtt = double(now_ns() - r0) / 1e6;
    t.rtt_ms.push_back(rtt);
    t.layers_ms.push_back(layers);
    t.wait_us.push_back(1e3 * (rtt - layers));
  }
  t.wall_ms = double(now_ns() - t0) / 1e6;
  return t;
}

/// The accounting of a traced svc sample against its untraced twin: a
/// request's latency is its round trip, made up of the replayed layers
/// plus the server wait.
void svc_accounting(Result& out, const SvcSample& traced,
                    const SvcSample& untraced) {
  std::vector<double> explained;
  for (std::size_t i = 0; i < traced.rtt_ms.size(); ++i)
    explained.push_back(traced.layers_ms[i] +
                        std::max(0.0, traced.wait_us[i] / 1e3));
  const double n = double(traced.rtt_ms.size());
  report_accounting(out, median(untraced.rtt_ms), median(traced.rtt_ms),
                    median(explained), 1e3 * n / untraced.wall_ms,
                    1e3 * n / traced.wall_ms);
}

double median_us(std::map<std::string, std::vector<double>>& calls,
                 const std::string& name) {
  return median(calls[name]) / 1e3;
}

}  // namespace

void trace_svc_hot(const RunConfig& cfg, Result& out, bool named) {
  HotSetup h = hot_setup(cfg, out, "hot-trace");

  // A short open-loop phase at the fixed rate for the server's counters
  // and the sender's lateness.
  {
    const svc::ServerStats before = h.service->server->stats();
    std::vector<svc::Fd> conns = open_connections(h.service->address);
    const OpenLoop ol = open_loop(h, conns, kHotRate, 1.0, cfg.seed);
    const svc::ServerStats d = delta(before, h.service->server->stats());
    check_hot(out, d, ol.sent, ol.answered, ol.ok, ol.mismatched);
    const double req = std::max<double>(1, double(d.requests));
    out.set("svc.compiles", double(d.compiles), "count");
    out.set("svc.batched_ratio", double(d.batched) / req, "ratio");
    out.set("svc.shed", double(d.shed), "count");
    out.set("svc.max_queue_depth", double(d.max_queue_depth), "count");
    out.set("store.hit_ratio", double(d.store_hits) / req, "ratio");
    out.set("gen.late_us", ol.late.mean_us(), "us");
  }

  // The sampled ops: Zipf-drawn keys, one request at a time.
  constexpr int kOps = 400;
  tilo::util::Rng rng(stream_seed(cfg.seed, 12));
  const Zipf zipf(kHotKeys, 1.0);
  std::vector<svc::Request> reqs;
  std::vector<int> keys;
  for (int i = 0; i < kOps; ++i) {
    keys.push_back(zipf.draw(rng));
    reqs.push_back(compile_request(h.keys[std::size_t(keys.back())], i));
  }
  svc::Fd conn = connect(h.service->address);

  // The store layer replica: a memory store holding the set-up results.
  tilo::store::PlanStore store(tilo::store::PlanStoreConfig{});
  for (std::size_t k = 0; k < h.keys.size(); ++k)
    store.put(svc::problem_key(h.keys[k]), h.results[k]);
  auto serve = [&](const std::string& key, const svc::Request&, Tracer* tr,
                   int p, i64 op) {
    Span s(tr, "store.get", p, op);
    svc::Response r;
    const std::optional<std::string> hit = store.get(key);
    out.check(hit.has_value(), "svc-hot store replay missed");
    r.result = hit.value_or("");
    return r;
  };
  auto send = [&](const svc::Request& req, const svc::Response&) {
    const svc::Response real = round_trip(conn.get(), req);
    const int k = keys[std::size_t(*req.id)];
    out.check(real.status == svc::RespStatus::kOk &&
                  real.result == h.results[std::size_t(k)],
              "traced svc-hot response differs from its set-up result");
  };
  const SvcSample untraced = replay_requests(nullptr, reqs, serve, send);
  Tracer tr;
  const SvcSample traced = replay_requests(&tr, reqs, serve, send);
  auto calls = self_times(tr.spans());
  for (const char* layer : {"protocol.encode", "protocol.parse",
                            "protocol.key", "protocol.wire", "svc.frame",
                            "store.get"})
    out.set(std::string(layer) + "_us", median_us(calls, layer), "us");
  out.set("svc.server_wait_us", median(traced.wait_us), "us");
  if (named) svc_accounting(out, traced, untraced);
  tr.write_chrome(cfg.trace_dir + "/trace-svc-hot.json");
}

namespace {

/// A cold server plus the bench-side replicas of its store.
struct ColdRig {
  Service service;
  svc::Client client;
  tilo::store::PlanStore store;
  ColdRig(const std::string& work_dir, const std::string& tag)
      : service(work_dir, tag),
        client(svc::Client::connect(service.address)),
        store(tilo::store::PlanStoreConfig{service.dir + "/bench-store"}) {}
};

}  // namespace

void trace_svc_cold(const RunConfig& cfg, Result& out, bool named) {
  constexpr std::size_t kOps = 200;
  std::vector<svc::Request> reqs;
  for (std::size_t i = 0; i < kOps; ++i)
    reqs.push_back(compile_request(cold_workload(cfg.seed, i), i64(i)));
  namespace pl = tilo::pipeline;
  const pl::CompileOptions base;
  auto sample = [&](ColdRig& rig, Tracer* tr) {
    return replay_requests(
        tr, reqs,
        [&](const std::string& key, const svc::Request& req, Tracer* t,
            int p, i64 op) {
          {
            Span x(t, "store.get", p, op);
            (void)rig.store.get(key);
          }
          svc::Response r;
          {
            Span x(t, "svc.execute_compile", p, op);
            r = svc::execute_compile(base, req.compile);
          }
          {
            Span x(t, "store.put", p, op);
            rig.store.put(key, r.result);
          }
          return r;
        },
        [&](const svc::Request& req, const svc::Response& expected) {
          const svc::Response real = rig.client.compile(req.compile);
          out.check(real.status == svc::RespStatus::kOk &&
                        real.result == expected.result,
                    "svc-cold response differs from execute_compile");
        });
  };
  // The untraced twin and the traced sample each get their own empty
  // store, so both miss on every request.
  SvcSample untraced;
  {
    ColdRig a(cfg.work_dir, "cold-trace-a");
    untraced = sample(a, nullptr);
  }
  ColdRig b(cfg.work_dir, "cold-trace-b");
  Tracer tr;
  const SvcSample traced = sample(b, &tr);
  Service& s = b.service;
  tilo::store::SegmentLog log =
      tilo::store::SegmentLog::open(s.dir + "/bench-log");
  tilo::core::PlanCache cache(tilo::core::PlanCache::Scope::kMultiProblem);

  // Detail outside the round-trip accounting: the six pipeline stages the
  // compile runs, and the bare segment-log append under store.put.
  Tracer detail;
  for (std::size_t i = 0; i < kOps; ++i) {
    const svc::CompileParams& p = reqs[i].compile;
    const auto op = i64(i);
    std::optional<tilo::loop::LoopNest> nest;
    {
      Span x(&detail, "pipeline.frontend", -1, op);
      nest = pl::run_frontend(pl::SourceArtifact{p.name, p.source});
    }
    std::optional<pl::AnalysisArtifact> an;
    {
      Span x(&detail, "pipeline.analysis", -1, op);
      an = pl::run_analysis(*nest, base.machine, p.procs, p.auto_procs,
                            p.kind);
    }
    std::optional<pl::TilingArtifact> ti;
    {
      Span x(&detail, "pipeline.tiling", -1, op);
      ti = pl::run_tiling(*an, p.height, p.kind);
    }
    std::optional<pl::ScheduleArtifact> sc;
    {
      Span x(&detail, "pipeline.scheduling", -1, op);
      sc = pl::run_scheduling(*an, *ti, p.kind);
    }
    std::optional<pl::PlanArtifact> pa;
    {
      Span x(&detail, "pipeline.lowering", -1, op);
      pa = pl::run_lowering(*an, *ti, *sc, &cache, base.comm.level);
    }
    {
      Span x(&detail, "pipeline.backend", -1, op);
      pl::BackendConfig bc;
      bc.simulate = true;
      bc.comm = base.comm;
      (void)pl::run_backend(*nest, *an, *pa, bc);
    }
    {
      Span x(&detail, "store.append", -1, op);
      log.append(svc::problem_key(p), p.source);
    }
  }

  auto calls = self_times(tr.spans());
  auto detail_calls = self_times(detail.spans());
  out.set("svc.execute_compile_ms",
          median_us(calls, "svc.execute_compile") / 1e3, "ms");
  for (const char* stage : {"frontend", "analysis", "tiling", "scheduling",
                            "lowering", "backend"}) {
    const std::string name = std::string("pipeline.") + stage;
    out.set(name + "_us", median_us(detail_calls, name), "us");
  }
  out.set("store.put_us", median_us(calls, "store.put"), "us");
  out.set("store.append_us", median_us(detail_calls, "store.append"), "us");
  const svc::ServerStats st = s.server->stats();
  reconcile(out, st, kOps, traced.rtt_ms.size(), "svc-cold traced sample");
  out.check(st.compiles == st.requests && st.store_puts == st.requests,
            "svc-cold traced sample: every request must compile and put");
  out.set("core.plan_cache_hit_ratio",
          double(st.cache_hits) /
              std::max<double>(1, double(st.cache_hits + st.cache_misses)),
          "ratio");
  if (named) {
    out.set("svc.server_wait_us", median(traced.wait_us), "us");
    svc_accounting(out, traced, untraced);
  }

  // Rehydration: reopen a store on the server's log, as a restart would.
  s.server->drain();
  const i64 o0 = now_ns();
  tilo::store::PlanStore reopened(
      tilo::store::PlanStoreConfig{s.dir + "/store"});
  out.set("store.replay_ms", double(now_ns() - o0) / 1e6, "ms");
  out.set("store.records", double(reopened.rehydrated()), "count");
  std::uint64_t log_bytes = 0;
  for (const auto& e : fs::directory_iterator(s.dir + "/store"))
    if (e.is_regular_file()) log_bytes += e.file_size();
  out.set("store.log_bytes", double(log_bytes), "bytes");
  out.check(reopened.rehydrated() == kOps,
            "svc-cold store reopened with " +
                std::to_string(reopened.rehydrated()) + " of " +
                std::to_string(kOps) + " records");
  tr.write_chrome(cfg.trace_dir + "/trace-svc-cold.json");
}

}  // namespace perfbench
