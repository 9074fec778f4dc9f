// Tests of the plan-compilation service (src/tilo/svc): wire protocol and
// framing robustness, single-flight batching byte-identity, bounded-queue
// load shedding, deadlines, and graceful drain.  The malformed-wire-input
// tests pin the service's survival contract: truncated frames, oversized
// length prefixes, invalid envelope versions, and clients vanishing
// mid-request produce error responses (or clean connection teardown), never
// a crash or a hang.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tilo/svc/client.hpp"
#include "tilo/svc/protocol.hpp"
#include "tilo/svc/queue.hpp"
#include "tilo/svc/server.hpp"
#include "tilo/svc/socket.hpp"
#include "tilo/util/error.hpp"
#include "tilo/util/rng.hpp"


namespace svc = tilo::svc;
using tilo::pipeline::Json;
using tilo::util::i64;

namespace {

// A light workload (compiles in ~1 ms) and a heavy one (~300 ms) used to
// hold the single worker busy while other requests pile up behind it.
constexpr const char* kQuickSource =
    "FOR i = 0 TO 15\n FOR j = 0 TO 255\n"
    "  Q(i, j) = 0.5 * (Q(i-1, j) + Q(i, j-1))\n ENDFOR\nENDFOR\n";
constexpr const char* kSlowSource =
    "FOR i = 0 TO 255\n FOR j = 0 TO 262143\n"
    "  S(i, j) = 0.5 * (S(i-1, j) + S(i, j-1))\n ENDFOR\nENDFOR\n";

svc::CompileParams quick_params(std::string name = "quick") {
  svc::CompileParams p;
  p.name = std::move(name);
  p.source = kQuickSource;
  p.procs = tilo::lat::Vec(std::vector<i64>{4, 1});
  p.height = 16;
  return p;
}

svc::CompileParams slow_params() {
  svc::CompileParams p;
  p.name = "slow";
  p.source = kSlowSource;
  p.procs = tilo::lat::Vec(std::vector<i64>{8, 1});
  p.height = 2;
  p.simulate = true;  // the simulation is what makes this slow (~200-300 ms)
  return p;
}

/// A started server on a fresh Unix socket under the test tmpdir.
struct TestServer {
  explicit TestServer(int workers = 2, std::size_t queue_capacity = 64,
                      std::size_t max_frame_bytes = svc::kDefaultMaxFrameBytes) {
    static int counter = 0;
    path = ::testing::TempDir() + "svc_test_" + std::to_string(::getpid()) +
           "_" + std::to_string(counter++) + ".sock";
    svc::ServerConfig cfg;
    cfg.address = "unix:" + path;
    cfg.workers = workers;
    cfg.queue_capacity = queue_capacity;
    cfg.max_frame_bytes = max_frame_bytes;
    server = std::make_unique<svc::Server>(cfg);
    server->start();
  }

  svc::Client client(svc::ClientOptions opts = {}) {
    return svc::Client::connect("unix:" + path, opts);
  }

  /// Raw connection for hand-crafted (malformed) wire bytes.
  svc::Fd raw_connect() {
    return svc::connect_to(server->address(), /*timeout_ms=*/2000);
  }

  std::string path;
  std::unique_ptr<svc::Server> server;
};

/// Sends raw bytes (NOT a framed payload) on a connected socket.
void send_bytes(int fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

std::string length_prefix(std::uint32_t n) {
  std::string p(4, '\0');
  p[0] = static_cast<char>(n >> 24);
  p[1] = static_cast<char>(n >> 16);
  p[2] = static_cast<char>(n >> 8);
  p[3] = static_cast<char>(n);
  return p;
}

svc::Response read_response(int fd, int deadline_ms = 5000) {
  std::string payload;
  const svc::FrameStatus st =
      svc::read_frame(fd, payload, svc::kDefaultMaxFrameBytes, deadline_ms);
  EXPECT_EQ(st, svc::FrameStatus::kFrame)
      << svc::frame_status_name(st);
  return svc::response_from_wire(payload);
}

void expect_accounting_invariant(const svc::ServerStats& s) {
  EXPECT_EQ(s.requests,
            s.completed + s.shed + s.timed_out + s.failed + s.rejected);
}

}  // namespace

// --------------------------------------------------------------- protocol

TEST(SvcProtocolTest, RequestRoundTripsThroughJson) {
  svc::Request req;
  req.op = svc::Op::kCompile;
  req.id = 42;
  req.deadline_ms = 250;
  req.compile = quick_params("heat");
  req.compile.simulate = true;
  req.compile.include_plan = true;

  const svc::Request back =
      svc::request_from_json(Json::parse(svc::request_to_json(req).dump()));
  EXPECT_EQ(back.op, svc::Op::kCompile);
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.compile.name, "heat");
  EXPECT_EQ(back.compile.source, req.compile.source);
  ASSERT_TRUE(back.compile.procs.has_value());
  EXPECT_EQ((*back.compile.procs)[0], 4);
  EXPECT_EQ(back.compile.height, req.compile.height);
  EXPECT_TRUE(back.compile.simulate);
  EXPECT_TRUE(back.compile.include_plan);
}

TEST(SvcProtocolTest, ProblemKeyIgnoresIdAndDeadline) {
  svc::Request a, b;
  a.op = b.op = svc::Op::kCompile;
  a.compile = b.compile = quick_params();
  a.id = 1;
  b.id = 2;
  b.deadline_ms = 9;
  EXPECT_EQ(svc::problem_key(a.compile), svc::problem_key(b.compile));

  b.compile.height = 32;  // any workload knob changes the identity
  EXPECT_NE(svc::problem_key(a.compile), svc::problem_key(b.compile));
}

TEST(SvcProtocolTest, ResponseWireSplicesResultVerbatim) {
  svc::Response resp;
  resp.id = 7;
  resp.result = "{\"V\":16,\"name\":\"x\"}";
  const std::string wire = svc::response_to_wire(resp);
  // The result object's bytes appear unmodified inside the envelope.
  EXPECT_NE(wire.find(resp.result), std::string::npos) << wire;
  const svc::Response back = svc::response_from_wire(wire);
  EXPECT_EQ(back.status, svc::RespStatus::kOk);
  EXPECT_EQ(back.id, resp.id);
  EXPECT_EQ(back.result, resp.result);
}

TEST(SvcProtocolTest, StatusNamesRoundTrip) {
  for (svc::RespStatus st :
       {svc::RespStatus::kOk, svc::RespStatus::kBadRequest,
        svc::RespStatus::kUnsupportedVersion, svc::RespStatus::kOverloaded,
        svc::RespStatus::kTimeout, svc::RespStatus::kShuttingDown,
        svc::RespStatus::kError})
    EXPECT_EQ(svc::status_from(svc::status_name(st)), st);
  EXPECT_THROW(svc::status_from("nonsense"), tilo::util::Error);
}

// ---------------------------------------------------------------- framing

TEST(SvcFramingTest, FrameRoundTripsOverASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  svc::Fd a(fds[0]), b(fds[1]);
  const std::string payload = "{\"hello\":\"world\"}";
  ASSERT_TRUE(svc::write_frame(a.get(), payload));
  std::string got;
  EXPECT_EQ(svc::read_frame(b.get(), got), svc::FrameStatus::kFrame);
  EXPECT_EQ(got, payload);
}

TEST(SvcFramingTest, CleanCloseIsDistinguishedFromTruncation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {
    svc::Fd a(fds[0]);  // close immediately: EOF at a frame boundary
  }
  svc::Fd b(fds[1]);
  std::string got;
  EXPECT_EQ(svc::read_frame(b.get(), got), svc::FrameStatus::kClosed);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {
    svc::Fd a(fds[0]);
    send_bytes(a.get(), length_prefix(100) + "only ten b");
  }  // EOF mid-frame
  svc::Fd b2(fds[1]);
  EXPECT_EQ(svc::read_frame(b2.get(), got), svc::FrameStatus::kTruncated);
}

TEST(SvcFramingTest, OversizedPrefixIsRejectedWithoutReadingThePayload) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  svc::Fd a(fds[0]), b(fds[1]);
  send_bytes(a.get(), length_prefix(1u << 30));
  std::string got;
  EXPECT_EQ(svc::read_frame(b.get(), got, /*max_bytes=*/1 << 20),
            svc::FrameStatus::kOversized);
}

TEST(SvcFramingTest, ReadDeadlineExpires) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  svc::Fd a(fds[0]), b(fds[1]);
  std::string got;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(svc::read_frame(b.get(), got, svc::kDefaultMaxFrameBytes,
                            /*deadline_ms=*/50),
            svc::FrameStatus::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(40));
}

// --------------------------------------------------------------- Listener

namespace {

/// A Listener that echoes every frame back, on a fresh Unix socket.
struct EchoListener {
  EchoListener()
      : listener(svc::kDefaultMaxFrameBytes,
                 [](const std::shared_ptr<svc::Listener::Conn>& conn,
                    svc::FrameStatus, const std::string& payload) {
                   return conn->send(payload);
                 }) {
    static int counter = 0;
    listener.start("unix:" + ::testing::TempDir() + "svc_listener_" +
                   std::to_string(::getpid()) + "_" +
                   std::to_string(counter++) + ".sock");
  }

  svc::Fd connect() { return svc::connect_to(listener.address(), 2000); }

  svc::Listener listener;
};

/// Polls `done` every millisecond for up to two seconds.
template <typename Pred>
bool wait_until(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

TEST(SvcListenerTest, FinishedReadersAreReapedAcrossConnectCloseCycles) {
  EchoListener el;
  for (int i = 0; i < 50; ++i) {
    {
      svc::Fd fd = el.connect();
      ASSERT_TRUE(svc::write_frame(fd.get(), "ping"));
      std::string echo;
      ASSERT_EQ(svc::read_frame(fd.get(), echo, 1 << 20, 2000),
                svc::FrameStatus::kFrame);
      EXPECT_EQ(echo, "ping");
    }
    ASSERT_TRUE(wait_until([&] { return el.listener.live() == 0; }))
        << "reader of connection " << i << " never finished";
  }
  // Each accept reaped the previous cycle's reader, so only the last one
  // is still held; without reaping there would be 50.
  EXPECT_EQ(el.listener.readers(), 1u);
  el.listener.close();
  EXPECT_EQ(el.listener.readers(), 0u);
}

TEST(SvcListenerTest, CloseJoinsReadersWhileAnIdleClientIsConnected) {
  EchoListener el;
  svc::Fd idle = el.connect();
  ASSERT_TRUE(wait_until([&] { return el.listener.live() == 1; }));
  el.listener.close();  // must not wait for the idle client to speak
  EXPECT_EQ(el.listener.live(), 0u);
  EXPECT_EQ(el.listener.readers(), 0u);
  // The reader let go of the connection, so the client sees it closed.
  std::string got;
  EXPECT_EQ(svc::read_frame(idle.get(), got, 1 << 20, 2000),
            svc::FrameStatus::kClosed);
}

TEST(SvcListenerTest, AcceptedCountsEveryConnection) {
  EchoListener el;
  EXPECT_EQ(el.listener.accepted(), 0u);
  std::vector<svc::Fd> clients;
  for (int i = 0; i < 5; ++i) clients.push_back(el.connect());
  ASSERT_TRUE(wait_until([&] { return el.listener.live() == 5; }));
  EXPECT_EQ(el.listener.accepted(), 5u);
  clients.clear();
  ASSERT_TRUE(wait_until([&] { return el.listener.live() == 0; }));
  EXPECT_EQ(el.listener.accepted(), 5u);
}

// ----------------------------------------------------------- BoundedQueue

TEST(SvcQueueTest, AdmissionIsBoundedAndCloseDrains) {
  svc::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: shed, don't block
  EXPECT_EQ(q.depth(), 2u);
  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed: refuse new work
  EXPECT_EQ(q.pop(), std::optional<int>(1));  // backlog still drains
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::nullopt);  // closed and empty: workers exit
}

// --------------------------------------------------- malformed wire input

TEST(SvcServerTest, InvalidJsonGetsBadRequestAndTheServerSurvives) {
  TestServer ts;
  svc::Fd fd = ts.raw_connect();
  ASSERT_TRUE(svc::write_frame(fd.get(), "this is not json"));
  const svc::Response resp = read_response(fd.get());
  EXPECT_EQ(resp.status, svc::RespStatus::kBadRequest);
  EXPECT_FALSE(resp.error.empty());

  // The same connection still works afterwards.
  svc::Request ping;
  ping.op = svc::Op::kPing;
  ping.id = 1;
  ASSERT_TRUE(svc::write_frame(fd.get(), svc::request_to_json(ping).dump()));
  EXPECT_EQ(read_response(fd.get()).status, svc::RespStatus::kOk);
}

TEST(SvcServerTest, WrongEnvelopeVersionGetsDedicatedStatus) {
  TestServer ts;
  svc::Fd fd = ts.raw_connect();
  ASSERT_TRUE(svc::write_frame(
      fd.get(),
      R"({"tilo": "svc.request", "version": 99, "id": 5, "op": "ping"})"));
  const svc::Response resp = read_response(fd.get());
  EXPECT_EQ(resp.status, svc::RespStatus::kUnsupportedVersion);
  EXPECT_EQ(resp.id, std::optional<i64>(5));  // id still echoed back
  EXPECT_NE(resp.error.find("version"), std::string::npos) << resp.error;
}

TEST(SvcServerTest, MissingFieldsGetBadRequest) {
  TestServer ts;
  svc::Fd fd = ts.raw_connect();
  // A compile op with no workload object.
  ASSERT_TRUE(svc::write_frame(
      fd.get(),
      R"({"tilo": "svc.request", "version": 1, "id": 3, "op": "compile"})"));
  EXPECT_EQ(read_response(fd.get()).status, svc::RespStatus::kBadRequest);
}

TEST(SvcServerTest, OversizedFrameIsAnsweredOnceThenClosed) {
  TestServer ts(/*workers=*/1, /*queue_capacity=*/8,
                /*max_frame_bytes=*/1024);
  svc::Fd fd = ts.raw_connect();
  send_bytes(fd.get(), length_prefix(1u << 30));
  const svc::Response resp = read_response(fd.get());
  EXPECT_EQ(resp.status, svc::RespStatus::kBadRequest);
  EXPECT_NE(resp.error.find("cap"), std::string::npos) << resp.error;
  // After an unframeable prefix the server closes the connection.
  std::string rest;
  EXPECT_EQ(svc::read_frame(fd.get(), rest, 1 << 20, 2000),
            svc::FrameStatus::kClosed);
  // ... but keeps serving new connections.
  svc::Client client = ts.client();
  EXPECT_EQ(client.ping().status, svc::RespStatus::kOk);
}

TEST(SvcServerTest, TruncatedFrameEndsTheConnectionOnly) {
  TestServer ts;
  {
    svc::Fd fd = ts.raw_connect();
    send_bytes(fd.get(), length_prefix(500) + "vanishing client");
  }  // disconnect mid-frame
  // The server reader sees kTruncated, tears down that connection, and the
  // service keeps answering others.
  svc::Client client = ts.client();
  EXPECT_EQ(client.ping().status, svc::RespStatus::kOk);
  const svc::ServerStats s = ts.server->stats();
  EXPECT_EQ(s.connections, 2u);
  expect_accounting_invariant(s);
}

TEST(SvcServerTest, MidRequestDisconnectStillAccountsTheRequest) {
  TestServer ts(/*workers=*/1);
  {
    svc::Fd fd = ts.raw_connect();
    svc::Request req;
    req.op = svc::Op::kCompile;
    req.id = 11;
    req.compile = quick_params("goner");
    ASSERT_TRUE(
        svc::write_frame(fd.get(), svc::request_to_json(req).dump()));
  }  // vanish before the response arrives
  // The worker compiles anyway, the response write fails silently, and the
  // request is still accounted as answered.
  for (int i = 0; i < 200 && ts.server->stats().completed < 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const svc::ServerStats s = ts.server->stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.compiles, 1u);
  expect_accounting_invariant(s);
}

// ------------------------------------------------------------ happy paths

TEST(SvcServerTest, CompilesOverTheWire) {
  TestServer ts;
  svc::Client client = ts.client();
  svc::CompileParams params = quick_params("wire");
  params.simulate = true;
  const svc::Response resp = client.compile(params);
  ASSERT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
  const Json r = Json::parse(resp.result);
  EXPECT_EQ(r.at("name").as_string("name"), "wire");
  EXPECT_EQ(r.at("V").as_integer("V"), 16);
  EXPECT_GT(r.at("schedule_length").as_integer("schedule_length"), 0);
  EXPECT_GT(r.at("predicted_seconds").as_number("predicted_seconds"), 0.0);
  EXPECT_GT(r.at("simulated_seconds").as_number("simulated_seconds"), 0.0);
}

TEST(SvcServerTest, CompileErrorsComeBackAsErrorStatus) {
  TestServer ts;
  svc::Client client = ts.client();
  svc::CompileParams params;
  params.name = "bad";
  // Parses, but reads a value not yet computed: the compiler rejects it.
  params.source = "FOR i = 0 TO 9\n A(i) = A(i+1)\nENDFOR\n";
  const svc::Response resp = client.compile(params);
  EXPECT_EQ(resp.status, svc::RespStatus::kError);
  EXPECT_FALSE(resp.error.empty());
  const svc::ServerStats s = ts.server->stats();
  EXPECT_EQ(s.failed, 1u);
  expect_accounting_invariant(s);
}

TEST(SvcServerTest, PingStatsAndSummaryWork) {
  TestServer ts;
  svc::Client client = ts.client();
  EXPECT_NE(client.ping().result.find("pong"), std::string::npos);
  client.compile(quick_params());
  const svc::Response stats = client.stats();
  ASSERT_EQ(stats.status, svc::RespStatus::kOk) << stats.error;
  const Json s = Json::parse(stats.result);
  EXPECT_GE(s.at("requests").as_integer("requests"), 2);
  EXPECT_EQ(s.at("compiles").as_integer("compiles"), 1);
  std::ostringstream os;
  ts.server->write_summary(os);
  EXPECT_NE(os.str().find("svc summary"), std::string::npos);
  EXPECT_NE(os.str().find("plan cache"), std::string::npos);
}

TEST(SvcServerTest, RepeatCompilesHitThePlanCache) {
  TestServer ts;
  svc::Client client = ts.client();
  ASSERT_EQ(client.compile(quick_params()).status, svc::RespStatus::kOk);
  ASSERT_EQ(client.compile(quick_params()).status, svc::RespStatus::kOk);
  const svc::ServerStats s = ts.server->stats();
  EXPECT_EQ(s.compiles, 2u);
  EXPECT_GE(s.cache_hits, 1u);
}

// ------------------------------------------------- single-flight batching

TEST(SvcServerTest, ConcurrentIdenticalRequestsShareOneCompileByteForByte) {
  TestServer ts(/*workers=*/1);

  // Occupy the only worker with the heavy problem ...
  std::thread holder([&ts] {
    svc::Client client = ts.client();
    const svc::Response resp = client.compile(slow_params());
    EXPECT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
  });
  // ... give the worker time to pop it ...
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // ... then pile identical requests behind it.  The first admission
  // creates the flight; the rest join it while the worker is busy.
  constexpr int kFollowers = 5;
  std::vector<std::string> results(kFollowers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kFollowers; ++i)
    threads.emplace_back([&ts, &results, i] {
      svc::Client client = ts.client();
      const svc::Response resp = client.compile(quick_params("shared"));
      EXPECT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
      results[static_cast<std::size_t>(i)] = resp.result;
    });
  for (std::thread& t : threads) t.join();
  holder.join();

  // Every member of the flight received byte-identical result bytes.
  ASSERT_FALSE(results[0].empty());
  for (int i = 1; i < kFollowers; ++i) EXPECT_EQ(results[0], results[i]);

  const svc::ServerStats s = ts.server->stats();
  EXPECT_EQ(s.batched, static_cast<std::uint64_t>(kFollowers - 1));
  EXPECT_EQ(s.compiles, 2u);  // the slow holder + ONE shared compile
  expect_accounting_invariant(s);

  // A later individual compile of the same problem produces the same bytes
  // as the batched flight did (determinism across the single-flight path).
  svc::Client client = ts.client();
  const svc::Response solo = client.compile(quick_params("shared"));
  ASSERT_EQ(solo.status, svc::RespStatus::kOk) << solo.error;
  EXPECT_EQ(solo.result, results[0]);
}

// ----------------------------------------------------- overload shedding

TEST(SvcServerTest, FullQueueShedsWithOverloadedAndAnswersEveryone) {
  TestServer ts(/*workers=*/1, /*queue_capacity=*/1);

  std::thread holder([&ts] {
    svc::Client client = ts.client();
    const svc::Response resp = client.compile(slow_params());
    EXPECT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Distinct problems (different names -> different keys) so nobody can
  // join a flight: they must queue, and the queue holds one.
  constexpr int kClients = 4;
  std::atomic<int> ok{0}, overloaded{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&ts, &ok, &overloaded, i] {
      svc::Client client = ts.client();
      const svc::Response resp =
          client.compile(quick_params("q" + std::to_string(i)));
      if (resp.status == svc::RespStatus::kOk) ++ok;
      if (resp.status == svc::RespStatus::kOverloaded) {
        ++overloaded;
        EXPECT_NE(resp.error.find("retry"), std::string::npos) << resp.error;
      }
    });
  for (std::thread& t : threads) t.join();
  holder.join();

  // Everyone got an answer; with a queue of one at least one was shed.
  EXPECT_EQ(ok + overloaded, kClients);
  EXPECT_GE(overloaded, 1);
  const svc::ServerStats s = ts.server->stats();
  EXPECT_EQ(s.shed, static_cast<std::uint64_t>(overloaded.load()));
  expect_accounting_invariant(s);
}

TEST(SvcClientTest, RetryEventuallySucceedsAfterOverload) {
  TestServer ts(/*workers=*/1, /*queue_capacity=*/1);
  std::thread holder([&ts] {
    svc::Client client = ts.client();
    EXPECT_EQ(client.compile(slow_params()).status, svc::RespStatus::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Fill the queue, then retry a shed request until the backlog clears.
  std::thread filler([&ts] {
    svc::Client client = ts.client();
    client.compile(quick_params("filler"));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  svc::ClientOptions opts;
  opts.max_retries = 20;
  opts.backoff_ms = 25;
  svc::Client client = ts.client(opts);
  svc::Request req;
  req.op = svc::Op::kCompile;
  req.compile = quick_params("retrier");
  const svc::Response resp = client.call_with_retry(std::move(req));
  EXPECT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
  holder.join();
  filler.join();
}

// --------------------------------------------------------------- deadlines

TEST(SvcServerTest, ExpiredDeadlineSkipsTheCompile) {
  TestServer ts(/*workers=*/1);
  std::thread holder([&ts] {
    svc::Client client = ts.client();
    EXPECT_EQ(client.compile(slow_params()).status, svc::RespStatus::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  svc::Client client = ts.client();
  const svc::Response resp =
      client.compile(quick_params("impatient"), /*deadline_ms=*/1);
  EXPECT_EQ(resp.status, svc::RespStatus::kTimeout);
  EXPECT_NE(resp.error.find("deadline"), std::string::npos) << resp.error;
  holder.join();

  const svc::ServerStats s = ts.server->stats();
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.compiles, 1u);  // only the holder compiled
  expect_accounting_invariant(s);
}

// ---------------------------------------------------------------- drain

TEST(SvcServerTest, SigtermDrainFinishesInFlightRequests) {
  TestServer ts(/*workers=*/1);
  svc::SignalDrain signals;
  std::thread serving([&ts, &signals] {
    ts.server->run_until(signals.fd());
  });

  // Put a heavy compile in flight, then a queued one behind it.
  std::atomic<bool> slow_ok{false}, queued_ok{false};
  std::thread in_flight([&ts, &slow_ok] {
    svc::Client client = ts.client();
    const svc::Response resp = client.compile(slow_params());
    slow_ok = resp.status == svc::RespStatus::kOk;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread queued([&ts, &queued_ok] {
    svc::Client client = ts.client();
    const svc::Response resp = client.compile(quick_params("queued"));
    queued_ok = resp.status == svc::RespStatus::kOk;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // SIGTERM mid-compile: the drain must answer both admitted requests.
  ASSERT_EQ(::raise(SIGTERM), 0);
  serving.join();
  in_flight.join();
  queued.join();

  EXPECT_TRUE(ts.server->draining());
  EXPECT_TRUE(slow_ok.load());
  EXPECT_TRUE(queued_ok.load());
  const svc::ServerStats s = ts.server->stats();
  EXPECT_EQ(s.queue_depth, 0u);  // nothing left behind
  expect_accounting_invariant(s);
}

TEST(SvcServerTest, ShutdownOpDrainsViaTheWire) {
  TestServer ts;
  std::thread serving([&ts] { ts.server->run_until(/*wake_fd=*/-1); });

  svc::Client client = ts.client();
  ASSERT_EQ(client.compile(quick_params()).status, svc::RespStatus::kOk);
  EXPECT_EQ(client.shutdown_server().status, svc::RespStatus::kOk);
  serving.join();  // the shutdown op wakes run_until, which drains

  EXPECT_TRUE(ts.server->draining());
  // Once draining, new compile connections are refused outright (the
  // listener is closed), which the client surfaces as a connect error.
  EXPECT_THROW(ts.client(), tilo::util::Error);
  expect_accounting_invariant(ts.server->stats());
}

TEST(SvcServerTest, CompileDuringDrainGetsShuttingDown) {
  TestServer ts(/*workers=*/1);
  // Hold an open connection from before the drain begins.
  svc::Fd fd = ts.raw_connect();

  std::thread holder([&ts] {
    svc::Client client = ts.client();
    EXPECT_EQ(client.compile(slow_params()).status, svc::RespStatus::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread draining([&ts] { ts.server->drain(); });
  // Give drain() a moment to flip the flag, then ask for new work on the
  // pre-existing connection: the reader answers "shutting_down".
  for (int i = 0; i < 100 && !ts.server->draining(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  svc::Request req;
  req.op = svc::Op::kCompile;
  req.id = 77;
  req.compile = quick_params("late");
  if (svc::write_frame(fd.get(), svc::request_to_json(req).dump())) {
    std::string payload;
    const svc::FrameStatus st = svc::read_frame(
        fd.get(), payload, svc::kDefaultMaxFrameBytes, 5000);
    if (st == svc::FrameStatus::kFrame) {
      const svc::Response resp = svc::response_from_wire(payload);
      EXPECT_EQ(resp.status, svc::RespStatus::kShuttingDown);
      EXPECT_EQ(resp.id, std::optional<i64>(77));
    }
    // kClosed is also acceptable: drain had already cut the reader loose.
  }
  holder.join();
  draining.join();
  expect_accounting_invariant(ts.server->stats());
}

// ------------------------------------------------------------- histogram

TEST(SvcHistogramTest, PercentileReadsBucketUpperEdges) {
  tilo::obs::LogHistogram hist;
  EXPECT_EQ(svc::histogram_percentile_ns(hist, 0.5), 0.0);  // empty
  for (int i = 0; i < 99; ++i) hist.add(1000);  // ~1 us
  hist.add(1'000'000'000);                      // one 1 s outlier
  const double p50 = svc::histogram_percentile_ns(hist, 0.50);
  const double p99 = svc::histogram_percentile_ns(hist, 0.99);
  const double p100 = svc::histogram_percentile_ns(hist, 1.0);
  EXPECT_GE(p50, 1000.0);
  EXPECT_LT(p50, 1'000'000.0);       // p50 stays near the cluster
  EXPECT_LE(p99, p100);
  EXPECT_GE(p100, 1'000'000'000.0);  // p100 covers the outlier's bucket
}

// ---------------------------------------------------- stats: new counters

TEST(SvcServerTest, StatsOpReportsQueueHighWaterAndCacheCounters) {
  TestServer ts(/*workers=*/1, /*queue_capacity=*/8);
  svc::Client client = ts.client();
  // Two identical compiles: one miss (the compile), then one cache hit.
  ASSERT_EQ(client.compile(quick_params()).status, svc::RespStatus::kOk);
  ASSERT_EQ(client.compile(quick_params()).status, svc::RespStatus::kOk);
  const svc::Response stats = client.stats();
  ASSERT_EQ(stats.status, svc::RespStatus::kOk) << stats.error;
  const Json s = Json::parse(stats.result);
  EXPECT_GE(s.at("cache_hits").as_integer("cache_hits"), 1);
  EXPECT_GE(s.at("cache_misses").as_integer("cache_misses"), 1);
  // Each compile passed through the queue, so the high-water mark is at
  // least 1 and never exceeds the configured capacity.
  EXPECT_GE(s.at("max_queue_depth").as_integer("max_queue_depth"), 1);
  EXPECT_LE(s.at("max_queue_depth").as_integer("max_queue_depth"), 8);
  EXPECT_EQ(s.at("queue_capacity").as_integer("queue_capacity"), 8);
  EXPECT_EQ(s.at("workers").as_integer("workers"), 1);
}

TEST(SvcServerTest, FleetOpsAreRefusedByACompileServer) {
  TestServer ts;
  svc::Client client = ts.client();
  for (const svc::Op op : {svc::Op::kRegister, svc::Op::kHeartbeat,
                           svc::Op::kDeregister, svc::Op::kUnit,
                           svc::Op::kQueue, svc::Op::kAcct}) {
    svc::Request req;
    req.op = op;
    req.fleet = Json::object();
    const svc::Response resp = client.call(std::move(req));
    EXPECT_EQ(resp.status, svc::RespStatus::kBadRequest)
        << svc::op_name(op);
    EXPECT_NE(resp.error.find("fleet controller"), std::string::npos)
        << resp.error;
  }
}

// ------------------------------------------------- client retry schedule

namespace {

/// A stub server that answers every well-formed request with "overloaded":
/// the worst polite server there is, for exercising the retry loop.
struct OverloadedStub {
  OverloadedStub() {
    static int counter = 0;
    addr = svc::Address::parse(
        "unix:" + ::testing::TempDir() + "svc_overload_" +
        std::to_string(::getpid()) + "_" + std::to_string(counter++) +
        ".sock");
    listen_fd = svc::listen_on(addr);
    thread = std::thread([this] {
      for (;;) {
        svc::Fd conn = svc::accept_on(listen_fd.get());
        if (!conn.valid()) return;  // listen socket closed: stop
        std::string payload;
        while (svc::read_frame(conn.get(), payload) ==
               svc::FrameStatus::kFrame) {
          const svc::Request req =
              svc::request_from_json(Json::parse(payload));
          svc::Response resp;
          resp.status = svc::RespStatus::kOverloaded;
          resp.id = req.id;
          resp.error = "stub: always overloaded";
          if (!svc::write_frame(conn.get(), svc::response_to_wire(resp)))
            break;
        }
      }
    });
  }
  ~OverloadedStub() {
    // shutdown wakes the blocked accept; reset only after the join (the
    // accept thread still reads the fd until then).
    ::shutdown(listen_fd.get(), SHUT_RDWR);
    thread.join();
    listen_fd.reset();
  }
  svc::Address addr;
  svc::Fd listen_fd;
  std::thread thread;
};

}  // namespace

TEST(SvcClientTest, RetryBackoffScheduleIsSeededReproducibleAndBounded) {
  OverloadedStub stub;
  svc::ClientOptions opts;
  opts.max_retries = 3;
  opts.backoff_ms = 40;
  opts.backoff_factor = 2.0;

  // Mirror the client's jitter stream with the library Rng under the same
  // seed: attempt k sleeps floor(backoff_ms * factor^k * (0.5 + u_k)) ms.
  // The schedule is a pure function of the seed — reproducible — and the
  // total is bounded by sum_k 1.5 * backoff_ms * factor^k.
  tilo::util::Rng mirror(opts.jitter_seed);
  i64 expected_total_ms = 0;
  double bound_ms = 0.0;
  double nominal = static_cast<double>(opts.backoff_ms);
  for (int k = 0; k < opts.max_retries; ++k) {
    expected_total_ms +=
        static_cast<i64>(nominal * (0.5 + mirror.uniform01()));
    bound_ms += 1.5 * nominal;
    nominal *= opts.backoff_factor;
  }

  for (int run = 0; run < 2; ++run) {  // same seed -> same schedule, twice
    svc::Client client = svc::Client::connect(stub.addr.str(), opts);
    svc::Request req;
    req.op = svc::Op::kPing;
    const auto t0 = std::chrono::steady_clock::now();
    const svc::Response resp = client.call_with_retry(std::move(req));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(resp.status, svc::RespStatus::kOverloaded);
    EXPECT_GE(elapsed_ms, static_cast<double>(expected_total_ms))
        << "run " << run << ": slept less than the seeded schedule";
    // Generous slack for 4 round trips over a Unix socket.
    EXPECT_LT(elapsed_ms, bound_ms + 1000.0)
        << "run " << run << ": exceeded the backoff formula bound";
  }
}

// ------------------------------------------------- queue under contention

TEST(SvcQueueStressTest, MpmcShedsAreAccountedAndItemsPopExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  constexpr int kTotal = kProducers * kPerProducer;

  svc::BoundedQueue<int> queue(/*capacity=*/8);
  std::atomic<int> accepted{0};
  std::atomic<int> shed{0};
  std::atomic<int> popped{0};
  std::vector<std::atomic<int>> seen(kTotal);
  for (auto& s : seen) s.store(0);

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (std::optional<int> item = queue.pop()) {
        // Exactly-once: no item may be popped twice.
        EXPECT_EQ(seen[static_cast<std::size_t>(*item)].fetch_add(1), 0);
        popped.fetch_add(1);
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int id = p * kPerProducer + i;
        if (queue.try_push(id))
          accepted.fetch_add(1);
        else
          shed.fetch_add(1);  // try_push never blocks: shed is explicit
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.close();
  for (std::thread& t : consumers) t.join();

  // Every attempt is accounted for exactly once, as accepted or shed.
  EXPECT_EQ(accepted.load() + shed.load(), kTotal);
  EXPECT_EQ(popped.load(), accepted.load());
  // Spinning producers against a capacity-8 queue must shed; if this ever
  // reads 0 the queue stopped enforcing its bound.
  EXPECT_GT(shed.load(), 0);
  // A closed queue refuses new work explicitly.
  EXPECT_FALSE(queue.try_push(kTotal));
  int filed = 0;
  for (const auto& s : seen) filed += s.load();
  EXPECT_EQ(filed, accepted.load());
}
