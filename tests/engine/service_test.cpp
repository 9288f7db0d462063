// SimService tests (ISSUE 9): protocol dispatch (ping/stats/errors), grid
// execution with store-backed warm replies, request batching (identical
// specs in one batch run the engine once and get identical bytes), and a
// live Unix-socket round-trip through serveUnixSocket/requestOverSocket.
// The live-daemon tests below pin the grid worker: control requests are
// answered while a grid runs, requests queued meanwhile are group-committed,
// a drain answers running and queued grids, every input cap gets a typed
// error reply, and clients that hang up before their reply do not stall
// the poll loop.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/grid_spec.hpp"
#include "engine/service.hpp"
#include "support/fault.hpp"
#include "support/json_lite.hpp"
#include "uarch/core_model.hpp"

namespace riscmp::engine {
namespace {

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("riscmp-svc-" + tag + "-" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::string gridRequest(const GridSpec& spec) {
  support::JsonValue request = support::JsonValue::object();
  request.set("type", support::JsonValue("grid"));
  request.set("spec", gridSpecToJson(spec));
  return request.dump();
}

GridSpec smallSpec() {
  GridSpec spec;
  spec.scale = 0.02;
  spec.workloads = {"STREAM"};
  spec.configs = {{Arch::Rv64, kgen::CompilerEra::Gcc12}};
  spec.analyses = kPathLength;
  return spec;
}

std::string gridRequest() { return gridRequest(smallSpec()); }

/// A grid that keeps a one-job worker busy for seconds: the whole paper
/// suite at full scale with windowed CP.
std::string longGridRequest() {
  GridSpec spec;
  spec.analyses = kPathLength | kCriticalPath | kWindowedCP;
  return gridRequest(spec);
}

/// Set by a real signal on the daemon's poll thread, as simd's handler does.
volatile std::sig_atomic_t gStop = 0;
void onStopSignal(int) { gStop = 1; }

/// A daemon on a temporary socket, served from a background thread and
/// stopped by a shutdown request unless a test stopped it already.
class LiveDaemon {
 public:
  explicit LiveDaemon(const std::string& tag, ServiceOptions options = {})
      : dir_(tag), service_(std::move(options)) {
    socket_ = (dir_.path / "d.sock").string();
    gStop = 0;
    server_ = std::thread(
        [this] { code_ = serveUnixSocket(service_, socket_, &gStop, log_); });
    // The daemon creates the socket file at bind, before it listens.
    for (int i = 0; i < 500; ++i) {
      try {
        request(R"({"type":"ping"})");
        return;
      } catch (const ConfigError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
  ~LiveDaemon() {
    if (!server_.joinable()) return;
    try {
      request(R"({"type":"shutdown"})");
    } catch (const ConfigError&) {
      // Already gone.
    }
    server_.join();
  }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  support::JsonValue request(const std::string& line) const {
    return support::JsonValue::parse(requestOverSocket(socket_, line));
  }
  support::JsonValue stats() const { return request(R"({"type":"stats"})"); }
  /// Poll stats until `ready` holds (or about 60 s pass); false on timeout.
  bool waitFor(
      const std::function<bool(const support::JsonValue&)>& ready) const {
    for (int i = 0; i < 6000; ++i) {
      if (ready(stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }
  /// Deliver SIGUSR1 to the poll thread; its handler sets the stop flag.
  void signalStop() {
    struct sigaction action {};
    action.sa_handler = onStopSignal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGUSR1, &action, nullptr);
    ::pthread_kill(server_.native_handle(), SIGUSR1);
  }
  int join() {
    server_.join();
    return code_;
  }

  const std::string& socket() const { return socket_; }

 private:
  TempDir dir_;
  SimService service_;
  std::string socket_;
  std::ostringstream log_;
  int code_ = -1;
  std::thread server_;
};

/// A raw client connection, for requests requestOverSocket cannot make.
class RawClient {
 public:
  explicit RawClient(const std::string& path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }
  bool send(const std::string& bytes) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// Everything up to the first newline (or EOF).
  std::string readLine() const {
    std::string line;
    char c = 0;
    while (::read(fd_, &c, 1) == 1 && c != '\n') line.push_back(c);
    return line;
  }

 private:
  int fd_;
  bool connected_ = false;
};

void expectTypedError(const support::JsonValue& reply, const std::string& kind,
                      const std::string& key) {
  ASSERT_EQ(reply.at("type").asString(), "error") << reply.dump();
  EXPECT_EQ(reply.at("kind").asString(), kind) << reply.dump();
  EXPECT_EQ(reply.at("key").asString(), key) << reply.dump();
}

TEST(SimService, PingStatsAndErrors) {
  SimService service({});
  const support::JsonValue pong =
      support::JsonValue::parse(service.handleLine("{\"type\":\"ping\"}"));
  EXPECT_EQ(pong.at("type").asString(), "pong");
  EXPECT_EQ(pong.at("v").asUint(), kGridSpecV);

  const support::JsonValue err =
      support::JsonValue::parse(service.handleLine("not json"));
  EXPECT_EQ(err.at("type").asString(), "error");
  EXPECT_EQ(err.at("kind").asString(), "RequestError");

  const support::JsonValue unknown = support::JsonValue::parse(
      service.handleLine("{\"type\":\"frobnicate\"}"));
  expectTypedError(unknown, "RequestError", "type");

  const support::JsonValue stats =
      support::JsonValue::parse(service.handleLine("{\"type\":\"stats\"}"));
  EXPECT_EQ(stats.at("type").asString(), "stats");
  EXPECT_EQ(stats.at("requests").asUint(), 4u);
  EXPECT_EQ(stats.at("errors").asUint(), 2u);
  // Storeless daemon: the ResultStore counters exist and read zero.
  EXPECT_EQ(stats.at("store_misses").asUint(), 0u);
  EXPECT_EQ(stats.at("store_writes").asUint(), 0u);
  EXPECT_EQ(stats.at("store_corrupt").asUint(), 0u);
  EXPECT_EQ(stats.at("store_bytes_read").asUint(), 0u);
  EXPECT_EQ(stats.at("store_bytes_written").asUint(), 0u);
  // No transport, no worker: the queue gauges read zero.
  EXPECT_EQ(stats.at("queue_depth").asUint(), 0u);
  EXPECT_EQ(stats.at("in_flight").asUint(), 0u);
}

TEST(SimService, GridRunsAndWarmRepliesComeFromStore) {
  TempDir dir("store");
  ServiceOptions options;
  options.jobs = 1;
  options.storeRoot = (dir.path / "store").string();
  SimService service(options);

  const support::JsonValue cold =
      support::JsonValue::parse(service.handleLine(gridRequest()));
  ASSERT_EQ(cold.at("type").asString(), "grid");
  EXPECT_EQ(cold.at("workloads").asUint(), 1u);
  EXPECT_EQ(cold.at("configs").asUint(), 1u);
  EXPECT_EQ(cold.at("cells").items().size(), 1u);
  EXPECT_EQ(cold.at("stats").at("simulations").asUint(), 1u);
  EXPECT_EQ(cold.at("stats").at("store_hits").asUint(), 0u);

  const support::JsonValue warm =
      support::JsonValue::parse(service.handleLine(gridRequest()));
  EXPECT_EQ(warm.at("stats").at("simulations").asUint(), 0u);
  EXPECT_EQ(warm.at("stats").at("store_hits").asUint(), 1u);
  // The payload (everything but the per-request stats) is byte-identical.
  EXPECT_EQ(cold.at("cells").dump(), warm.at("cells").dump());
  EXPECT_EQ(cold.at("fingerprint").asString(),
            warm.at("fingerprint").asString());

  EXPECT_EQ(service.totals().grids, 2u);
  EXPECT_EQ(service.totals().simulations, 1u);
  EXPECT_EQ(service.totals().storeHits, 1u);

  // The stats reply surfaces the store's own lifetime counters (ISSUE 10
  // satellite): the cold run missed once and wrote its cell, the warm run
  // read those bytes back.
  const support::JsonValue stats =
      support::JsonValue::parse(service.handleLine("{\"type\":\"stats\"}"));
  EXPECT_EQ(stats.at("store_misses").asUint(), 1u);
  EXPECT_EQ(stats.at("store_writes").asUint(), 1u);
  EXPECT_EQ(stats.at("store_corrupt").asUint(), 0u);
  EXPECT_GT(stats.at("store_bytes_written").asUint(), 0u);
  EXPECT_GT(stats.at("store_bytes_read").asUint(), 0u);
  EXPECT_EQ(stats.at("store_hits").asUint(), 1u);
}

TEST(SimService, IdenticalRequestsInOneBatchRunOnce) {
  SimService service({});
  const std::vector<std::string> batch = {gridRequest(), gridRequest()};
  const std::vector<std::string> responses = service.handleBatch(batch);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0], responses[1]);  // same grid -> same bytes
  const support::JsonValue doc = support::JsonValue::parse(responses[0]);
  ASSERT_EQ(doc.at("type").asString(), "grid");
  EXPECT_EQ(doc.at("stats").at("batched").asUint(), 1u);
  // One engine run for the pair, even without a result store.
  EXPECT_EQ(service.totals().simulations, 1u);
  EXPECT_EQ(service.totals().batched, 1u);
  EXPECT_EQ(service.totals().cells, 2u);
}

TEST(SimService, BrokenSpecInBatchDoesNotPoisonOthers) {
  SimService service({});
  const std::vector<std::string> batch = {
      "{\"type\":\"grid\",\"spec\":{\"v\":99}}", gridRequest()};
  const std::vector<std::string> responses = service.handleBatch(batch);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(support::JsonValue::parse(responses[0]).at("type").asString(),
            "error");
  EXPECT_EQ(support::JsonValue::parse(responses[1]).at("type").asString(),
            "grid");
}

TEST(SimService, SocketRoundTripAndShutdownDrain) {
  TempDir dir("sock");
  const std::string socketPath = (dir.path / "d.sock").string();
  SimService service({});
  volatile std::sig_atomic_t stop = 0;
  std::ostringstream log;
  std::thread server([&] { serveUnixSocket(service, socketPath, &stop, log); });

  // Wait for the listener (the daemon logs after bind+listen).
  for (int i = 0; i < 200 && !std::filesystem::exists(socketPath); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const support::JsonValue pong = support::JsonValue::parse(
      requestOverSocket(socketPath, "{\"type\":\"ping\"}"));
  EXPECT_EQ(pong.at("type").asString(), "pong");

  const support::JsonValue grid = support::JsonValue::parse(
      requestOverSocket(socketPath, gridRequest()));
  EXPECT_EQ(grid.at("type").asString(), "grid");

  const support::JsonValue ack = support::JsonValue::parse(
      requestOverSocket(socketPath, "{\"type\":\"shutdown\"}"));
  EXPECT_EQ(ack.at("type").asString(), "shutdown");
  server.join();
  EXPECT_FALSE(std::filesystem::exists(socketPath));  // unlinked on drain
  EXPECT_THROW(requestOverSocket(socketPath, "{\"type\":\"ping\"}"),
               ConfigError);
}

TEST(SimService, PingAnsweredAndGroupCommitWhileGridRuns) {
  ServiceOptions options;
  options.jobs = 1;
  LiveDaemon daemon("busy", options);

  support::JsonValue longReply;
  std::thread longClient(
      [&] { longReply = daemon.request(longGridRequest()); });
  EXPECT_TRUE(daemon.waitFor([](const support::JsonValue& stats) {
    return stats.at("in_flight").asUint() == 1;
  }));

  // The poll thread answers control requests while the worker is busy.
  const auto start = std::chrono::steady_clock::now();
  const support::JsonValue pong = daemon.request(R"({"type":"ping"})");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(pong.at("type").asString(), "pong");
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));

  // K identical requests queued behind the running grid form one batch.
  constexpr std::size_t kClients = 4;
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> clients;
  for (std::size_t k = 0; k < kClients; ++k) {
    clients.emplace_back([&, k] {
      replies[k] = requestOverSocket(daemon.socket(), gridRequest());
    });
  }
  EXPECT_TRUE(daemon.waitFor([&](const support::JsonValue& stats) {
    return stats.at("queue_depth").asUint() == kClients;
  }));
  for (std::thread& client : clients) client.join();
  longClient.join();

  EXPECT_EQ(longReply.at("type").asString(), "grid");
  EXPECT_TRUE(longReply.at("ok").asBool());
  for (const std::string& reply : replies) EXPECT_EQ(reply, replies.front());
  const support::JsonValue grid = support::JsonValue::parse(replies.front());
  ASSERT_EQ(grid.at("type").asString(), "grid");
  EXPECT_EQ(grid.at("stats").at("batched").asUint(), kClients - 1);
  const support::JsonValue stats = daemon.stats();
  EXPECT_EQ(stats.at("grids").asUint(), 2u);  // the long grid + one run
  EXPECT_EQ(stats.at("batched").asUint(), kClients - 1);
  EXPECT_EQ(stats.at("queue_depth").asUint(), 0u);
  EXPECT_EQ(stats.at("in_flight").asUint(), 0u);
}

/// Start a long grid, queue a short one behind it, then `stop` the daemon:
/// both grids must still be answered before the socket goes away.
void drainDuringGrid(const std::string& tag,
                     const std::function<void(LiveDaemon&)>& stop) {
  ServiceOptions options;
  options.jobs = 1;
  LiveDaemon daemon(tag, options);

  std::string longReply;
  std::string queuedReply;
  std::thread longClient([&] {
    longReply = requestOverSocket(daemon.socket(), longGridRequest());
  });
  EXPECT_TRUE(daemon.waitFor([](const support::JsonValue& stats) {
    return stats.at("in_flight").asUint() == 1;
  }));
  std::thread queuedClient([&] {
    queuedReply = requestOverSocket(daemon.socket(), gridRequest());
  });
  EXPECT_TRUE(daemon.waitFor([](const support::JsonValue& stats) {
    return stats.at("queue_depth").asUint() == 1;
  }));

  stop(daemon);
  EXPECT_EQ(daemon.join(), 0);
  longClient.join();
  queuedClient.join();
  EXPECT_EQ(support::JsonValue::parse(longReply).at("type").asString(),
            "grid");
  EXPECT_EQ(support::JsonValue::parse(queuedReply).at("type").asString(),
            "grid");
  EXPECT_FALSE(std::filesystem::exists(daemon.socket()));
}

TEST(SimService, ShutdownDuringGridAnswersRunningAndQueued) {
  drainDuringGrid("shutdown", [](LiveDaemon& daemon) {
    const support::JsonValue ack = daemon.request(R"({"type":"shutdown"})");
    EXPECT_EQ(ack.at("type").asString(), "shutdown");
  });
}

TEST(SimService, StopFlagDuringGridAnswersRunningAndQueued) {
  drainDuringGrid("stop", [](LiveDaemon& daemon) { daemon.signalStop(); });
}

TEST(SimService, BoundedInputsGetTypedErrors) {
  LiveDaemon daemon("limits");

  {
    // A line over the cap with no newline is refused once the cap is hit.
    RawClient client(daemon.socket());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send(std::string(kMaxRequestBytes + 1, 'x')));
    expectTypedError(support::JsonValue::parse(client.readLine()),
                     "RequestError", "line");
  }

  GridSpec huge = smallSpec();
  huge.scale = 1e9;
  expectTypedError(daemon.request(gridRequest(huge)), "ConfigError", "scale");

  GridSpec foreign = smallSpec();
  foreign.configDir = "/";
  expectTypedError(daemon.request(gridRequest(foreign)), "ConfigError",
                   "config_dir");

  {
    // One connection over the cap is answered with an error and closed.
    std::vector<std::unique_ptr<RawClient>> held;
    for (std::size_t i = 0; i < kMaxConnections; ++i) {
      held.push_back(std::make_unique<RawClient>(daemon.socket()));
      ASSERT_TRUE(held.back()->connected());
    }
    expectTypedError(daemon.request(R"({"type":"ping"})"), "RequestError",
                     "connections");
  }

  // The daemon keeps serving, and counted every refusal.
  EXPECT_TRUE(daemon.waitFor([](const support::JsonValue& stats) {
    return stats.at("errors").asUint() == 4;
  }));
  EXPECT_EQ(daemon.request(R"({"type":"ping"})").at("type").asString(),
            "pong");
  // The daemon's own configs directory, spelled out, is accepted.
  GridSpec own = smallSpec();
  own.configDir = uarch::configDir() + "/.";
  EXPECT_EQ(daemon.request(gridRequest(own)).at("type").asString(), "grid");
}

TEST(SimService, IdleConnectionsExpire) {
  LiveDaemon daemon("idle");
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<RawClient>> held;
  for (std::size_t i = 0; i < kMaxConnections; ++i) {
    held.push_back(std::make_unique<RawClient>(daemon.socket()));
    ASSERT_TRUE(held.back()->connected());
  }
  // Half a request line does not count as a request.
  ASSERT_TRUE(held.front()->send(R"({"type":)"));

  // While every slot is held, the daemon refuses new clients...
  expectTypedError(daemon.request(R"({"type":"ping"})"), "RequestError",
                   "connections");
  // ...until the held connections pass their deadline and are refused.
  support::JsonValue reply;
  for (int i = 0; i < 600; ++i) {
    reply = daemon.request(R"({"type":"ping"})");
    if (reply.at("type").asString() == "pong") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(reply.at("type").asString(), "pong") << reply.dump();
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(kRequestDeadlineMs));
  for (const std::unique_ptr<RawClient>& client : held) {
    expectTypedError(support::JsonValue::parse(client->readLine()),
                     "RequestError", "deadline");
  }
}

TEST(SimService, ClientsThatHangUpEarlyDoNotStallTheDaemon) {
  LiveDaemon daemon("hangup");
  // Each client sends a complete request and closes before its reply.
  for (const std::string& line : {std::string(R"({"type":"ping"})"),
                                  gridRequest(), std::string("not json")}) {
    RawClient client(daemon.socket());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send(line + "\n"));
  }
  EXPECT_EQ(daemon.request(R"({"type":"ping"})").at("type").asString(),
            "pong");
  EXPECT_TRUE(daemon.waitFor([](const support::JsonValue& stats) {
    return stats.at("grids").asUint() == 1 &&
           stats.at("in_flight").asUint() == 0;
  }));
}

TEST(SimService, RepeatedSpecsReplyWithTheSameBytes) {
  TempDir dir("memo");
  ServiceOptions options;
  options.jobs = 1;
  options.storeRoot = (dir.path / "store").string();
  SimService service(options);

  const std::string cold = service.handleLine(gridRequest());
  const std::string warm = service.handleLine(gridRequest());
  EXPECT_EQ(service.handleLine(gridRequest()), warm);
  EXPECT_EQ(support::JsonValue::parse(cold).at("cells").dump(),
            support::JsonValue::parse(warm).at("cells").dump());

  // More distinct specs than the memo holds evict the first one; it
  // resolves again to the same keys, so the store still serves it.
  for (std::uint64_t budget = 1; budget <= 16; ++budget) {
    GridSpec spec = smallSpec();
    spec.budget = kDefaultInstructionBudget - budget;
    const support::JsonValue reply =
        support::JsonValue::parse(service.handleLine(gridRequest(spec)));
    ASSERT_EQ(reply.at("type").asString(), "grid");
  }
  EXPECT_EQ(service.handleLine(gridRequest()), warm);
}

}  // namespace
}  // namespace riscmp::engine
