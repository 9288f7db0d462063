#include "engine/service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "engine/cell_codec.hpp"
#include "engine/grid_spec.hpp"
#include "engine/result_store.hpp"
#include "support/fault.hpp"
#include "uarch/core_model.hpp"

namespace riscmp::engine {

namespace {

/// Resolved specs the daemon keeps. Warm traffic repeats a few specs, while
/// every cold request (a fresh budget) adds one that may never repeat. An
/// entry holds its suite's modules (about 90 KB for three workloads at
/// scale 0.05), so the cap is small.
constexpr std::size_t kResolveMemoEntries = 4;

std::string errorResponse(std::string_view kind, const std::string& message,
                          const std::string& key = {}) {
  support::JsonValue doc = support::JsonValue::object();
  doc.set("type", support::JsonValue("error"));
  doc.set("kind", support::JsonValue(std::string(kind)));
  doc.set("message", support::JsonValue(message));
  if (!key.empty()) doc.set("key", support::JsonValue(key));
  return doc.dump();
}

std::string faultResponse(const Fault& fault) {
  const auto* config = dynamic_cast<const ConfigError*>(&fault);
  return errorResponse(faultKindName(fault.kind()), fault.what(),
                       config != nullptr ? config->key() : std::string());
}

std::string canonicalDir(const std::string& dir) {
  std::error_code error;
  const std::filesystem::path path = std::filesystem::canonical(dir, error);
  return error ? std::string() : path.string();
}

}  // namespace

SimService::SimService(ServiceOptions options)
    : options_(std::move(options)),
      configDir_(canonicalDir(uarch::configDir())) {
  if (!options_.storeRoot.empty()) {
    store_ = std::make_shared<ResultStore>(options_.storeRoot);
  }
}

SimService::~SimService() = default;

std::string SimService::handleLine(const std::string& request) {
  return handleBatch({request}).front();
}

std::vector<std::string> SimService::handleBatch(
    const std::vector<std::string>& requests) {
  std::vector<std::string> responses(requests.size());
  std::vector<std::size_t> gridLines;
  std::vector<support::JsonValue> grids;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    support::JsonValue grid;
    if (std::optional<std::string> reply = answerOrDefer(requests[i], &grid)) {
      responses[i] = std::move(*reply);
    } else {
      gridLines.push_back(i);
      grids.push_back(std::move(grid));
    }
  }
  if (!grids.empty()) {
    std::vector<std::string> replies = runGrids(grids);
    for (std::size_t g = 0; g < gridLines.size(); ++g) {
      responses[gridLines[g]] = std::move(replies[g]);
    }
  }
  return responses;
}

ServiceTotals SimService::snapshotLocked() const {
  ServiceTotals snapshot = totals_;
  snapshot.queueDepth = queue_.size();
  snapshot.inFlight = inFlight_;
  return snapshot;
}

ServiceTotals SimService::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return snapshotLocked();
}

ServiceTotals SimService::count(std::uint64_t requests,
                                std::uint64_t errors) {
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_.requests += requests;
  totals_.errors += errors;
  return snapshotLocked();
}

std::string SimService::reject(const std::string& key,
                               const std::string& message) {
  count(1, 1);
  return errorResponse("RequestError", message, key);
}

std::optional<std::string> SimService::answerOrDefer(
    const std::string& request, support::JsonValue* grid) {
  std::optional<support::JsonValue> doc =
      support::JsonValue::tryParse(request);
  if (!doc || doc->kind() != support::JsonValue::Kind::Object ||
      !doc->has("type")) {
    return reject("", "malformed request (want a JSON object with a "
                      "\"type\" field)");
  }
  if (doc->at("type").kind() != support::JsonValue::Kind::String) {
    return reject("type", "malformed request: \"type\" must be a string");
  }
  const std::string type = doc->at("type").asString();
  if (type == "ping") {
    count(1, 0);
    support::JsonValue pong = support::JsonValue::object();
    pong.set("type", support::JsonValue("pong"));
    pong.set("v", support::JsonValue(kGridSpecV));
    return pong.dump();
  }
  if (type == "stats") {
    const ServiceTotals totals = count(1, 0);
    support::JsonValue stats = support::JsonValue::object();
    stats.set("type", support::JsonValue("stats"));
    stats.set("requests", support::JsonValue(totals.requests));
    stats.set("errors", support::JsonValue(totals.errors));
    stats.set("grids", support::JsonValue(totals.grids));
    stats.set("batched", support::JsonValue(totals.batched));
    stats.set("cells", support::JsonValue(totals.cells));
    stats.set("store_hits", support::JsonValue(totals.storeHits));
    stats.set("compiles", support::JsonValue(totals.compiles));
    stats.set("compile_hits", support::JsonValue(totals.compileHits));
    stats.set("simulations", support::JsonValue(totals.simulations));
    stats.set("queue_depth", support::JsonValue(totals.queueDepth));
    stats.set("in_flight", support::JsonValue(totals.inFlight));
    // ResultStore effectiveness: lifetime counters from the daemon's
    // store, so sim_client --stats shows hit/miss/byte traffic alongside
    // the engine compile/sim counts. All zeros without --store.
    stats.set("store_misses",
              support::JsonValue(store_ ? store_->misses() : 0));
    stats.set("store_writes",
              support::JsonValue(store_ ? store_->writes() : 0));
    stats.set("store_corrupt",
              support::JsonValue(store_ ? store_->corrupt() : 0));
    stats.set("store_bytes_read",
              support::JsonValue(store_ ? store_->bytesRead() : 0));
    stats.set("store_bytes_written",
              support::JsonValue(store_ ? store_->bytesWritten() : 0));
    return stats.dump();
  }
  if (type == "shutdown") {
    count(1, 0);
    shutdown_ = true;
    support::JsonValue ack = support::JsonValue::object();
    ack.set("type", support::JsonValue("shutdown"));
    ack.set("ok", support::JsonValue(true));
    return ack.dump();
  }
  if (type == "grid") {
    count(1, 0);
    *grid = std::move(*doc);
    return std::nullopt;
  }
  return reject("type", "unknown request type '" + type + "'");
}

void SimService::admit(const GridSpec& spec) const {
  if (spec.scale > kMaxRemoteScale) {
    throw ConfigError("grid spec: scale " + std::to_string(spec.scale) +
                          " exceeds the daemon's limit of " +
                          std::to_string(kMaxRemoteScale),
                      {}, 0, "scale");
  }
  if (!spec.configDir.empty() &&
      (configDir_.empty() || canonicalDir(spec.configDir) != configDir_)) {
    throw ConfigError("grid spec: config_dir must be empty or the daemon's "
                      "own configs directory (" +
                          uarch::configDir() + ")",
                      {}, 0, "config_dir");
  }
}

std::shared_ptr<const ResolvedGrid> SimService::resolve(const GridSpec& spec) {
  std::string key = gridSpecToJson(spec).dump();
  for (auto entry = memo_.begin(); entry != memo_.end(); ++entry) {
    if (entry->first == key) {
      std::rotate(entry, entry + 1, memo_.end());  // now most recent
      return memo_.back().second;
    }
  }
  EngineOptions base;
  base.jobs = options_.jobs;
  base.resultStore = store_;
  auto resolved =
      std::make_shared<const ResolvedGrid>(resolveGridSpec(spec, base));
  if (memo_.size() == kResolveMemoEntries) memo_.erase(memo_.begin());
  memo_.emplace_back(std::move(key), resolved);
  return resolved;
}

std::vector<std::string> SimService::runGrids(
    const std::vector<support::JsonValue>& requests) {
  const std::lock_guard<std::mutex> serial(gridMutex_);
  std::vector<std::string> responses(requests.size());

  // Resolve every grid request first so identical specs can share a run.
  struct Parsed {
    std::size_t index = 0;
    std::shared_ptr<const ResolvedGrid> resolved;
  };
  std::vector<Parsed> parsed;
  std::uint64_t refused = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    try {
      const GridSpec spec = gridSpecFromJson(requests[i].at("spec"));
      admit(spec);
      parsed.push_back({i, resolve(spec)});
    } catch (const Fault& fault) {
      refused += 1;
      responses[i] = faultResponse(fault);
    }
  }
  if (refused != 0) count(0, refused);

  // FIFO by first appearance: each unique fingerprint runs once and every
  // requester in the group receives the exact same response bytes.
  std::vector<std::vector<std::size_t>> groups;  // indices into `parsed`
  for (std::size_t p = 0; p < parsed.size(); ++p) {
    const auto group =
        std::find_if(groups.begin(), groups.end(), [&](const auto& members) {
          return parsed[members.front()].resolved->fingerprint ==
                 parsed[p].resolved->fingerprint;
        });
    if (group != groups.end()) {
      group->push_back(p);
    } else {
      groups.push_back({p});
    }
  }

  for (const std::vector<std::size_t>& group : groups) {
    const ResolvedGrid& leader = *parsed[group.front()].resolved;
    const std::uint64_t batched = group.size() - 1;
    const std::uint64_t compilesBefore = cache_.compiles();
    const std::uint64_t hitsBefore = cache_.hits();

    std::string response;
    try {
      ExperimentEngine engine(leader.options, &cache_);
      const GridResult grid = engine.runGrid(leader.suite, leader.configs);
      const EngineStats stats = engine.stats();
      const std::uint64_t compiles = cache_.compiles() - compilesBefore;
      const std::uint64_t compileHits = cache_.hits() - hitsBefore;

      support::JsonValue cells = support::JsonValue::array();
      for (const CellResult& cell : grid.cells) cells.push(encodeCell(cell));

      support::JsonValue delta = support::JsonValue::object();
      delta.set("cells",
                support::JsonValue(
                    static_cast<std::uint64_t>(grid.cells.size())));
      delta.set("store_hits", support::JsonValue(stats.storeHits));
      delta.set("compiles", support::JsonValue(compiles));
      delta.set("compile_hits", support::JsonValue(compileHits));
      delta.set("simulations", support::JsonValue(stats.simulations));
      delta.set("batched", support::JsonValue(batched));

      support::JsonValue doc = support::JsonValue::object();
      doc.set("type", support::JsonValue("grid"));
      doc.set("v", support::JsonValue(kGridSpecV));
      doc.set("ok", support::JsonValue(!grid.anyFailed()));
      doc.set("fingerprint", support::JsonValue(leader.fingerprint));
      doc.set("workloads",
              support::JsonValue(
                  static_cast<std::uint64_t>(grid.workloadCount)));
      doc.set("configs", support::JsonValue(
                             static_cast<std::uint64_t>(grid.configCount)));
      doc.set("cells", std::move(cells));
      doc.set("stats", std::move(delta));
      response = doc.dump();

      const std::lock_guard<std::mutex> lock(mutex_);
      totals_.grids += 1;
      totals_.batched += batched;
      totals_.cells += grid.cells.size() * group.size();
      totals_.storeHits += stats.storeHits;
      totals_.compiles += compiles;
      totals_.compileHits += compileHits;
      totals_.simulations += stats.simulations;
    } catch (const Fault& fault) {
      count(0, group.size());
      response = faultResponse(fault);
    }
    for (const std::size_t p : group) responses[parsed[p].index] = response;
  }
  return responses;
}

// ---------------------------------------------------------------------------
// The grid worker: one thread draining the queue in group commits.
// ---------------------------------------------------------------------------

class SimService::Worker {
 public:
  /// Start the worker thread with SIGTERM/SIGINT blocked, so those signals
  /// interrupt the poll thread instead.
  explicit Worker(SimService& service) : service_(service) {
    if (::pipe2(wake_, O_NONBLOCK | O_CLOEXEC) != 0) {
      throw std::runtime_error(std::string("pipe2(): ") +
                               std::strerror(errno));
    }
    sigset_t blocked;
    sigset_t previous;
    sigemptyset(&blocked);
    sigaddset(&blocked, SIGTERM);
    sigaddset(&blocked, SIGINT);
    ::pthread_sigmask(SIG_BLOCK, &blocked, &previous);
    try {
      thread_ = std::thread([this] { run(); });
    } catch (...) {
      ::pthread_sigmask(SIG_SETMASK, &previous, nullptr);
      closePipe();
      throw;
    }
    ::pthread_sigmask(SIG_SETMASK, &previous, nullptr);
  }

  /// Let the worker finish the running and queued batches, then join it.
  ~Worker() {
    {
      const std::lock_guard<std::mutex> lock(service_.mutex_);
      service_.closing_ = true;
    }
    service_.queued_.notify_one();
    thread_.join();
    closePipe();
  }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Readable whenever replies are waiting in takeReplies().
  [[nodiscard]] int wakeFd() const { return wake_[0]; }

  void submit(std::uint64_t ticket, support::JsonValue request) {
    {
      const std::lock_guard<std::mutex> lock(service_.mutex_);
      service_.queue_.push_back({ticket, std::move(request)});
    }
    service_.queued_.notify_one();
  }

  std::vector<std::pair<std::uint64_t, std::string>> takeReplies() {
    char sink[64];
    while (::read(wake_[0], sink, sizeof(sink)) > 0) {
    }
    std::vector<std::pair<std::uint64_t, std::string>> replies;
    const std::lock_guard<std::mutex> lock(service_.mutex_);
    replies.swap(service_.replies_);
    return replies;
  }

 private:
  void run() {
    for (;;) {
      std::vector<Queued> batch;
      {
        std::unique_lock<std::mutex> lock(service_.mutex_);
        service_.queued_.wait(lock, [this] {
          return !service_.queue_.empty() || service_.closing_;
        });
        if (service_.queue_.empty()) return;  // closing, nothing left
        batch.swap(service_.queue_);  // the group commit
        service_.inFlight_ = batch.size();
      }
      std::vector<support::JsonValue> requests;
      requests.reserve(batch.size());
      for (Queued& queued : batch) {
        requests.push_back(std::move(queued.request));
      }
      std::vector<std::string> replies;
      try {
        replies = service_.runGrids(requests);
      } catch (const std::exception& error) {
        // Not a Fault (those become per-group replies): say so to every
        // requester of the batch rather than leaving them unanswered.
        service_.count(0, batch.size());
        replies.assign(batch.size(),
                       errorResponse("InternalError", error.what()));
      }
      {
        const std::lock_guard<std::mutex> lock(service_.mutex_);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          service_.replies_.emplace_back(batch[i].ticket,
                                         std::move(replies[i]));
        }
        service_.inFlight_ = 0;
      }
      const char byte = 1;
      // A full pipe already guarantees a wake-up; nothing else can fail.
      [[maybe_unused]] const ssize_t n = ::write(wake_[1], &byte, 1);
    }
  }

  void closePipe() {
    ::close(wake_[0]);
    ::close(wake_[1]);
  }

  SimService& service_;
  int wake_[2] = {-1, -1};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Unix-domain socket transport.
// ---------------------------------------------------------------------------

namespace {

/// How long poll(2) sleeps with nothing to do. Replies wake the loop
/// through the worker's pipe and signals interrupt it, so this only bounds
/// how late a stop flag set without a signal, or a request deadline, is
/// noticed.
constexpr int kIdlePollMs = 200;

using Clock = std::chrono::steady_clock;

struct Conn {
  int fd = -1;
  Clock::time_point deadline;  ///< the request line must be complete by now
  std::string in;
  bool complete = false;  ///< `in` holds one full request line (or too much)
  bool queued = false;    ///< waiting for the grid worker's reply `ticket`
  std::uint64_t ticket = 0;
  std::string out;
  std::size_t sent = 0;
  bool answered = false;
};

/// Read until the first newline, or until the line is over the cap (then
/// `in` keeps more than kMaxRequestBytes and the caller refuses it). False
/// on a hard error or an EOF before a complete line.
bool readSome(Conn& conn) {
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
    if (n > 0) {
      const std::size_t scanned = conn.in.size();
      conn.in.append(buffer, static_cast<std::size_t>(n));
      const std::size_t newline = conn.in.find('\n', scanned);
      if (newline != std::string::npos) conn.in.resize(newline);
      if (newline != std::string::npos ||
          conn.in.size() > kMaxRequestBytes) {
        conn.complete = true;
        return true;
      }
      continue;
    }
    if (n == 0) return conn.complete;  // EOF: dead unless already complete
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

/// Flush as much of conn.out as the socket accepts; false on hard error
/// (a client that hung up raises EPIPE, never SIGPIPE).
bool writeSome(Conn& conn) {
  while (conn.sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.sent,
                             conn.out.size() - conn.sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void answer(Conn& conn, std::string reply) {
  conn.out = std::move(reply) + "\n";
  conn.sent = 0;
  conn.answered = true;
  conn.queued = false;
}

}  // namespace

int serveUnixSocket(SimService& service, const std::string& socketPath,
                    const volatile std::sig_atomic_t* stopFlag,
                    std::ostream& log) {
  sockaddr_un addr{};
  if (socketPath.size() >= sizeof(addr.sun_path)) {
    log << "simd: socket path too long (" << socketPath.size() << " > "
        << sizeof(addr.sun_path) - 1 << " bytes): " << socketPath << "\n";
    return 2;
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    log << "simd: socket(): " << std::strerror(errno) << "\n";
    return 1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  ::unlink(socketPath.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 64) != 0) {
    log << "simd: cannot listen on " << socketPath << ": "
        << std::strerror(errno) << "\n";
    ::close(listener);
    return 1;
  }
  setNonBlocking(listener);

  std::vector<Conn> conns;
  {
    std::optional<SimService::Worker> worker;
    try {
      worker.emplace(service);
    } catch (const std::exception& error) {
      log << "simd: cannot start the grid worker: " << error.what() << "\n";
      ::close(listener);
      ::unlink(socketPath.c_str());
      return 1;
    }
    log << "simd: listening on " << socketPath << std::endl;

    std::uint64_t nextTicket = 0;
    bool draining = false;
    for (;;) {
      if (!draining && ((stopFlag != nullptr && *stopFlag != 0) ||
                        service.shutdownRequested())) {
        draining = true;  // stop accepting; answer what is already read
      }

      // A connection that has not completed its request line by its
      // deadline is refused, which frees its slot. Connections waiting on
      // the grid worker, or being answered, already have a complete line.
      const Clock::time_point now = Clock::now();
      for (Conn& conn : conns) {
        if (conn.complete || now < conn.deadline) continue;
        conn.complete = true;
        conn.in = std::string();
        answer(conn, service.reject(
                         "deadline", "no complete request line within " +
                                         std::to_string(kRequestDeadlineMs) +
                                         " ms of connecting"));
      }

      bool pending = false;  // a reply still owed or not yet fully sent
      std::vector<pollfd> fds;
      fds.push_back(pollfd{worker->wakeFd(), POLLIN, 0});
      if (!draining) fds.push_back(pollfd{listener, POLLIN, 0});
      const std::size_t firstConn = fds.size();
      for (const Conn& conn : conns) {
        short events = 0;
        if (!conn.complete) events |= POLLIN;
        if (conn.answered && conn.sent < conn.out.size()) events |= POLLOUT;
        pending = pending || conn.queued || (events & POLLOUT) != 0;
        fds.push_back(pollfd{conn.fd, events, 0});
      }
      if (draining && !pending) break;

      const int ready = ::poll(fds.data(), fds.size(), kIdlePollMs);
      if (ready < 0 && errno != EINTR) {
        log << "simd: poll(): " << std::strerror(errno) << "\n";
        break;
      }
      if (ready <= 0) continue;

      if ((fds[0].revents & POLLIN) != 0) {
        for (auto& [ticket, reply] : worker->takeReplies()) {
          for (Conn& conn : conns) {
            if (conn.queued && conn.ticket == ticket) {
              answer(conn, std::move(reply));
              break;
            }
          }  // no match: that client hung up while its grid ran
        }
      }

      const std::size_t polled = conns.size();
      for (std::size_t i = 0; i < polled; ++i) {
        Conn& conn = conns[i];
        const short revents = fds[firstConn + i].revents;
        if (conn.complete) {
          // POLLHUP/POLLERR on a read-finished connection: the client is
          // gone, so stop owing it a reply (and stop polling it).
          if ((revents & (POLLHUP | POLLERR)) != 0 && !conn.answered) {
            ::close(conn.fd);
            conn.fd = -1;
          }
          continue;
        }
        if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (!readSome(conn)) {
          ::close(conn.fd);
          conn.fd = -1;
          continue;
        }
        if (!conn.complete) continue;
        if (conn.in.size() > kMaxRequestBytes) {
          answer(conn, service.reject(
                           "line", "request line longer than " +
                                       std::to_string(kMaxRequestBytes) +
                                       " bytes"));
        } else {
          support::JsonValue grid;
          if (std::optional<std::string> reply =
                  service.answerOrDefer(conn.in, &grid)) {
            answer(conn, std::move(*reply));
          } else {
            conn.queued = true;
            conn.ticket = nextTicket++;
            worker->submit(conn.ticket, std::move(grid));
          }
        }
        conn.in = std::string();
      }

      // Accept after reading, so connections that just hung up no longer
      // count against the limit.
      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const Conn& c) { return c.fd < 0; }),
                  conns.end());
      if (!draining && (fds[1].revents & POLLIN) != 0) {
        for (;;) {
          const int fd = ::accept(listener, nullptr, nullptr);
          if (fd < 0) break;
          setNonBlocking(fd);
          if (conns.size() >= kMaxConnections) {
            const std::string reply =
                service.reject("connections",
                               "too many connections (limit " +
                                   std::to_string(kMaxConnections) + ")") +
                "\n";
            // Best effort: a fresh socket's buffer holds one short line.
            [[maybe_unused]] const ssize_t n =
                ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
            ::close(fd);
            break;  // poll again: held connections may have hung up since
          }
          Conn conn;
          conn.fd = fd;
          conn.deadline =
              Clock::now() + std::chrono::milliseconds(kRequestDeadlineMs);
          conns.push_back(std::move(conn));
        }
      }

      // Write every reply as soon as it exists; a connection is done once
      // its one reply is fully sent.
      for (Conn& conn : conns) {
        if (conn.fd < 0 || !conn.answered) continue;
        if (!writeSome(conn) || conn.sent == conn.out.size()) {
          ::close(conn.fd);
          conn.fd = -1;
        }
      }
      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const Conn& c) { return c.fd < 0; }),
                  conns.end());
    }
  }  // the worker finishes anything still running and is joined here

  for (const Conn& conn : conns) ::close(conn.fd);
  ::close(listener);
  ::unlink(socketPath.c_str());
  log << "simd: drained, shutting down" << std::endl;
  return 0;
}

std::string requestOverSocket(const std::string& socketPath,
                              const std::string& requestLine) {
  sockaddr_un addr{};
  if (socketPath.size() >= sizeof(addr.sun_path)) {
    throw ConfigError("socket path too long: " + socketPath);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw ConfigError(std::string("socket(): ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    throw ConfigError("cannot connect to " + socketPath + ": " + detail);
  }

  // A daemon that refuses the request (say, over its connection limit)
  // may reply and close before the write ends; its reply is still read.
  const std::string payload = requestLine + "\n";
  std::size_t sent = 0;
  bool writeFailed = false;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent,
                             payload.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      writeFailed = true;
      break;
    }
    sent += static_cast<std::size_t>(n);
  }

  std::string reply;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && writeFailed) break;
    if (n < 0) {
      ::close(fd);
      throw ConfigError("read from " + socketPath + " failed");
    }
    if (n == 0) break;
    reply.append(buffer, static_cast<std::size_t>(n));
    const std::size_t newline = reply.find('\n');
    if (newline != std::string::npos) {
      reply.resize(newline);
      ::close(fd);
      return reply;
    }
  }
  ::close(fd);
  if (writeFailed) throw ConfigError("write to " + socketPath + " failed");
  if (reply.empty()) {
    throw ConfigError("no response from " + socketPath +
                      " (daemon gone?)");
  }
  return reply;
}

}  // namespace riscmp::engine
