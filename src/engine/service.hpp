// Simulation-as-a-service daemon core (ISSUE 9, layer 3).
//
// The `simd` daemon keeps one process alive across many grid requests so
// the two memoization layers below it actually amortize: a shared
// CompileCache (kernels compile once per daemon lifetime, not once per
// bench invocation) and an optional shared ResultStore (cells simulate
// once per store lifetime, across daemons and local runs alike). The
// service core here is transport-free and unit-testable: handleBatch()
// maps request lines to response lines; serveUnixSocket() is the thin
// poll(2) loop that feeds it from a Unix-domain stream socket.
//
// Protocol: line-delimited JSON (json_lite), one request per connection,
// one response line back. Requests:
//   {"type":"ping"}                     -> {"type":"pong","v":1}
//   {"type":"stats"}                    -> {"type":"stats", ...totals}
//   {"type":"shutdown"}                 -> {"type":"shutdown","ok":true},
//                                          then the daemon drains and exits
//   {"type":"grid","spec":{GridSpec}}   -> {"type":"grid","ok":...,
//                                           "cells":[cell_codec...],
//                                           "stats":{request deltas}}
// Anything else (or malformed JSON, or a spec that fails to resolve or is
// refused) gets {"type":"error","kind":...,"message":...[,"key":...]}:
// `kind` is the fault class ("ConfigError" for a refused or unresolvable
// spec, "RequestError" for a malformed line or a wire cap) and `key` names
// the offending field when there is one. The daemon never dies on bad
// input.
//
// Group commit: grid requests are resolved and grouped by their whole-grid
// fingerprint; each unique grid runs runGrid once (FIFO by first
// appearance) and every requester receives the same response bytes. Under
// serveUnixSocket the poll thread owns every socket and answers ping,
// stats, shutdown and malformed lines at once; grid requests go to a queue
// that one grid worker thread drains. Whenever the worker is free it takes
// everything queued as one batch, so requests that arrived while it was
// busy share a run, and an idle daemon starts a request the moment it is
// read; no timer stands between a request and its reply. Combined with the
// result store this is what turns N concurrent identical clients into at
// most one simulation per cell.
//
// Inputs are bounded: a request line over kMaxRequestBytes, a connection
// beyond kMaxConnections, a connection that has not sent its request line
// kRequestDeadlineMs after accept, a spec whose scale exceeds
// kMaxRemoteScale and a spec whose config_dir is not the daemon's own
// configs directory each get a typed error reply and count in `errors`. Resolved specs are memoized
// (a few entries, least recently used evicted), so the daemon reads a
// spec's core-model files once per memo entry, not once per request.
#pragma once

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/compile_cache.hpp"
#include "engine/engine.hpp"
#include "support/json_lite.hpp"

namespace riscmp::engine {

class ResultStore;
struct GridSpec;
struct ResolvedGrid;

/// Longest request line the socket transport reads, newline excluded.
inline constexpr std::size_t kMaxRequestBytes = 64 * 1024;
/// Open client connections the socket transport holds at once.
inline constexpr std::size_t kMaxConnections = 64;
/// How long, from accept, a connection has to send its request line.
inline constexpr unsigned kRequestDeadlineMs = 2000;
/// Largest workload scale a daemon grid may ask for (4x the benches' default).
inline constexpr double kMaxRemoteScale = 4.0;

struct ServiceOptions {
  /// Worker threads per grid run (0 = hardware concurrency).
  unsigned jobs = 0;
  /// Result-store root directory; empty = no persistent store (the shared
  /// compile cache still memoizes within the daemon's lifetime).
  std::string storeRoot;
};

/// Lifetime totals, served by the "stats" request.
struct ServiceTotals {
  std::uint64_t requests = 0;     ///< lines answered, rejections included
  std::uint64_t errors = 0;       ///< error responses produced
  std::uint64_t grids = 0;        ///< unique grids actually run
  std::uint64_t batched = 0;      ///< grid requests coalesced into a peer's run
  std::uint64_t cells = 0;        ///< cells served across all grid responses
  std::uint64_t storeHits = 0;    ///< cells served from the result store
  std::uint64_t compiles = 0;     ///< shared-cache compile invocations
  std::uint64_t compileHits = 0;  ///< shared-cache hits
  std::uint64_t simulations = 0;  ///< Machine::run invocations
  std::uint64_t queueDepth = 0;   ///< grid requests waiting for the worker
  std::uint64_t inFlight = 0;     ///< requests in the worker's running batch
};

class SimService {
 public:
  explicit SimService(ServiceOptions options);
  ~SimService();
  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  /// Map request lines to response lines, index for index (no trailing
  /// newlines on either side). Grid requests within the batch that resolve
  /// to the same fingerprint share one runGrid. Safe to call from several
  /// threads; grids from concurrent calls run one after another.
  std::vector<std::string> handleBatch(
      const std::vector<std::string>& requests);

  /// Convenience for single requests (tests, simple transports).
  std::string handleLine(const std::string& request);

  /// One consistent snapshot of the lifetime totals and the queue gauges.
  [[nodiscard]] ServiceTotals totals() const;
  /// Set once a "shutdown" request has been answered; the transport loop
  /// drains and exits when it sees this.
  [[nodiscard]] bool shutdownRequested() const { return shutdown_; }

 private:
  friend int serveUnixSocket(SimService&, const std::string&,
                             const volatile std::sig_atomic_t*,
                             std::ostream&);
  class Worker;  // the grid worker thread serveUnixSocket runs

  /// Answer one request line unless it is a grid request; then move its
  /// parsed document into `*grid` and return nullopt. Counts the line.
  std::optional<std::string> answerOrDefer(const std::string& request,
                                           support::JsonValue* grid);
  /// Resolve, group and run parsed grid requests; one reply each.
  std::vector<std::string> runGrids(
      const std::vector<support::JsonValue>& requests);
  /// A typed RequestError reply for input refused on the wire; counted.
  std::string reject(const std::string& key, const std::string& message);
  /// Refuse remote specs outside the daemon's limits (ConfigError).
  void admit(const GridSpec& spec) const;
  /// The memoized resolution of `spec`; call with gridMutex_ held.
  std::shared_ptr<const ResolvedGrid> resolve(const GridSpec& spec);
  /// Count answered lines and errors; returns the snapshot after.
  ServiceTotals count(std::uint64_t requests, std::uint64_t errors);
  ServiceTotals snapshotLocked() const;

  ServiceOptions options_;
  std::string configDir_;  ///< canonical daemon configs directory
  CompileCache cache_;
  std::shared_ptr<ResultStore> store_;
  std::atomic<bool> shutdown_{false};

  /// Serializes grid runs and guards the resolve memo.
  std::mutex gridMutex_;
  std::vector<std::pair<std::string, std::shared_ptr<const ResolvedGrid>>>
      memo_;  ///< canonical spec JSON -> resolution, least recent first

  /// Guards the totals and the worker queue; never held across runGrid.
  mutable std::mutex mutex_;
  ServiceTotals totals_;
  struct Queued {
    std::uint64_t ticket = 0;
    support::JsonValue request;
  };
  std::vector<Queued> queue_;  ///< grid requests waiting for the worker
  std::size_t inFlight_ = 0;   ///< requests in the worker's running batch
  std::vector<std::pair<std::uint64_t, std::string>> replies_;  ///< ready
  bool closing_ = false;       ///< no more work will be queued
  std::condition_variable queued_;  ///< signalled on queue_/closing_
};

/// Serve `service` on a Unix-domain stream socket at `socketPath` until a
/// shutdown request arrives or `*stopFlag` becomes nonzero (SIGTERM/SIGINT
/// handlers set it; the grid worker blocks both signals, so they interrupt
/// the poll thread). Graceful drain: stop accepting, answer the running and
/// queued grids and any other complete request, unlink the socket, return
/// 0. Prints "simd: listening on <path>" to `log` once ready.
/// Returns a process exit code; the socket file is unlinked on the way out.
int serveUnixSocket(SimService& service, const std::string& socketPath,
                    const volatile std::sig_atomic_t* stopFlag,
                    std::ostream& log);

/// Client side: connect to `socketPath`, send `requestLine` (newline
/// appended), and return the single response line. Throws ConfigError on
/// connect/IO failure — callers turn that into their own usage errors.
std::string requestOverSocket(const std::string& socketPath,
                              const std::string& requestLine);

}  // namespace riscmp::engine
