// simd — the simulation-as-a-service daemon (ISSUE 9, layer 3).
//
// Serves experiment grids over a Unix-domain socket: clients (sim_client,
// or any bench run with --via=socket:<path>) send a declarative GridSpec
// and receive every CellResult via the exact cell_codec encoding, so their
// rendered reports are byte-identical to local execution. One process
// holds the shared CompileCache for its lifetime, and --store=DIR adds the
// persistent cross-process ResultStore — a warm daemon answers a repeated
// grid with zero simulations. The main thread polls the socket and answers
// ping, stats and shutdown at once; one grid worker thread runs grids. Grid
// requests that queue while the worker is busy are taken together as its
// next batch (group commit), so concurrent requests for the same grid share
// a single runGrid, and an idle daemon starts a grid as soon as it is read.
// Oversized lines, excess connections and specs outside the daemon's
// limits get typed error replies. SIGTERM/SIGINT drain gracefully: the
// running and queued grids are answered, the socket is unlinked, and the
// exit code is 0.
#include <csignal>
#include <iostream>
#include <string>

#include "engine/service.hpp"
#include "harness.hpp"

using namespace riscmp;
using namespace riscmp::bench;

namespace {

volatile std::sig_atomic_t gStop = 0;

void onSignal(int) { gStop = 1; }

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string socketPath = flags.path("socket");
  engine::ServiceOptions options;
  options.jobs = jobsFlag(flags);
  options.storeRoot = flags.path("store");
  flags.finish();
  if (socketPath.empty()) {
    std::cerr << "usage: simd --socket=<path> [--store=<dir>] [--jobs=<n>]\n";
    return 2;
  }

  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);

  engine::SimService service(options);
  const int code =
      engine::serveUnixSocket(service, socketPath, &gStop, std::cout);

  const engine::ServiceTotals& totals = service.totals();
  std::cout << "simd: served " << totals.requests << " requests ("
            << totals.grids << " grids, " << totals.batched << " batched), "
            << totals.cells << " cells (" << totals.storeHits
            << " store hits), " << totals.compiles << " compiles (+"
            << totals.compileHits << " cached), " << totals.simulations
            << " simulations\n";
  return code;
}
