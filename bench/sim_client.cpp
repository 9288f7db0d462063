// sim_client — command-line client for the simd daemon (ISSUE 9, layer 4).
//
// Speaks the line-JSON protocol over the daemon's Unix-domain socket:
//   sim_client --socket=<path> --ping              liveness probe
//   sim_client --socket=<path> --stats             lifetime totals
//   sim_client --socket=<path> --shutdown          graceful drain + exit
//   sim_client --socket=<path> --grid=<spec.json>  run/fetch a whole grid
// The response line is printed verbatim to stdout (it is already
// deterministic JSON). Exit codes: 0 on success, 2 on usage/transport
// errors, 3 when the daemon answered with an error response.
//
// Report benches do not need this tool to use the daemon — they take
// --via=socket:<path> directly — but scripts use it to probe, drive, and
// stop daemons, and --grid lets a saved GridSpec run without any bench.
#include <iostream>
#include <string>

#include "engine/grid_spec.hpp"
#include "engine/service.hpp"
#include "harness.hpp"
#include "support/read_file.hpp"

using namespace riscmp;
using namespace riscmp::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string socketPath = flags.path("socket");
  const std::string gridPath = flags.path("grid");
  const bool ping = flags.isSet("ping");
  const bool stats = flags.isSet("stats");
  const bool shutdown = flags.isSet("shutdown");
  flags.finish();

  const int actions = (ping ? 1 : 0) + (stats ? 1 : 0) + (shutdown ? 1 : 0) +
                      (gridPath.empty() ? 0 : 1);
  if (socketPath.empty() || actions != 1) {
    std::cerr << "usage: sim_client --socket=<path> "
                 "(--ping | --stats | --shutdown | --grid=<spec.json>)\n";
    return 2;
  }

  support::JsonValue request = support::JsonValue::object();
  if (ping) {
    request.set("type", support::JsonValue("ping"));
  } else if (stats) {
    request.set("type", support::JsonValue("stats"));
  } else if (shutdown) {
    request.set("type", support::JsonValue("shutdown"));
  } else {
    bool opened = false;
    const std::string text = support::readWholeFile(gridPath, &opened);
    if (!opened) {
      std::cerr << "error: cannot read " << gridPath << "\n";
      return 2;
    }
    try {
      // Parse through GridSpec so a malformed spec fails here, with a
      // provenance message, instead of as an opaque daemon error.
      const engine::GridSpec spec =
          engine::gridSpecFromJson(support::JsonValue::parse(text));
      request.set("type", support::JsonValue("grid"));
      request.set("spec", engine::gridSpecToJson(spec));
    } catch (const Fault& fault) {
      std::cerr << "error: " << gridPath << ": " << fault.what() << "\n";
      return 2;
    }
  }

  std::string reply;
  try {
    reply = engine::requestOverSocket(socketPath, request.dump());
  } catch (const Fault& fault) {
    std::cerr << "error: " << fault.what() << "\n";
    return 2;
  }
  std::cout << reply << "\n";

  const std::optional<support::JsonValue> doc =
      support::JsonValue::tryParse(reply);
  if (!doc || !doc->has("type")) {
    std::cerr << "error: malformed simd reply\n";
    return 2;
  }
  try {
    if (doc->at("type").asString() == "error") return 3;
  } catch (const Fault&) {
    return 2;
  }
  return 0;
}
