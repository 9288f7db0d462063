// riscmp benchmark binary. Modes:
//   run           one workload run (--trace 0) or the layer ladder
//                 (--trace 1); prints the result JSON as its last line
//   golden        print the expected cellDigest of every cell of every
//                 stack (the committed golden/digests.txt)
//   setup         one *_cells set-up (run as a child process to time it);
//                 exits 1 if a warm-up result is wrong
// run.py builds this binary and is the documented entry point.
#include <csignal>
#include <iostream>

#include "engine/cell_codec.hpp"
#include "engine/service.hpp"
#include "support/json_lite.hpp"
#include "workloads.hpp"

using namespace riscmp;

namespace perfbench {

void printGolden() {
  std::cout << "# <stack> <workload>/<era>/<arch> <cellDigest>\n";
  for (const Stack stack : {Stack::Paper, Stack::Uarch}) {
    const CellGrid grid(stack);
    const auto engine = grid.makeEngine();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const engine::CellResult cell = grid.run(*engine, i);
      std::cout << stackName(stack) << " " << cellName(cell.key) << " "
                << engine::digestHex(engine::cellDigest(cell)) << "\n";
    }
  }
  engine::SimService service(engine::ServiceOptions{1, ""});
  const support::JsonValue reply = support::JsonValue::parse(
      service.handleLine(gridRequest(engine::kDefaultInstructionBudget)));
  for (const support::JsonValue& encoded : reply.at("cells").items()) {
    const engine::CellResult cell = engine::decodeCell(encoded);
    std::cout << stackName(Stack::Service) << " " << cellName(cell.key) << " "
              << engine::digestHex(engine::cellDigest(cell)) << "\n";
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A daemon that dies mid-request must surface as a failed op, not kill
  // the client with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  const Args args = parseArgs(argc, argv);
  try {
    if (args.mode == "golden") {
      printGolden();
      return 0;
    }
    if (args.mode != "run" && args.mode != "setup") {
      std::cerr << "perfbench: unknown mode " << args.mode << "\n";
      return 2;
    }
    const Golden golden(args.golden, args.injectMismatch);
    if (args.mode == "setup") {
      const Stack stack =
          args.workload == "uarch_cells" ? Stack::Uarch : Stack::Paper;
      return setUpCells(stack, golden).ok ? 0 : 1;
    }
    Result result;
    if (args.trace) {
      result = runLadder(args, golden);
    } else if (args.workload == "paper_cells") {
      result = runCells(Stack::Paper, args, golden);
    } else if (args.workload == "uarch_cells") {
      result = runCells(Stack::Uarch, args, golden);
    } else if (args.workload == "service_mixed") {
      result = runService(args, golden);
    } else {
      std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
    result.print();
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
