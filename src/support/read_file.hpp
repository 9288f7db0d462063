// Whole-file reads for the small documents the engine loads: result-store
// cells, core-model YAML, grid specs.
#pragma once

#include <string>

namespace riscmp::support {

/// The bytes of `path`, read with one open, fstat and read for a regular
/// file. Returns an empty string when the file cannot be opened or read;
/// `opened`, when given, is set to whether it could, so a caller can tell
/// a missing file from an empty one.
std::string readWholeFile(const std::string& path, bool* opened = nullptr);

}  // namespace riscmp::support
