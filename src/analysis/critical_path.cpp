#include "analysis/critical_path.hpp"

namespace riscmp {

void CriticalPathAnalyzer::reset() {
  resetResolver();
  depth_.clear();
  maxDepth_ = 0;
  instructions_ = 0;
}

}  // namespace riscmp
