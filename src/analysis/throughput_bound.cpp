#include "analysis/throughput_bound.hpp"

#include <algorithm>
#include <limits>

#include "support/fault.hpp"

namespace riscmp {

double ThroughputModel::reciprocalThroughput(InstGroup group) const {
  const unsigned multiplicity = portMultiplicity(group);
  if (multiplicity == 0) return std::numeric_limits<double>::infinity();
  const unsigned width = std::max(issueWidth, 1u);
  return std::max(1.0 / static_cast<double>(multiplicity),
                  1.0 / static_cast<double>(width));
}

namespace {

ThroughputModel requirePorts(ThroughputModel model) {
  if (model.ports.empty()) {
    throw ConfigError("throughput model '" + model.name +
                          "' has no ports: section; the port-pressure bound "
                          "is undefined without one",
                      {}, 0, "ports");
  }
  return model;
}

}  // namespace

ThroughputBoundAnalyzer::ThroughputBoundAnalyzer(ThroughputModel model,
                                                 const Program& program)
    : model_(requirePorts(std::move(model))),
      costs_(costTable(&model_.latencies)),
      kernelMap_(program) {
  contexts_.resize(kernelMap_.names().size() + 1);  // last slot = whole program
  for (Context& context : contexts_) {
    context.portCycles.resize(model_.ports.size(), 0);
  }
}

void ThroughputBoundAnalyzer::account(Context& context, InstGroup group,
                                      std::uint8_t costClass,
                                      std::uint64_t& depth) {
  ++context.instructions;

  // Least-loaded eligible port; ties break to the lowest port index so the
  // assignment (and therefore the report) is deterministic.
  std::size_t best = model_.ports.size();
  for (std::size_t p = 0; p < model_.ports.size(); ++p) {
    if (!model_.ports[p].accepts(group)) continue;
    if (best == model_.ports.size() ||
        context.portCycles[p] < context.portCycles[best]) {
      best = p;
    }
  }
  if (best == model_.ports.size()) {
    throw ValidationFault(
        "throughput model '" + model_.name + "': no port accepts group " +
        std::string(instGroupName(group)) +
        " — add it to a port's groups: list");
  }
  ++context.portCycles[best];

  // Scaled-CP cost, as CriticalPathAnalyzer's: loads and stores cost 1
  // (§5.1 store-forwarding assumption), everything else its group latency.
  depth += costs_[costClass];
  context.maxDepth = std::max(context.maxDepth, depth);
}

ThroughputBoundAnalyzer::KernelBound ThroughputBoundAnalyzer::bound(
    const Context& context, std::string name) const {
  KernelBound result;
  result.name = std::move(name);
  result.instructions = context.instructions;
  result.portCycles = context.portCycles;
  for (std::size_t p = 0; p < context.portCycles.size(); ++p) {
    if (context.portCycles[p] > result.portBound) {
      result.portBound = context.portCycles[p];
      result.bindingPort = model_.ports[p].name;
    }
  }
  const std::uint64_t width = std::max(model_.issueWidth, 1u);
  result.issueBound = (context.instructions + width - 1) / width;
  result.cpBound = context.maxDepth;
  return result;
}

std::vector<ThroughputBoundAnalyzer::KernelBound>
ThroughputBoundAnalyzer::kernels() const {
  std::vector<KernelBound> result;
  result.reserve(kernelMap_.names().size());
  for (std::size_t k = 0; k < kernelMap_.names().size(); ++k) {
    result.push_back(bound(contexts_[k], kernelMap_.names()[k]));
  }
  return result;
}

ThroughputBoundAnalyzer::KernelBound ThroughputBoundAnalyzer::program() const {
  return bound(contexts_.back(), "<program>");
}

}  // namespace riscmp
