#include "uarch/mem/prefetcher.hpp"

namespace riscmp::uarch::mem {

const char* prefetchKindName(PrefetchKind kind) {
  switch (kind) {
    case PrefetchKind::None:
      return "none";
    case PrefetchKind::NextLine:
      return "next_line";
    case PrefetchKind::Stride:
      return "stride";
  }
  return "none";
}

Prefetcher::Prefetcher(PrefetchKind kind, std::uint32_t lineBytes)
    : kind_(kind), linesPerPage_(4096u / lineBytes) {}

PrefetchTargets Prefetcher::observe(std::uint64_t line, bool missed) {
  PrefetchTargets targets;
  switch (kind_) {
    case PrefetchKind::None:
      break;

    case PrefetchKind::NextLine:
      if (missed) targets.push_back(line + 1);
      break;

    case PrefetchKind::Stride: {
      const std::uint64_t page = line / linesPerPage_;
      Stream* stream = nullptr;
      for (Stream& candidate : streams_) {
        if (candidate.valid && candidate.page == page) {
          stream = &candidate;
          break;
        }
      }
      if (stream == nullptr) {
        // Round-robin victim: regular kernels touch few pages at a time,
        // and deterministic replacement keeps runs byte-identical.
        stream = &streams_[nextVictim_];
        nextVictim_ = (nextVictim_ + 1) % kStreams;
        *stream = Stream{page, line, 0, false, true};
        break;
      }
      const std::int64_t delta =
          static_cast<std::int64_t>(line) -
          static_cast<std::int64_t>(stream->lastLine);
      if (delta != 0) {
        stream->confirmed = (delta == stream->stride);
        stream->stride = delta;
        stream->lastLine = line;
        if (stream->confirmed) {
          targets.push_back(static_cast<std::uint64_t>(
              static_cast<std::int64_t>(line) + delta));
        }
      }
      break;
    }
  }
  return targets;
}

}  // namespace riscmp::uarch::mem
