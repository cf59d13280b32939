// ScopedTimer: RAII wall-clock timing into an obs::Histogram.
//
// The profiling substrate for ROADMAP item 4: wrap a hot region (plan
// generation, the master select loop, heartbeat service) and the elapsed
// nanoseconds land in the attached histogram, whose p50/p95/p99 accessors
// then summarize the hot path. Inert by construction when no histogram is
// attached: the constructor takes one branch and never reads the clock, so
// unprofiled runs pay nothing — and because the histogram only ever feeds
// host-side diagnostics (never simulated time, RNG draws, or scheduling
// decisions), profiled runs stay bit-identical to unprofiled ones.
#pragma once

#include <chrono>

#include "obs/metrics_registry.hpp"

namespace woha::obs {

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ~ScopedTimer() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace woha::obs
