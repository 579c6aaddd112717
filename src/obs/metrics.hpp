// Metrics registry: one ordered name -> value store that smpirun --verbose
// renders its counter listings from (p2p, solver and surf counters), in place
// of ad-hoc printf plumbing. Campaign rows do not go through it: they are
// encoded from ScenarioResult's field table (campaign/row.hpp), and
// ti_inspect prints its own summary. Collectors read the existing
// counter structs — they never replace or reset them, so the underlying
// values stay bit-identical to the pre-registry paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "surf/maxmin.hpp"

namespace smpi::util {
class JsonValue;
}

namespace smpi::core {
struct P2pCounters;
}

namespace smpi::obs {

struct AnalysisResult;
class Profiler;

struct Metric {
  std::string name;
  double value = 0;
  bool integer = false;  // render without a decimal point
};

class MetricsRegistry {
 public:
  void set(const std::string& name, double value);
  void set_counter(const std::string& name, std::uint64_t value);

  const std::vector<Metric>& metrics() const { return metrics_; }
  // nullptr when absent.
  const Metric* find(const std::string& name) const;

  // "  name = value" lines, insertion-ordered; `prefix_filter` keeps only
  // names starting with the prefix (empty = all).
  std::string text(const std::string& prefix_filter = "") const;
  util::JsonValue json() const;

 private:
  std::vector<Metric> metrics_;
};

// Collectors from the existing subsystem counters.
void collect_p2p(MetricsRegistry& registry, const core::P2pCounters& counters);
void collect_solver(MetricsRegistry& registry, std::uint64_t solves, std::uint64_t vars_touched,
                    std::uint64_t cons_touched);
void collect_analysis(MetricsRegistry& registry, const AnalysisResult& analysis);
void collect_profile(MetricsRegistry& registry, const Profiler& profiler);
// surf.* namespace: solver trigger classes plus observation-hook counters,
// summed across the network and CPU solvers (SmpiWorld::surf_observe_counters).
void collect_surf(MetricsRegistry& registry, const surf::MaxMinSystem::ObserveCounters& counters);

}  // namespace smpi::obs
