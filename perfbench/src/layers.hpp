// Per-layer metrics of the traced run. Counts come from the layers'
// public counters after an untraced round; *_ns / *_us figures come from
// timing the benchmark's own calls into each layer's public functions,
// driven with this workload's recipes, topics, subscription table, QoS
// mix and samples. Nothing inside the program is instrumented.
#pragma once

#include <string>
#include <vector>

#include "round.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Task types whose FlowTask::process cost is replayed on every workload
/// (node.task_ns.<type>).
[[nodiscard]] const std::vector<std::string>& replayed_task_types();

/// Runs the traced round of `w` (spans into `tracer`, replays at its end)
/// and returns every per-layer metric. `untraced` is a round of the same
/// workload and seed run without tracing; `traced` receives the traced
/// round's result.
std::vector<Metric> layer_metrics(const Workload& w,
                                  const RoundResult& untraced,
                                  Tracer& tracer, RoundResult& traced);

}  // namespace perfbench
