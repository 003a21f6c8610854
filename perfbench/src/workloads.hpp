// The benchmark's three workloads, generated from a seed. The program
// under test receives only what is built here: module specs, a
// MiddlewareConfig and recipe texts, deployed through core::Middleware
// exactly as the examples do.
//
//  paper_10hz  the paper's six-module testbed (Fig. 7/9) at 10 Hz;
//  etl_city    RIoTBench ETL/STATS chains, one recipe per district, on
//              one gateway-class broker over a wired backbone (QoS 0);
//  fed_qos     K=4 federated brokers; QoS 1/2 flows pinned to a shard
//              that does not own their prefix, tapped from the owner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/middleware.hpp"

namespace perfbench {

using ifot::SimDuration;

/// One etl_city chain: sensor -> filter -> map -> window -> anomaly ->
/// actuator. The parameters are repeated here so the checks can recompute
/// every stage without reading them back from the program.
struct EtlChain {
  std::string sensor_topic;    ///< raw flow the monitor watches
  std::string sink_topic;      ///< output_topic of the chain's actuator task
  std::string anomaly_task;    ///< source name on the actuator records
  std::string actuator;        ///< actuator device (shared per district)
  double filter_gt = 0;        ///< filter: value > filter_gt passes
  double map_scale = 1;        ///< map: value * scale + offset
  double map_offset = 0;
  std::size_t window = 8;      ///< count window (tumbling), mean
  double z_threshold = 3;      ///< anomaly: flag when max|z| > threshold
  std::size_t z_min_samples = 10;
};

/// One fed_qos chain: sensor (QoS 1) -> window (QoS 2) on a foreign
/// shard; a second application taps the window output from its owner.
struct FedChain {
  std::string sensor_node;     ///< "s<i>" in the district recipe
  std::string sensor_module;   ///< hub hosting the sensor
  std::string sink_topic;      ///< output_topic of the app's actuator task
  std::string tap_task;        ///< source name on the actuator records
  std::string actuator;
  std::size_t window = 5;
  SimDuration period = 0;      ///< sensor period (SensorTask::rate_period)
};

struct Workload {
  std::string name;
  ifot::core::MiddlewareConfig config;
  std::vector<ifot::core::ModuleSpec> modules;
  std::vector<std::string> recipes;         ///< deploy order
  /// Modules whose tasks are only sensors: their samples_emitted sum is
  /// the workload's sample count.
  std::vector<std::string> sensor_modules;
  std::string monitor_module;               ///< empty: no monitor
  SimDuration window = 0;                   ///< timed virtual window
  /// The window runs as window / slice run_for calls. A slice spans whole
  /// periods of the waveform sensor model (10 s), so every slice carries
  /// the same work and per-slice rates differ only by the host's speed.
  SimDuration slice = 0;
  SimDuration drain = 0;                    ///< sensors off, fabric drains
  /// Bound on any module's CPU backlog at a slice boundary; a larger
  /// backlog means the offered load is not sustainable.
  double backlog_bound_ms = 0;
  std::vector<EtlChain> etl;
  std::vector<FedChain> fed;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds a workload. `districts` overrides the district count of
/// etl_city / fed_qos (0 = the workload's default); used for the scaling
/// figures in the README.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, int districts = 0);

}  // namespace perfbench
