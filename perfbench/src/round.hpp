// One round of a workload: build the fabric through core::Middleware,
// deploy the recipes, run the timed virtual window, stop the sensors,
// drain, and check what reached the sinks.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "checks.hpp"
#include "core/middleware.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Public counters summed over the fabric at one instant.
struct Counts {
  std::uint64_t events = 0;            ///< Simulator::stats().fired
  std::uint64_t frames = 0;            ///< net: frames / bytes / writes
  std::uint64_t bytes = 0;
  std::uint64_t writes = 0;
  std::uint64_t packets_in = 0;        ///< brokers
  std::uint64_t publishes_in = 0;
  std::uint64_t delivered = 0;         ///< delivered_qos0 + delivered_qos12
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t bridge_in = 0;
  std::uint64_t dispatched = 0;        ///< modules: via the broker
  std::uint64_t dispatched_local = 0;  ///< modules: in-process fast path
  std::uint64_t transport_writes = 0;
  std::uint64_t samples = 0;           ///< sensor modules' samples_emitted

  [[nodiscard]] Counts minus(const Counts& o) const;
};

[[nodiscard]] Counts read_counts(ifot::core::Middleware& mw,
                                 const Workload& w);

/// What the benchmark observed of one round, outside the program.
struct Observed {
  ifot::SimTime t0 = 0;       ///< virtual time of start_flows()
  std::uint64_t samples = 0;  ///< sensor modules' samples_emitted
  std::vector<std::vector<SinkOut>> sinks;  ///< per chain
  std::vector<std::vector<RawSample>> raw;  ///< etl_city: per chain
  std::vector<Prediction> predictions;      ///< paper_10hz
  std::vector<double> train_ms;             ///< paper_10hz
  std::vector<double> predict_ms;           ///< paper_10hz
};

/// Runs the workload's correctness check on an observation.
[[nodiscard]] CheckResult check_round(const Workload& w, const Observed& o);

struct RoundResult {
  /// Middleware construction through start() and every deploy(), plus
  /// start_flows(); the monitor's watches in between are not timed.
  double setup_s = 0;
  double window_s = 0;   ///< wall time of the timed run_for window
  /// Sensor samples emitted per wall second in each run_for slice.
  std::vector<double> slice_rates;
  Counts delta;          ///< start_flows() .. end of the drain
  std::uint64_t trace_hash = 0;
  std::uint64_t events_executed = 0;
  double backlog_max_ms = 0;  ///< any module, any slice boundary
  double cpu_util_max = 0;    ///< busiest module over the window
  double delivery_p50_ms = 0;
  std::size_t pool_bytes = 0;
  std::size_t occupancy_high_water = 0;
  /// Hash over every sink output (time, seq, sensing time, value,
  /// label): equal digests mean the sinks saw exactly the same outputs.
  std::uint64_t digest = 0;
  CheckResult check;
  Observed observed;
};

struct RoundOptions {
  /// False: no completion hook, the monitor drops what it receives, and
  /// nothing is checked. The fabric and its virtual time are the same, so
  /// the process's peak memory after such a round is the program's own.
  bool capture = true;
  /// Spans go around start(), each deploy() (with parse, allocate and a
  /// replayed split as children) and each run_for slice.
  Tracer* tracer = nullptr;
  /// Called with the live fabric before teardown.
  std::function<void(ifot::core::Middleware&, const RoundResult&)> inspect;
};

/// Runs one round.
RoundResult run_round(const Workload& w, const RoundOptions& opt = {});

/// One untraced set-up on its own, timed as RoundResult::setup_s, then
/// torn down (teardown not timed); returns seconds.
double setup_once(const Workload& w);

}  // namespace perfbench
