// Correctness checks, each against a computation made in this file and
// not by the program: the checks see only what the sinks recorded and
// what the benchmark itself observed (raw sensor flows, sensor periods).
//
//  * etl_city   — recomputes filter, map, window mean and z-score flag per
//                 chain from the monitor's raw capture and compares them
//                 with the actuator records (values to kValueTolerance).
//  * paper_10hz — labels every prediction by maximum Gaussian likelihood
//                 over ActivitySensor::default_states() and requires
//                 agreement >= kPaperAgreementFloor; mean sensing->train
//                 and sensing->predict delays within kPaperDelayTolerance
//                 of the paper's 10 Hz rows.
//  * fed_qos    — per sink, sequence numbers 0, 1, 2, ... with no gap and
//                 no duplicate, and each window's sensing time as the
//                 sensor period predicts.
//
// Every check also counts the sink outputs it expected (`attempted`) and
// how many were missing or extra (`failed`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "workloads.hpp"

namespace perfbench {

using ifot::SimTime;

inline constexpr double kValueTolerance = 1e-9;  // relative, min 1e-9 abs
inline constexpr double kPaperAgreementFloor = 0.70;
inline constexpr double kPaperDelayTolerance = 0.30;  // share of paper row
inline constexpr double kPaperTrainRowMs = 60.904;    // Table II, 10 Hz
inline constexpr double kPaperPredictRowMs = 59.020;  // Table III, 10 Hz

/// One output applied at a sink (an actuator record plus the sequence
/// number and completion time the completion hook saw for it).
struct SinkOut {
  SimTime done = 0;        ///< virtual completion time at the actuator task
  SimTime sensed_at = 0;   ///< sensing time carried by the output
  std::uint64_t seq = 0;
  double value = 0;        ///< the record's primary value
  std::string label;
};

/// One raw sensor sample as the monitor received it.
struct RawSample {
  std::uint64_t seq = 0;
  SimTime sensed_at = 0;
  double value = 0;
};

/// One prediction as the predictor reported it.
struct Prediction {
  std::string label;  ///< empty while no model has arrived
  double ax = 0, ay = 0, az = 0;
};

struct CheckResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  /// Sink delays (virtual ns) from the last contributing sensing to the
  /// actuator's completion, one per matched output.
  std::vector<SimTime> sink_delays;
  /// paper_10hz only.
  double agreement = 0;
  double train_mean_ms = 0;
  double predict_mean_ms = 0;

  void problem(std::string what);
};

/// etl_city: `raw[c]` and `sinks[c]` belong to chain `w.etl[c]`.
CheckResult check_etl(const Workload& w,
                      const std::vector<std::vector<RawSample>>& raw,
                      const std::vector<std::vector<SinkOut>>& sinks);

/// paper_10hz: `emitted` is the sensor modules' sample count, `sink` the
/// display's outputs, `train_ms`/`predict_ms` the completion delays.
CheckResult check_paper(std::uint64_t emitted, const std::vector<SinkOut>& sink,
                        const std::vector<Prediction>& predictions,
                        const std::vector<double>& train_ms,
                        const std::vector<double>& predict_ms);

/// fed_qos: `t0` is the virtual time start_flows() ran at.
CheckResult check_fed(const Workload& w, SimTime t0,
                      const std::vector<std::vector<SinkOut>>& sinks);

/// Number of samples a sensor with `period` emits in a window of
/// `window` virtual time started at start_flows() (ticks at t0 + k*period,
/// k >= 1, up to and including the end of the window).
std::uint64_t ticks_in(SimDuration window, SimDuration period);

/// The label maximising the Gaussian likelihood of (ax, ay, az) over the
/// public activity state table.
std::string gaussian_label(double ax, double ay, double az);

}  // namespace perfbench
