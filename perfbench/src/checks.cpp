#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "device/sensor_sim.hpp"

namespace perfbench {
namespace {

bool close(double got, double want) {
  return std::abs(got - want) <=
         kValueTolerance * std::max(1.0, std::abs(want));
}

std::string at(std::size_t chain, std::size_t k) {
  return "chain " + std::to_string(chain) + " output " + std::to_string(k);
}

/// Counts outputs against expectations: a missing or extra output is one
/// failed operation.
void count_outputs(CheckResult& r, std::size_t chain, std::size_t expected,
                   std::size_t produced) {
  r.attempted += expected;
  if (produced == expected) return;
  r.failed += produced > expected ? produced - expected : expected - produced;
  r.problem("chain " + std::to_string(chain) + ": " +
            std::to_string(produced) + " sink outputs, expected " +
            std::to_string(expected));
}

/// Streaming z-score exactly as specified: Welford mean/variance per
/// feature, score = |x - mean| / sd against the statistics *before* x is
/// added, 0 until `min_samples` observations.
class ZScore {
 public:
  explicit ZScore(std::size_t min_samples) : min_(min_samples) {}
  double add(double x) {
    double score = 0;
    if (n_ >= min_ && n_ >= 2) {
      const double var = m2_ / static_cast<double>(n_ - 1);
      score = std::abs(x - mean_) / std::sqrt(std::max(var, 1e-12));
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    return score;
  }

 private:
  std::size_t min_;
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
};

}  // namespace

void CheckResult::problem(std::string what) {
  correct = false;
  if (problems.size() < 8) problems.push_back(std::move(what));
}

std::uint64_t ticks_in(SimDuration window, SimDuration period) {
  return static_cast<std::uint64_t>(window / period);
}

std::string gaussian_label(double ax, double ay, double az) {
  const double x[3] = {ax, ay, az};
  std::string best;
  double best_ll = -std::numeric_limits<double>::infinity();
  for (const auto& st : ifot::device::ActivitySensor::default_states()) {
    double ll = 0;
    for (int i = 0; i < 3; ++i) {
      const double z = (x[i] - st.mean[i]) / st.stddev[i];
      ll -= std::log(st.stddev[i]) + 0.5 * z * z;
    }
    if (ll > best_ll) {
      best_ll = ll;
      best = st.label;
    }
  }
  return best;
}

CheckResult check_etl(const Workload& w,
                      const std::vector<std::vector<RawSample>>& raw,
                      const std::vector<std::vector<SinkOut>>& sinks) {
  CheckResult r;
  if (raw.size() != w.etl.size() || sinks.size() != w.etl.size()) {
    r.problem("capture does not cover every chain");
    return r;
  }
  for (std::size_t c = 0; c < w.etl.size(); ++c) {
    const EtlChain& chain = w.etl[c];
    // The monitor must have seen the sensor's whole stream, in order.
    for (std::size_t k = 0; k < raw[c].size(); ++k) {
      if (raw[c][k].seq != k) {
        r.problem("chain " + std::to_string(c) + ": monitor saw seq " +
                  std::to_string(raw[c][k].seq) + " at position " +
                  std::to_string(k));
        break;
      }
    }
    // filter -> map
    std::vector<const RawSample*> passed;
    std::vector<double> mapped;
    for (const auto& s : raw[c]) {
      if (!(s.value > chain.filter_gt)) continue;
      passed.push_back(&s);
      mapped.push_back(s.value * chain.map_scale + chain.map_offset);
    }
    // window (tumbling count, mean) -> z-score flag
    const std::size_t windows = mapped.size() / chain.window;
    const auto& got = sinks[c];
    count_outputs(r, c, windows, got.size());
    ZScore z(chain.z_min_samples);
    for (std::size_t k = 0; k < windows; ++k) {
      double acc = 0;
      for (std::size_t j = 0; j < chain.window; ++j) {
        acc += mapped[k * chain.window + j];
      }
      const double mean = acc / static_cast<double>(chain.window);
      const double score = z.add(mean);
      if (k >= got.size()) continue;
      const SinkOut& o = got[k];
      const SimTime first = passed[k * chain.window]->sensed_at;
      const SimTime last = passed[k * chain.window + chain.window - 1]->sensed_at;
      if (o.sensed_at != first) {
        r.problem(at(c, k) + ": sensed_at " + std::to_string(o.sensed_at) +
                  ", expected " + std::to_string(first));
      }
      if (!close(o.value, mean)) {
        r.problem(at(c, k) + ": window mean " + std::to_string(o.value) +
                  ", expected " + std::to_string(mean));
      }
      // A score within the tolerance of the threshold may round either
      // way; every other flag must match.
      if (std::abs(score - chain.z_threshold) > kValueTolerance) {
        const char* want = score > chain.z_threshold ? "anomaly" : "normal";
        if (o.label != want) {
          r.problem(at(c, k) + ": flag '" + o.label + "', expected '" +
                    want + "'");
        }
      }
      r.sink_delays.push_back(o.done - last);
    }
  }
  return r;
}

CheckResult check_paper(std::uint64_t emitted, const std::vector<SinkOut>& sink,
                        const std::vector<Prediction>& predictions,
                        const std::vector<double>& train_ms,
                        const std::vector<double>& predict_ms) {
  CheckResult r;
  // Every sensor sample is classified once and actuated once.
  count_outputs(r, 0, emitted, sink.size());
  for (std::size_t k = 0; k < sink.size(); ++k) {
    if (sink[k].seq != k) {
      r.problem("display output " + std::to_string(k) + " carries seq " +
                std::to_string(sink[k].seq));
      break;
    }
    r.sink_delays.push_back(sink[k].done - sink[k].sensed_at);
  }
  if (predictions.size() != emitted) {
    r.problem(std::to_string(predictions.size()) + " predictions for " +
              std::to_string(emitted) + " samples");
  }
  std::size_t labelled = 0;
  std::size_t agree = 0;
  for (const auto& p : predictions) {
    if (p.label.empty()) continue;  // no model shipped yet
    ++labelled;
    if (p.label == gaussian_label(p.ax, p.ay, p.az)) ++agree;
  }
  r.agreement = labelled == 0 ? 0.0
                              : static_cast<double>(agree) /
                                    static_cast<double>(labelled);
  if (r.agreement < kPaperAgreementFloor) {
    r.problem("prediction agreement " + std::to_string(r.agreement) +
              " below the floor " + std::to_string(kPaperAgreementFloor));
  }
  auto mean = [](const std::vector<double>& v) {
    double acc = 0;
    for (double x : v) acc += x;
    return v.empty() ? 0.0 : acc / static_cast<double>(v.size());
  };
  r.train_mean_ms = mean(train_ms);
  r.predict_mean_ms = mean(predict_ms);
  if (std::abs(r.train_mean_ms - kPaperTrainRowMs) >
      kPaperDelayTolerance * kPaperTrainRowMs) {
    r.problem("mean sensing->training " + std::to_string(r.train_mean_ms) +
              " ms is off the paper's " + std::to_string(kPaperTrainRowMs));
  }
  if (std::abs(r.predict_mean_ms - kPaperPredictRowMs) >
      kPaperDelayTolerance * kPaperPredictRowMs) {
    r.problem("mean sensing->predicting " +
              std::to_string(r.predict_mean_ms) + " ms is off the paper's " +
              std::to_string(kPaperPredictRowMs));
  }
  return r;
}

CheckResult check_fed(const Workload& w, SimTime t0,
                      const std::vector<std::vector<SinkOut>>& sinks) {
  CheckResult r;
  if (sinks.size() != w.fed.size()) {
    r.problem("capture does not cover every chain");
    return r;
  }
  for (std::size_t c = 0; c < w.fed.size(); ++c) {
    const FedChain& chain = w.fed[c];
    const std::uint64_t samples = ticks_in(w.window, chain.period);
    const auto& got = sinks[c];
    count_outputs(r, c, samples / chain.window, got.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (got[k].seq != k) {
        r.problem(at(c, k) + ": seq " + std::to_string(got[k].seq) +
                  (k > 0 && got[k].seq == got[k - 1].seq ? " (duplicate)"
                                                         : " (gap)"));
        break;
      }
      // Window k opens with the sensor's (k*W + 1)-th tick.
      const SimTime first =
          t0 + static_cast<SimTime>(k * chain.window + 1) * chain.period;
      if (got[k].sensed_at != first) {
        r.problem(at(c, k) + ": sensed_at " +
                  std::to_string(got[k].sensed_at) + ", expected " +
                  std::to_string(first));
        break;
      }
      const SimTime last =
          first + static_cast<SimTime>(chain.window - 1) * chain.period;
      r.sink_delays.push_back(got[k].done - last);
    }
  }
  return r;
}

}  // namespace perfbench
