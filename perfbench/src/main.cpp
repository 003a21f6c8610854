// ifot_perfbench — full-stack benchmark of the IFoT middleware.
//
//   ifot_perfbench --workload <paper_10hz|etl_city|fed_qos> --seed <n>
//                  --seconds <s> --trace 0 [--districts <n>]
//   ifot_perfbench --workload <name> --seed <n> --seconds <s> --trace 1
//                  --trace-out <file> [--districts <n>]
//   ifot_perfbench --self-test
//
// Untraced (--trace 0): repeats identical rounds of the workload (same
// seed: fabric, recipes, timed virtual window, drain, checks) until
// --seconds of wall time have passed, and prints the end-to-end metrics.
// Round 1 captures and checks nothing and gives peak_rss_mb; at least
// kMinRounds checked rounds follow. Every round must reproduce round 1's
// trace hash and event count, and the first checked round's sink outputs.
// After each round, set-up alone is repeated (kSetupShare).
//
// Traced (--trace 1): one untraced round, then one traced round plus
// replays of each layer's public functions; prints the per-layer metrics
// and writes the span file.
//
// The last line of stdout is the JSON result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "checks.hpp"
#include "layers.hpp"
#include "round.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

using Clock = std::chrono::steady_clock;

constexpr int kMinRounds = 3;  ///< checked rounds per run, at least
/// Share of each round's wall time spent afterwards on set-ups alone.
constexpr double kSetupShare = 0.10;
/// samples_per_s is this quantile of the per-slice rates of all checked
/// rounds, and setup_s this upper quantile of all set-up times. On a
/// shared host the speed alternates between a steady floor and
/// intermittent faster stretches, so both are bimodal within a run; the
/// median jumps with the share of fast stretches in a run, these
/// quantiles track the floor (README).
constexpr double kRateQuantile = 0.10;
constexpr double kSetupQuantile = 0.90;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  int districts = 0;
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ifot_perfbench: %s\n"
               "usage: ifot_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--districts <n>]\n"
               "       (--trace 1 needs --trace-out)\n"
               "       ifot_perfbench --self-test\n",
               why);
  std::exit(64);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) usage("--trace takes 0 or 1");
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--districts") {
      a.districts = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      usage(("unknown argument " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + k).c_str());
  }
  if (a.self_test) return a;
  if (!have_workload) usage("--workload is required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage(("unknown workload " + a.workload).c_str());
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.trace && a.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return a;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile (q in (0, 1]); 0 for no values.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Nearest-rank percentile of virtual delays, in ms.
double percentile_ms(const std::vector<SimTime>& delays, double q) {
  std::vector<double> ms;
  ms.reserve(delays.size());
  for (SimTime d : delays) ms.push_back(static_cast<double>(d) / 1e6);
  return quantile(std::move(ms), q);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_problems(const CheckResult& c) {
  for (const auto& p : c.problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("operations: attempted %llu, failed %llu; correct: %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? "yes" : "NO");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_round(const char* what, const RoundResult& r) {
  std::printf(
      "%s: setup %.3f s, window %.3f s, %llu samples, trace_hash=%016llx "
      "events=%llu, sink outputs %zu, backlog max %.2f ms, cpu util max "
      "%.3f\n",
      what, r.setup_s, r.window_s,
      static_cast<unsigned long long>(r.delta.samples),
      static_cast<unsigned long long>(r.trace_hash),
      static_cast<unsigned long long>(r.events_executed),
      r.check.sink_delays.size(), r.backlog_max_ms, r.cpu_util_max);
}

int run_untraced(const Args& a, const Workload& w) {
  const auto start = Clock::now();
  std::vector<double> setup;
  std::vector<double> rate;  // per run_for slice, every checked round
  // Set-up on its own after each round, for kSetupShare of that round's
  // wall time: setup_s is a quantile of many set-ups spread over the run.
  auto repeat_setup = [&](double round_s) {
    const auto t = Clock::now();
    do {
      setup.push_back(setup_once(w));
    } while (seconds_since(t) < kSetupShare * round_s);
  };
  // Round 1 captures nothing, so the peak resident set after it is the
  // program's own; it is also the reference every later round reproduces.
  RoundOptions bare;
  bare.capture = false;
  auto t_round = Clock::now();
  const RoundResult reference = run_round(w, bare);
  const double rss_mb = peak_rss_mb();
  print_round("round 1 (no capture)", reference);
  setup.push_back(reference.setup_s);
  repeat_setup(seconds_since(t_round));
  RoundResult first;  // the first checked round
  bool reproducible = true;
  int rounds = 0;     // checked rounds
  while (rounds < kMinRounds || seconds_since(start) < a.seconds) {
    t_round = Clock::now();
    RoundResult r = run_round(w);
    const double round_s = seconds_since(t_round);
    setup.push_back(r.setup_s);
    rate.insert(rate.end(), r.slice_rates.begin(), r.slice_rates.end());
    r.observed = {};  // checked already
    const bool same =
        r.trace_hash == reference.trace_hash &&
        r.events_executed == reference.events_executed &&
        (rounds == 0 || r.digest == first.digest);
    if (rounds == 0 || !same) {
      print_round(("round " + std::to_string(rounds + 2)).c_str(), r);
    }
    if (!same) {
      std::printf("  CHECK FAILED: round %d did not reproduce the rounds "
                  "before it\n",
                  rounds + 2);
      reproducible = false;
    }
    if (rounds == 0) first = std::move(r);
    ++rounds;
    repeat_setup(round_s);
  }
  print_problems(first.check);
  std::printf("determinism: trace_hash=%016llx events=%llu (%d identical "
              "rounds: %s)\n",
              static_cast<unsigned long long>(first.trace_hash),
              static_cast<unsigned long long>(first.events_executed),
              rounds + 1, reproducible ? "yes" : "NO");
  const auto& d = first.check.sink_delays;
  const double samples = static_cast<double>(first.delta.samples);
  std::printf("workload %s seed %llu: %d checked rounds, %zu sink outputs per "
              "round\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), rounds,
              d.size());
  std::printf("set-up: %zu times, q10 %.6f s, median %.6f s, q90 %.6f s; "
              "slice rates: %zu, q10 %.0f/s, median %.0f/s, q90 %.0f/s\n",
              setup.size(), quantile(setup, 0.1), median(setup),
              quantile(setup, 0.9), rate.size(), quantile(rate, 0.1),
              median(rate), quantile(rate, 0.9));
  if (w.name == "paper_10hz") {
    std::printf("paper check: agreement %.4f (floor %.2f), sensing->train "
                "%.2f ms (paper %.2f), sensing->predict %.2f ms (paper %.2f)\n",
                first.check.agreement, kPaperAgreementFloor,
                first.check.train_mean_ms, kPaperTrainRowMs,
                first.check.predict_mean_ms, kPaperPredictRowMs);
  }
  const std::vector<Metric> metrics = {
      {"samples_per_s", quantile(rate, kRateQuantile), "samples/s"},
      {"sink_delay_p50_ms", percentile_ms(d, 0.50), "ms"},
      {"sink_delay_p99_ms", percentile_ms(d, 0.99), "ms"},
      {"sink_delay_p999_ms", percentile_ms(d, 0.999), "ms"},
      {"wire_bytes_per_sample",
       static_cast<double>(first.delta.bytes) / samples, "B/sample"},
      {"setup_s", quantile(setup, kSetupQuantile), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  const auto n = static_cast<std::uint64_t>(rounds);
  print_result(first.check.correct && reproducible && samples > 0,
               n * first.check.attempted, n * first.check.failed, metrics);
  return 0;
}

int run_traced(const Args& a, const Workload& w) {
  const RoundResult untraced = run_round(w);
  print_round("untraced round", untraced);
  Tracer tracer;
  RoundResult traced;
  std::vector<Metric> metrics = layer_metrics(w, untraced, tracer, traced);
  print_round("traced round", traced);
  bool correct = untraced.check.correct;
  print_problems(untraced.check);
  // Tracing must not perturb virtual time.
  if (traced.trace_hash != untraced.trace_hash ||
      traced.digest != untraced.digest) {
    std::printf("  CHECK FAILED: the traced round diverged in virtual time\n");
    correct = false;
  }
  const std::string& path = a.trace_out;
  if (!tracer.write(path)) {
    std::fprintf(stderr, "ifot_perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
  print_result(correct, untraced.check.attempted, untraced.check.failed,
               metrics);
  return 0;
}

/// Negative self-test: a small real round of each workload must pass its
/// check, and each deliberately broken copy of its sink records must not.
int self_test() {
  int escaped = 0;
  auto expect_fail = [&](const Workload& w, const Observed& o,
                         const char* what) {
    const CheckResult r = check_round(w, o);
    const bool caught = !r.correct || r.failed > 0;
    std::printf("  %-10s %-34s %s\n", w.name.c_str(), what,
                caught ? "rejected" : "NOT REJECTED");
    if (!caught) ++escaped;
  };
  for (const auto& name : workload_names()) {
    Workload w = make_workload(name, 12345, 2);
    w.window = name == "paper_10hz" ? 300 * ifot::kSecond : 60 * ifot::kSecond;
    const RoundResult r = run_round(w);
    std::printf("  %-10s %-34s %s\n", name.c_str(), "unmodified capture",
                r.check.correct && r.check.failed == 0 ? "accepted"
                                                       : "REJECTED");
    print_problems(r.check);
    if (!r.check.correct || r.check.failed != 0) ++escaped;
    // The first chain with at least three outputs gets broken.
    std::size_t c = 0;
    while (c < r.observed.sinks.size() && r.observed.sinks[c].size() < 3) ++c;
    if (c == r.observed.sinks.size()) {
      std::printf("  %s: no chain with three outputs\n", name.c_str());
      ++escaped;
      continue;
    }
    Observed o = r.observed;
    o.sinks[c].erase(o.sinks[c].begin() + 1);
    expect_fail(w, o, "dropped sink record");
    o = r.observed;
    o.sinks[c].insert(o.sinks[c].begin() + 1, o.sinks[c][1]);
    expect_fail(w, o, "duplicated sink record");
    o = r.observed;
    if (name == "paper_10hz") {
      for (auto& p : o.predictions) {
        if (p.label.empty()) continue;
        p.label = gaussian_label(p.ax, p.ay, p.az) == "walking" ? "lying"
                                                                : "walking";
      }
      expect_fail(w, o, "perturbed predicted labels");
      o = r.observed;
      for (auto& t : o.train_ms) t *= 1.5;
      expect_fail(w, o, "perturbed sensing->train delays");
    } else if (name == "etl_city") {
      o.sinks[c][1].value *= 1.0 + 1e-6;
      expect_fail(w, o, "perturbed window mean");
      o = r.observed;
      o.sinks[c][2].label = o.sinks[c][2].label == "anomaly" ? "normal"
                                                             : "anomaly";
      expect_fail(w, o, "flipped anomaly flag");
    } else {
      std::swap(o.sinks[c][1], o.sinks[c][2]);
      expect_fail(w, o, "reordered sink records");
      o = r.observed;
      o.sinks[c][1].sensed_at += 1;
      expect_fail(w, o, "perturbed window sensing time");
    }
  }
  std::printf("self-test: %s\n", escaped == 0 ? "ok" : "FAILED");
  return escaped == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.self_test) return self_test();
  const Workload w = make_workload(a.workload, a.seed, a.districts);
  std::printf("workload %s seed %llu: %zu modules, %zu recipes, window %.0f s "
              "virtual\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              w.modules.size(), w.recipes.size(),
              static_cast<double>(w.window) / 1e9);
  return a.trace ? run_traced(a, w) : run_untraced(a, w);
}
