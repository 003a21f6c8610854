#include "workloads.hpp"

#include <cstdio>
#include <random>
#include <stdexcept>

#include "mgmt/paper_experiment.hpp"

namespace perfbench {
namespace {

using ifot::core::ModuleSpec;

/// Input generator: the benchmark's own PRNG, apart from the program's.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : eng_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * std::uniform_real_distribution<double>(0, 1)(eng_);
  }
  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(eng_);
  }

 private:
  std::mt19937_64 eng_;
};

std::string two(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%02d", i);
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

/// A switched wired backbone (gateway racks, not the paper's Wi-Fi): 1 Gb/s,
/// sub-0.1 ms propagation and a small per-frame cost, so hundreds of
/// modules share the medium without saturating it.
ifot::net::LanConfig wired_backbone() {
  ifot::net::LanConfig lan;
  lan.bandwidth_bps = 1e9;
  lan.propagation = ifot::from_millis(0.05);
  lan.jitter_max = ifot::from_millis(0.05);
  lan.per_frame_overhead = ifot::from_millis(0.01);
  return lan;
}

/// The sensor period SensorTask derives from `rate_hz` (same arithmetic).
SimDuration period_of(double rate_hz) {
  return static_cast<SimDuration>(static_cast<double>(ifot::kSecond) /
                                  rate_hz);
}

Workload paper_10hz(std::uint64_t seed) {
  Workload w;
  w.name = "paper_10hz";
  // The paper-experiment harness's fabric, verbatim: Raspberry-Pi cost
  // model, default Wi-Fi LAN, the stall model on.
  const ifot::mgmt::PaperExperimentConfig pc;
  w.config.lan = pc.lan;
  w.config.costs = pc.costs;
  w.config.flow_qos = pc.flow_qos;
  w.config.seed = seed;
  w.config.cpu_stall_mean_interval = pc.stall_mean_interval;
  w.config.cpu_stall_min = pc.stall_min;
  w.config.cpu_stall_max = pc.stall_max;
  w.modules = {
      {.name = "module_a", .sensors = {"sensor_a"}},
      {.name = "module_b", .sensors = {"sensor_b"}},
      {.name = "module_c", .sensors = {"sensor_c"}},
      {.name = "module_d", .broker = true, .accept_tasks = false},
      {.name = "module_e"},
      {.name = "module_f", .actuators = {"display"}},
  };
  w.recipes = {ifot::mgmt::paper_recipe_text(10, "arow")};
  w.sensor_modules = {"module_a", "module_b", "module_c"};
  w.window = 5400 * ifot::kSecond;
  w.slice = 270 * ifot::kSecond;
  w.drain = 5 * ifot::kSecond;
  // A stall freezes a module for up to 320 ms; anything beyond a second
  // of queued work is a growing backlog, not a stall.
  w.backlog_bound_ms = 1000;
  return w;
}

constexpr int kEtlDistricts = 64;
constexpr int kEtlSensors = 8;

Workload etl_city(std::uint64_t seed, int districts) {
  Workload w;
  w.name = "etl_city";
  Gen gen(seed);
  w.config.lan = wired_backbone();
  w.config.seed = seed;
  w.modules.push_back({.name = "gateway",
                       .cpu_factor = 50,
                       .broker = true,
                       .accept_tasks = false});
  w.modules.push_back(
      {.name = "monitor", .cpu_factor = 20, .accept_tasks = false});
  w.monitor_module = "monitor";
  for (int d = 0; d < districts; ++d) {
    const std::string dn = "d" + two(d);
    const std::string hub = "hub_" + dn;
    const std::string actuator = "act_" + dn;
    ModuleSpec hub_spec{.name = hub, .cpu_factor = 2};
    std::string r = "recipe " + dn + "\n";
    std::string edges;
    for (int s = 0; s < kEtlSensors; ++s) {
      const std::string i = std::to_string(s);
      const std::string device = dn + "_s" + i;
      hub_spec.sensors.push_back(device);
      const bool walk = gen.pick(2) == 1;
      const double rate = gen.uniform(1.5, 2.5);
      EtlChain c;
      c.sensor_topic = "ifot/" + dn + "/s" + i;
      c.sink_topic = "ifot/" + dn + "/a" + i;
      c.anomaly_task = "z" + i;
      c.actuator = actuator;
      // waveform: sin in [-1, 1]; random_walk: starts at 20, step 0.1.
      c.filter_gt = walk ? gen.uniform(18.5, 19.0) : gen.uniform(-0.9, -0.5);
      c.map_scale = gen.uniform(0.5, 2.0);
      c.map_offset = gen.uniform(-10, 40);
      c.window = 2 + gen.pick(3);  // 2..4
      c.z_threshold = gen.uniform(1.8, 2.6);
      r += "node s" + i + " : sensor { sensor = \"" + device +
           "\", model = \"" + (walk ? "random_walk" : "waveform") +
           "\", rate_hz = " + num(rate) + " }\n";
      r += "node f" + i + " : filter { field = \"value\", op = \"gt\", " +
           "value = " + num(c.filter_gt) + ", pin = \"etl_" + dn + "\" }\n";
      // num() rounds to 4 decimals; the checks must use what the recipe
      // says, so read the rounded values back.
      c.filter_gt = std::stod(num(c.filter_gt));
      c.map_scale = std::stod(num(c.map_scale));
      c.map_offset = std::stod(num(c.map_offset));
      c.z_threshold = std::stod(num(c.z_threshold));
      r += "node m" + i + " : map { field = \"value\", scale = " +
           num(c.map_scale) + ", offset = " + num(c.map_offset) +
           ", pin = \"etl_" + dn + "\" }\n";
      r += "node w" + i + " : window { size = " + std::to_string(c.window) +
           ", aggregate = \"mean\", pin = \"stats_" + dn + "\" }\n";
      r += "node z" + i + " : anomaly { algorithm = \"zscore\", " +
           "threshold = " + num(c.z_threshold) + ", emit = \"all\", " +
           "min_samples = " + std::to_string(c.z_min_samples) +
           ", pin = \"stats_" + dn + "\" }\n";
      r += "node a" + i + " : actuator { actuator = \"" + actuator + "\" }\n";
      edges += "edge s" + i + " -> f" + i + " -> m" + i + " -> w" + i +
               " -> z" + i + " -> a" + i + "\n";
      w.etl.push_back(std::move(c));
    }
    w.recipes.push_back(r + edges);
    w.modules.push_back(std::move(hub_spec));
    w.modules.push_back({.name = "etl_" + dn, .cpu_factor = 2});
    w.modules.push_back({.name = "stats_" + dn, .cpu_factor = 2});
    w.modules.push_back({.name = actuator, .actuators = {actuator}});
    w.sensor_modules.push_back(hub);
  }
  w.window = 50 * ifot::kSecond;
  w.slice = 10 * ifot::kSecond;
  w.drain = 5 * ifot::kSecond;
  w.backlog_bound_ms = 250;
  return w;
}

constexpr int kFedBrokers = 4;
constexpr int kFedDistricts = 16;
constexpr int kFedSensors = 4;

Workload fed_qos(std::uint64_t seed, int districts) {
  Workload w;
  w.name = "fed_qos";
  Gen gen(seed);
  w.config.lan = wired_backbone();
  w.config.seed = seed;
  w.config.federation.enabled = true;
  for (int b = 0; b < kFedBrokers; ++b) {
    w.modules.push_back({.name = "shard_" + std::to_string(b),
                         .cpu_factor = 20,
                         .broker = true,
                         .accept_tasks = false});
  }
  for (int d = 0; d < districts; ++d) {
    const std::string dn = "d" + two(d);
    const int owner = d % kFedBrokers;
    w.config.federation.prefixes.emplace_back("ifot/" + dn,
                                              static_cast<std::size_t>(owner));
    // Sensor flows and window outputs ride two different shards, neither
    // of which owns the district prefix.
    const int sensor_shard = (owner + 1) % kFedBrokers;
    const int window_shard = (owner + 2) % kFedBrokers;
    const std::string hub = "hub_" + dn;
    const std::string agg = "agg_" + dn;
    const std::string app = "app_" + dn;
    const std::string actuator = "act_" + dn;
    ModuleSpec hub_spec{.name = hub};
    std::string r = "recipe " + dn + "\n";
    std::string tap = "recipe " + dn + "_app\n";
    std::string edges;
    std::string tap_edges;
    for (int s = 0; s < kFedSensors; ++s) {
      const std::string i = std::to_string(s);
      const std::string device = dn + "_s" + i;
      hub_spec.sensors.push_back(device);
      const double rate = std::stod(num(gen.uniform(4.0, 6.0)));
      FedChain c;
      c.sensor_node = "s" + i;
      c.sensor_module = hub;
      c.sink_topic = "ifot/" + dn + "_app/a" + i;
      c.tap_task = "t" + i;
      c.actuator = actuator;
      c.window = 4 + gen.pick(3);  // 4..6
      c.period = period_of(rate);
      r += "node s" + i + " : sensor { sensor = \"" + device +
           "\", model = \"activity\", rate_hz = " + num(rate) +
           ", qos = 1, broker = " + std::to_string(sensor_shard) + " }\n";
      r += "node w" + i + " : window { size = " + std::to_string(c.window) +
           ", aggregate = \"mean\", qos = 2, broker = " +
           std::to_string(window_shard) + ", pin = \"" + agg + "\" }\n";
      edges += "edge s" + i + " -> w" + i + "\n";
      tap += "node t" + i + " : tap { topic = \"ifot/" + dn + "/w" + i +
             "\", topic_qos = 2, pin = \"" + app + "\" }\n";
      tap += "node a" + i + " : actuator { actuator = \"" + actuator +
             "\" }\n";
      tap_edges += "edge t" + i + " -> a" + i + "\n";
      w.fed.push_back(std::move(c));
    }
    w.recipes.push_back(r + edges);
    w.recipes.push_back(tap + tap_edges);
    w.modules.push_back(std::move(hub_spec));
    w.modules.push_back({.name = agg});
    w.modules.push_back({.name = app, .actuators = {actuator}});
    w.sensor_modules.push_back(hub);
  }
  w.window = 200 * ifot::kSecond;
  w.slice = 10 * ifot::kSecond;
  w.drain = 5 * ifot::kSecond;
  w.backlog_bound_ms = 250;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"paper_10hz", "etl_city",
                                                  "fed_qos"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       int districts) {
  if (name == "paper_10hz") return paper_10hz(seed);
  if (name == "etl_city") {
    return etl_city(seed, districts > 0 ? districts : kEtlDistricts);
  }
  if (name == "fed_qos") {
    return fed_qos(seed, districts > 0 ? districts : kFedDistricts);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
