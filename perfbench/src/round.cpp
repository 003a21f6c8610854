#include "round.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "alloc/allocator.hpp"
#include "node/flow_msg.hpp"
#include "recipe/parser.hpp"
#include "recipe/split.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ifot::core::Middleware;
using ifot::node::NeuronModule;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double to_ms(SimDuration d) { return static_cast<double>(d) / 1e6; }

/// Fails loudly: a workload the middleware refuses is a broken benchmark,
/// not a measurement.
[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

enum class Role : std::uint8_t { kIgnore, kSink, kTrain, kPredict };
struct TaskRole {
  Role role = Role::kIgnore;
  int chain = 0;
};

/// What the benchmark observes of one round, outside the program.
struct Capture {
  std::unordered_map<std::string, TaskRole> by_topic;
  std::unordered_map<const ifot::recipe::Task*, TaskRole> by_task;
  std::unordered_map<std::string, int> raw_by_topic;
  /// (actuator device, record source) -> chain
  std::map<std::pair<std::string, std::string>, int> by_record;
  Observed obs;

  TaskRole role_of(const ifot::recipe::Task& t) {
    auto it = by_task.find(&t);
    if (it != by_task.end()) return it->second;
    auto tt = by_topic.find(t.output_topic);
    const TaskRole r = tt == by_topic.end() ? TaskRole{} : tt->second;
    by_task.emplace(&t, r);
    return r;
  }
};

Capture make_capture(const Workload& w) {
  Capture cap;
  if (w.name == "paper_10hz") {
    cap.by_topic["ifot/paper_eval/display"] = {Role::kSink, 0};
    cap.by_topic["ifot/paper_eval/train"] = {Role::kTrain, 0};
    cap.by_topic["ifot/paper_eval/predictor"] = {Role::kPredict, 0};
    cap.by_record[{"display", "predictor"}] = 0;
    cap.obs.sinks.resize(1);
  }
  for (std::size_t c = 0; c < w.etl.size(); ++c) {
    const int ci = static_cast<int>(c);
    cap.by_topic[w.etl[c].sink_topic] = {Role::kSink, ci};
    cap.raw_by_topic[w.etl[c].sensor_topic] = ci;
    cap.by_record[{w.etl[c].actuator, w.etl[c].anomaly_task}] = ci;
  }
  for (std::size_t c = 0; c < w.fed.size(); ++c) {
    const int ci = static_cast<int>(c);
    cap.by_topic[w.fed[c].sink_topic] = {Role::kSink, ci};
    cap.by_record[{w.fed[c].actuator, w.fed[c].tap_task}] = ci;
  }
  if (!w.etl.empty()) {
    cap.obs.sinks.resize(w.etl.size());
    cap.obs.raw.resize(w.etl.size());
  }
  if (!w.fed.empty()) cap.obs.sinks.resize(w.fed.size());
  return cap;
}

/// The allocator deploy(text) uses, with a span around each call.
class TimedAllocator final : public ifot::alloc::Allocator {
 public:
  explicit TimedAllocator(Tracer* tracer)
      : tracer_(tracer), inner_(ifot::alloc::make_allocator("load_aware")) {}
  ifot::Result<ifot::alloc::Placement> allocate(
      const ifot::recipe::TaskGraph& graph,
      const std::vector<ifot::alloc::ModuleInfo>& modules) override {
    Span s(tracer_, "alloc.allocate");
    return inner_->allocate(graph, modules);
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  Tracer* tracer_;
  std::unique_ptr<ifot::alloc::Allocator> inner_;
};

void deploy_all(Middleware& mw, const Workload& w, Tracer* tracer) {
  if (tracer == nullptr) {
    for (const auto& text : w.recipes) {
      if (auto r = mw.deploy(text); !r) {
        die("deploy of " + w.name + " failed: " + r.error().to_string());
      }
    }
    return;
  }
  // Traced: the two calls deploy(text) makes, parse and deploy_with, so
  // parse and allocate get spans of their own. Split runs inside
  // deploy_with and is replayed after it for its span.
  TimedAllocator allocator(tracer);
  for (const auto& text : w.recipes) {
    Span all(tracer, "deploy");
    Span deploy(tracer, "core.deploy");
    ifot::Result<ifot::recipe::Recipe> parsed = [&] {
      Span s(tracer, "recipe.parse");
      return ifot::recipe::parse(text);
    }();
    if (!parsed) die("parse: " + parsed.error().to_string());
    if (auto r = mw.deploy_with(parsed.value(), allocator); !r) {
      die("deploy of " + w.name + " failed: " + r.error().to_string());
    }
    deploy.close();
    Span s(tracer, "recipe.split");
    if (!ifot::recipe::split_recipe(parsed.value())) die("split failed");
  }
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Joins the actuator records (value, label, sensing time) with the
/// completion hook's view (completion time, seq), per chain.
void merge_records(Middleware& mw, const Workload& w, Capture& cap,
                   CheckResult& problems) {
  auto& sinks = cap.obs.sinks;
  std::vector<std::size_t> next(sinks.size(), 0);
  for (const auto& spec : w.modules) {
    for (const auto& device : spec.actuators) {
      const auto* sink = mw.module_by_name(spec.name)->actuator(device);
      for (const auto& rec : sink->records()) {
        auto it = cap.by_record.find({device, rec.source});
        if (it == cap.by_record.end()) {
          problems.problem("record from unexpected source " + rec.source);
          continue;
        }
        const auto c = static_cast<std::size_t>(it->second);
        const std::size_t k = next[c]++;
        if (k >= sinks[c].size()) {
          problems.problem("actuator record without a completion");
          continue;
        }
        SinkOut& o = sinks[c][k];
        if (o.sensed_at != rec.sensed_at) {
          problems.problem("actuator record and completion disagree");
        }
        o.value = rec.value;
        o.label = rec.label;
      }
    }
  }
  for (std::size_t c = 0; c < sinks.size(); ++c) {
    if (next[c] != sinks[c].size()) {
      problems.problem("chain " + std::to_string(c) + ": " +
                       std::to_string(sinks[c].size()) +
                       " completions but " + std::to_string(next[c]) +
                       " actuator records");
      sinks[c].resize(std::min(next[c], sinks[c].size()));
    }
  }
}

std::uint64_t digest_of(const Observed& obs) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& chain : obs.sinks) {
    for (const auto& o : chain) {
      h = fnv(h, &o.done, sizeof o.done);
      h = fnv(h, &o.sensed_at, sizeof o.sensed_at);
      h = fnv(h, &o.seq, sizeof o.seq);
      h = fnv(h, &o.value, sizeof o.value);
      h = fnv(h, o.label.data(), o.label.size());
    }
  }
  for (const auto& p : obs.predictions) {
    h = fnv(h, p.label.data(), p.label.size());
  }
  return h;
}

/// Constructs the fabric and deploys the recipes: setup_s up to
/// start_flows().
void bring_up(Middleware& mw, const Workload& w, Tracer* tracer) {
  for (const auto& spec : w.modules) mw.add_module(spec);
  {
    Span s(tracer, "core.start");
    if (auto st = mw.start(); !st) die("start: " + st.error().to_string());
  }
  deploy_all(mw, w, tracer);
}

}  // namespace

Counts Counts::minus(const Counts& o) const {
  Counts d;
  d.events = events - o.events;
  d.frames = frames - o.frames;
  d.bytes = bytes - o.bytes;
  d.writes = writes - o.writes;
  d.packets_in = packets_in - o.packets_in;
  d.publishes_in = publishes_in - o.publishes_in;
  d.delivered = delivered - o.delivered;
  d.cache_hits = cache_hits - o.cache_hits;
  d.cache_misses = cache_misses - o.cache_misses;
  d.bridge_in = bridge_in - o.bridge_in;
  d.dispatched = dispatched - o.dispatched;
  d.dispatched_local = dispatched_local - o.dispatched_local;
  d.transport_writes = transport_writes - o.transport_writes;
  d.samples = samples - o.samples;
  return d;
}

Counts read_counts(Middleware& mw, const Workload& w) {
  Counts c;
  c.events = mw.simulator().stats().fired;
  const auto& net = mw.network().counters();
  c.frames = net.get("frames");
  c.bytes = net.get("bytes");
  c.writes = net.get("writes");
  for (const auto& spec : w.modules) {
    NeuronModule& m = *mw.module_by_name(spec.name);
    const auto& mc = m.counters();
    c.dispatched += mc.get("flow_dispatched");
    c.dispatched_local += mc.get("flow_dispatched_local");
    c.transport_writes += mc.get("transport_writes");
    if (m.broker() != nullptr) {
      const auto& bc = m.broker()->counters();
      c.packets_in += bc.get("packets_in");
      c.publishes_in += bc.get("publishes_in");
      c.delivered += bc.get("delivered_qos0") + bc.get("delivered_qos12");
      c.cache_hits += bc.get("route_cache_hits");
      c.cache_misses += bc.get("route_cache_misses");
      c.bridge_in += bc.get("bridge_in");
    }
  }
  for (const auto& name : w.sensor_modules) {
    c.samples += mw.module_by_name(name)->counters().get("samples_emitted");
  }
  return c;
}

double setup_once(const Workload& w) {
  const auto t_setup = Clock::now();
  Middleware mw(w.config);
  bring_up(mw, w, nullptr);
  mw.start_flows();
  return seconds_between(t_setup, Clock::now());
}

RoundResult run_round(const Workload& w, const RoundOptions& opt) {
  Tracer* const tracer = opt.tracer;
  RoundResult out;
  Capture cap = make_capture(w);

  const auto t_setup = Clock::now();
  Middleware mw(w.config);
  bring_up(mw, w, tracer);
  out.setup_s = seconds_between(t_setup, Clock::now());
  // The monitor's watches and the wait for their SUBSCRIBEs are the
  // benchmark's own observer, so they are left out of setup_s.
  if (!w.monitor_module.empty()) {
    // One wildcard watch per sensor node name covers every district's
    // raw flow and nothing else (operator nodes are named f/m/w/z/a).
    const auto monitor = mw.module_by_name(w.monitor_module)->id();
    std::set<std::string> sensor_nodes;
    for (const auto& c : w.etl) {
      sensor_nodes.insert(c.sensor_topic.substr(c.sensor_topic.rfind('/')));
    }
    for (const auto& node : sensor_nodes) {
      auto st = mw.watch(monitor, "ifot/+" + node,
                         [&cap, &opt](const std::string& topic,
                                      const ifot::Bytes& payload) {
                           if (!opt.capture) return;
                           auto it = cap.raw_by_topic.find(topic);
                           if (it == cap.raw_by_topic.end()) return;
                           auto flow = ifot::node::decode_flow(
                               ifot::BytesView(payload));
                           if (!flow) return;
                           const auto* s =
                               std::get_if<ifot::device::Sample>(&flow.value());
                           if (s == nullptr) return;
                           cap.obs.raw[static_cast<std::size_t>(it->second)]
                               .push_back({s->seq, s->sensed_at,
                                           s->field("value", 0)});
                         });
      if (!st) die("watch: " + st.error().to_string());
    }
    mw.run_for(ifot::from_millis(300));  // let the SUBSCRIBEs settle
  }
  if (opt.capture) mw.set_completion_hook([&cap](const ifot::recipe::Task& task,
                                const ifot::device::Sample& s,
                                ifot::SimTime now) {
    const TaskRole r = cap.role_of(task);
    switch (r.role) {
      case Role::kIgnore:
        break;
      case Role::kSink:
        cap.obs.sinks[static_cast<std::size_t>(r.chain)].push_back(
            {now, s.sensed_at, s.seq, 0, {}});
        break;
      case Role::kTrain:
        cap.obs.train_ms.push_back(to_ms(now - s.sensed_at));
        break;
      case Role::kPredict:
        cap.obs.predict_ms.push_back(to_ms(now - s.sensed_at));
        cap.obs.predictions.push_back({s.label, s.field("ax", 0),
                                   s.field("ay", 0), s.field("az", 0)});
        break;
    }
  });

  std::vector<NeuronModule*> modules;
  for (const auto& spec : w.modules) {
    modules.push_back(mw.module_by_name(spec.name));
  }
  std::vector<SimDuration> busy0;
  for (auto* m : modules) busy0.push_back(m->cpu().total_busy());
  const Counts c0 = read_counts(mw, w);
  const ifot::SimTime t0 = mw.simulator().now();
  const auto t_flows = Clock::now();
  mw.start_flows();
  out.setup_s += seconds_between(t_flows, Clock::now());

  // Timed window: fixed virtual slices; the backlog is sampled at each
  // boundary (and, traced, the fabric's counters).
  const SimDuration slice = w.slice;
  const auto t_window = Clock::now();

  std::vector<const NeuronModule*> sensor_modules;
  for (const auto& name : w.sensor_modules) {
    sensor_modules.push_back(mw.module_by_name(name));
  }
  auto emitted = [&sensor_modules] {
    std::uint64_t n = 0;
    for (const auto* m : sensor_modules) {
      n += m->counters().get("samples_emitted");
    }
    return n;
  };
  std::uint64_t emitted_before = emitted();
  for (SimDuration done = 0; done < w.window; done += slice) {
    Span s(tracer, "run_for.slice");
    const auto t_slice = Clock::now();
    mw.run_for(slice);
    const double slice_s = seconds_between(t_slice, Clock::now());
    const std::uint64_t emitted_after = emitted();
    out.slice_rates.push_back(
        static_cast<double>(emitted_after - emitted_before) / slice_s);
    emitted_before = emitted_after;
    for (auto* m : modules) {
      out.backlog_max_ms =
          std::max(out.backlog_max_ms, to_ms(m->cpu().backlog()));
    }
    if (tracer != nullptr) {
      const Counts c = read_counts(mw, w).minus(c0);
      s.attr("virtual_s", static_cast<double>(mw.simulator().now() - t0) / 1e9);
      s.attr("samples", static_cast<double>(c.samples));
      s.attr("events", static_cast<double>(c.events));
      s.attr("frames", static_cast<double>(c.frames));
      s.attr("publishes_in", static_cast<double>(c.publishes_in));
      s.attr("dispatched", static_cast<double>(c.dispatched));
    }
  }
  out.window_s = seconds_between(t_window, Clock::now());

  for (std::size_t i = 0; i < modules.size(); ++i) {
    const double util =
        static_cast<double>(modules[i]->cpu().total_busy() - busy0[i]) /
        static_cast<double>(w.window);
    out.cpu_util_max = std::max(out.cpu_util_max, util);
  }
  mw.stop_flows();
  {
    Span s(tracer, "drain");
    mw.run_for(w.drain);
  }
  out.delta = read_counts(mw, w).minus(c0);
  out.trace_hash = mw.simulator().trace_hash();
  out.events_executed = mw.simulator().events_executed();
  out.delivery_p50_ms = mw.network().delivery_latency().percentile_ms(50);
  const auto stats = mw.simulator().stats();
  out.pool_bytes = stats.pool_retained_bytes;
  out.occupancy_high_water = stats.occupancy_high_water;

  if (!opt.capture) return out;
  CheckResult merge;
  merge_records(mw, w, cap, merge);
  cap.obs.t0 = t0;
  cap.obs.samples = out.delta.samples;
  out.check = check_round(w, cap.obs);
  for (auto& p : merge.problems) out.check.problem(std::move(p));
  if (out.backlog_max_ms > w.backlog_bound_ms) {
    out.check.problem("CPU backlog reached " +
                      std::to_string(out.backlog_max_ms) + " ms (bound " +
                      std::to_string(w.backlog_bound_ms) +
                      " ms): the load is not sustainable");
  }
  out.digest = digest_of(cap.obs);
  out.observed = std::move(cap.obs);
  if (opt.inspect) opt.inspect(mw, out);
  return out;
}

CheckResult check_round(const Workload& w, const Observed& o) {
  if (w.name == "paper_10hz") {
    return check_paper(o.samples, o.sinks[0], o.predictions, o.train_ms,
                       o.predict_ms);
  }
  if (w.name == "etl_city") {
    CheckResult r = check_etl(w, o.raw, o.sinks);
    std::uint64_t seen = 0;
    for (const auto& chain : o.raw) seen += chain.size();
    if (seen != o.samples) {
      r.problem("monitor saw " + std::to_string(seen) + " raw samples of " +
                std::to_string(o.samples) + " emitted");
    }
    return r;
  }
  CheckResult r = check_fed(w, o.t0, o.sinks);
  // The per-sensor tick arithmetic must add up to what the hubs emitted.
  std::uint64_t expected = 0;
  for (const auto& c : w.fed) expected += ticks_in(w.window, c.period);
  if (expected != o.samples) {
    r.problem("hubs emitted " + std::to_string(o.samples) +
              " samples, the sensor periods give " + std::to_string(expected));
  }
  return r;
}

}  // namespace perfbench
