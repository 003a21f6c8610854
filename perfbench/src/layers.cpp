#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "device/actuator_sim.hpp"
#include "device/sample.hpp"
#include "device/sensor_sim.hpp"
#include "ml/classifier.hpp"
#include "ml/model_io.hpp"
#include "mqtt/broker.hpp"
#include "mqtt/client.hpp"
#include "mqtt/packet.hpp"
#include "net/network.hpp"
#include "node/flow_msg.hpp"
#include "node/tasks.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld",
                 i, s.name.c_str(), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    for (const auto& [k, v] : s.attrs) {
      std::fprintf(f, ", \"%s\": %.17g", k.c_str(), v);
    }
    std::fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

namespace {

using namespace ifot;
using Clock = std::chrono::steady_clock;

/// Spans whose name starts with "replay." hold the ns/op figures: every
/// replay repeats its operation until this much wall time has passed.
constexpr double kReplaySeconds = 0.05;

/// Repeats `pass` (which returns how many operations it performed)
/// under a span until kReplaySeconds have passed; returns ns per
/// operation.
template <typename F>
double replay(Tracer& tracer, const std::string& name, F&& pass) {
  Span span(&tracer, "replay." + name);
  std::size_t done = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    done += pass();
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < kReplaySeconds);
  span.attr("ops", static_cast<double>(done));
  span.close();
  return elapsed * 1e9 / static_cast<double>(std::max<std::size_t>(done, 1));
}

/// Keeps a computed value observable so replay loops are not elided.
volatile std::size_t g_sink = 0;

/// mqtt::Scheduler that never fires (the replays are synchronous).
class NullSched final : public mqtt::Scheduler {
 public:
  SimTime now() override { return 0; }
  std::uint64_t call_after(SimDuration, std::function<void()>) override {
    return ++next_;
  }
  void cancel(std::uint64_t) override {}

 private:
  std::uint64_t next_ = 0;
};

/// TaskContext that swallows outputs (FlowTask::process replays).
class StubContext final : public node::TaskContext {
 public:
  [[nodiscard]] SimTime now() const override { return 0; }
  void emit_sample(const recipe::Task&, device::Sample s) override {
    g_sink = g_sink + s.fields.size();
  }
  void emit_model(const recipe::Task&, Bytes model) override {
    g_sink = g_sink + model.size();
  }
  void report_completion(const recipe::Task&, const device::Sample&) override {
    g_sink = g_sink + 1;
  }
};

struct SensorFlow {
  std::string topic;
  mqtt::QoS qos = mqtt::QoS::kAtMostOnce;
};

/// The workload's data, read back from the live fabric.
struct Replay {
  std::vector<device::Sample> samples;  ///< from the workload's sensor models
  std::vector<SensorFlow> flows;        ///< parallel to samples
  /// module name -> (filter, qos) it subscribes to
  std::map<std::string, std::vector<mqtt::TopicRequest>> subscriptions;
  /// node type -> (task, node) of its first deployment
  std::map<std::string, std::pair<recipe::Task, recipe::RecipeNode>> tasks;
};

mqtt::QoS qos_of(int hint, mqtt::QoS fallback) {
  return hint >= 0 && hint <= 2 ? static_cast<mqtt::QoS>(hint) : fallback;
}

Replay read_replay(core::Middleware& mw, const Workload& w) {
  Replay r;
  constexpr std::size_t kSensors = 32;
  constexpr std::size_t kPerSensor = 64;
  std::size_t sensors = 0;
  for (const auto& d : mw.deployments()) {
    for (std::size_t ti = 0; ti < d.graph.tasks.size(); ++ti) {
      const recipe::Task& task = d.graph.tasks[ti];
      const recipe::RecipeNode& node = d.graph.recipe.nodes[task.recipe_node];
      r.tasks.try_emplace(node.type, task, node);
      const std::string& module = mw.network().host_name(
          d.placement.task_module[ti]);
      for (std::size_t i = 0; i < task.input_topics.size(); ++i) {
        r.subscriptions[module].push_back(
            {task.input_topics[i],
             qos_of(task.input_qos[i], w.config.flow_qos)});
      }
      if (node.type != "sensor" || sensors == kSensors) continue;
      // The sensor as SensorTask drives it: model kind from the recipe,
      // source/seq/sensed_at stamped per tick.
      auto model = device::make_sensor_model(node.str("model", "waveform"),
                                             Rng(w.config.seed + sensors));
      const auto period = static_cast<SimDuration>(
          static_cast<double>(kSecond) / node.num("rate_hz", 1.0));
      for (std::size_t k = 0; k < kPerSensor; ++k) {
        const SimTime t = static_cast<SimTime>(k + 1) * period;
        device::Sample s = model.value()->sample(t);
        s.source = node.name;
        s.seq = k;
        s.sensed_at = t;
        r.samples.push_back(std::move(s));
        r.flows.push_back(
            {task.output_topic, qos_of(task.output_qos, w.config.flow_qos)});
      }
      ++sensors;
    }
  }
  if (!w.monitor_module.empty()) {
    std::set<std::string> nodes;
    for (const auto& c : w.etl) {
      nodes.insert(c.sensor_topic.substr(c.sensor_topic.rfind('/')));
    }
    for (const auto& n : nodes) {
      r.subscriptions[w.monitor_module].push_back(
          {"ifot/+" + n, w.config.flow_qos});
    }
  }
  return r;
}

/// ML replay inputs: the workload's samples as feature vectors, labelled
/// by the sensor (activity) or by the sign of the first field.
struct MlSet {
  std::vector<ml::FeatureVector> x;
  std::vector<std::string> y;
};

MlSet ml_set(const Replay& r) {
  MlSet m;
  for (const auto& s : r.samples) {
    m.x.push_back(node::features_of(s));
    if (!s.label.empty()) {
      m.y.push_back(s.label);
    } else {
      m.y.push_back(!s.fields.empty() && s.fields.front().second >= 0 ? "high"
                                                                       : "low");
    }
  }
  return m;
}

/// Broker replay: one session per subscribing module with the workload's
/// subscription table, a publisher injecting the sensor flows at their
/// QoS, and a responder completing every QoS handshake. Only the
/// Broker::on_link_data calls carrying the PUBLISHes are timed.
double broker_publish_ns(Tracer& tracer, const Workload& w, const Replay& r) {
  NullSched sched;
  mqtt::Broker broker(sched, w.config.broker);
  struct Peer {
    mqtt::StreamDecoder decoder;
    std::vector<Bytes> inbox;
  };
  std::vector<std::unique_ptr<Peer>> peers;
  auto open = [&](const std::string& id) {
    const auto link = static_cast<mqtt::LinkId>(peers.size() + 1);
    peers.push_back(std::make_unique<Peer>());
    Peer* p = peers.back().get();
    broker.on_link_open(
        link, [p](const Bytes& b) { p->inbox.push_back(b); }, [] {});
    mqtt::Connect c;
    c.client_id = id;
    broker.on_link_data(link, BytesView(mqtt::encode(mqtt::Packet{c})));
    return link;
  };
  // Answers what the broker sent: PUBACK/PUBREC for deliveries, PUBCOMP
  // for PUBREL, PUBREL for the publisher's PUBREC.
  auto respond = [&] {
    for (bool more = true; more;) {
      more = false;
      for (std::size_t i = 0; i < peers.size(); ++i) {
        Peer& p = *peers[i];
        std::vector<Bytes> inbox;
        inbox.swap(p.inbox);
        for (const auto& b : inbox) p.decoder.feed(BytesView(b));
        for (;;) {
          auto next = p.decoder.next();
          if (!next || !next.value()) break;
          const mqtt::Packet& pk = *next.value();
          std::optional<mqtt::Packet> reply;
          if (const auto* pub = std::get_if<mqtt::Publish>(&pk)) {
            if (pub->qos == mqtt::QoS::kAtLeastOnce) {
              reply = mqtt::Puback{pub->packet_id};
            } else if (pub->qos == mqtt::QoS::kExactlyOnce) {
              reply = mqtt::Pubrec{pub->packet_id};
            }
          } else if (const auto* rel = std::get_if<mqtt::Pubrel>(&pk)) {
            reply = mqtt::Pubcomp{rel->packet_id};
          } else if (const auto* rec = std::get_if<mqtt::Pubrec>(&pk)) {
            reply = mqtt::Pubrel{rec->packet_id};
          }
          if (reply) {
            broker.on_link_data(static_cast<mqtt::LinkId>(i + 1),
                                BytesView(mqtt::encode(*reply)));
            more = true;
          }
        }
      }
    }
  };
  for (const auto& [module, reqs] : r.subscriptions) {
    const mqtt::LinkId link = open(module);
    mqtt::Subscribe s;
    s.packet_id = 1;
    s.topics = reqs;
    broker.on_link_data(link, BytesView(mqtt::encode(mqtt::Packet{s})));
  }
  const mqtt::LinkId pub = open("replay_publisher");
  respond();
  std::vector<Bytes> wire;
  for (std::size_t i = 0; i < r.samples.size(); ++i) {
    mqtt::Publish p;
    p.topic = r.flows[i].topic;
    p.payload = node::encode_flow(r.samples[i]);
    p.qos = r.flows[i].qos;
    if (p.qos != mqtt::QoS::kAtMostOnce) {
      p.packet_id = static_cast<std::uint16_t>(i % 65535 + 1);
    }
    wire.push_back(mqtt::encode(mqtt::Packet{p}));
  }
  Span span(&tracer, "replay.mqtt.broker_publish");
  double ns = 0;
  std::size_t done = 0;
  const auto start = Clock::now();
  do {
    for (const auto& b : wire) {
      const auto t = Clock::now();
      broker.on_link_data(pub, BytesView(b));
      ns += std::chrono::duration<double, std::nano>(Clock::now() - t).count();
      respond();
    }
    done += wire.size();
  } while (std::chrono::duration<double>(Clock::now() - start).count() <
           kReplaySeconds);
  span.attr("ops", static_cast<double>(done));
  span.attr("delivered", static_cast<double>(
                             broker.counters().get("delivered_qos0") +
                             broker.counters().get("delivered_qos12")));
  span.attr("qos2_backlog",
            static_cast<double>(broker.inbound_qos2_backlog()));
  return ns / static_cast<double>(std::max<std::size_t>(done, 1));
}

/// Client replay: Client::publish of the sensor flows at their QoS; acks
/// are fed back untimed so the inflight window never fills.
double client_publish_ns(Tracer& tracer, const Replay& r) {
  NullSched sched;
  std::vector<Bytes> sent;
  mqtt::ClientConfig cc;
  cc.client_id = "replay_client";
  mqtt::Client client(sched, cc, [&sent](const Bytes& b) { sent.push_back(b); });
  client.on_transport_open();
  client.on_data(BytesView(mqtt::encode(mqtt::Packet{mqtt::Connack{}})));
  std::vector<SharedPayload> payloads;
  for (const auto& s : r.samples) payloads.emplace_back(node::encode_flow(s));
  Span span(&tracer, "replay.mqtt.client_publish");
  double ns = 0;
  std::size_t done = 0;
  const auto start = Clock::now();
  do {
    for (std::size_t i = 0; i < r.samples.size(); ++i) {
      sent.clear();
      const auto t = Clock::now();
      (void)client.publish(r.flows[i].topic, payloads[i], r.flows[i].qos,
                           false);
      ns += std::chrono::duration<double, std::nano>(Clock::now() - t).count();
      for (std::size_t k = 0; k < sent.size(); ++k) {
        auto pk = mqtt::decode(BytesView(sent[k]));
        if (!pk) continue;
        if (const auto* p = std::get_if<mqtt::Publish>(&pk.value())) {
          if (p->qos == mqtt::QoS::kAtLeastOnce) {
            client.on_data(BytesView(mqtt::encode(mqtt::Puback{p->packet_id})));
          } else if (p->qos == mqtt::QoS::kExactlyOnce) {
            client.on_data(BytesView(mqtt::encode(mqtt::Pubrec{p->packet_id})));
          }
        } else if (const auto* rel = std::get_if<mqtt::Pubrel>(&pk.value())) {
          client.on_data(BytesView(mqtt::encode(mqtt::Pubcomp{rel->packet_id})));
        }
      }
    }
    done += r.samples.size();
  } while (std::chrono::duration<double>(Clock::now() - start).count() <
           kReplaySeconds);
  span.attr("ops", static_cast<double>(done));
  // Every QoS 1/2 publish was acknowledged: none is left in flight.
  span.attr("inflight_left", static_cast<double>(client.inflight_count()));
  return ns / static_cast<double>(std::max<std::size_t>(done, 1));
}

/// net replay: send_frames between the fabric's hosts with the workload's
/// frame size and frames per write, plus the delivery events they cause.
double net_send_ns(Tracer& tracer, const Workload& w, const Counts& c) {
  const std::size_t frame_bytes =
      c.frames == 0 ? 64 : static_cast<std::size_t>(c.bytes / c.frames);
  const std::size_t per_write = std::max<std::uint64_t>(
      1, c.writes == 0 ? 1 : (c.frames + c.writes / 2) / c.writes);
  sim::Simulator sim;
  net::Network net(sim, w.config.lan, w.config.seed);
  std::vector<NodeId> hosts;
  for (const auto& m : w.modules) {
    hosts.push_back(net.add_host(m.name));
    net.set_handler(hosts.back(), [](NodeId, const Bytes& b) {
      g_sink = g_sink + b.size();
    });
  }
  const Bytes frame(frame_bytes, 0x5A);
  std::size_t k = 0;
  return replay(tracer, "net.send", [&] {
    for (int i = 0; i < 256; ++i, ++k) {
      const NodeId from = hosts[k % hosts.size()];
      const NodeId to = hosts[(k * 7 + 1) % hosts.size()];
      net.send_frames(from, to, std::vector<Bytes>(per_write, frame));
    }
    sim.run_until(sim.now() + 60 * kSecond);
    return 256 * per_write;
  });
}

/// sim replay: as many live events as the round's high-water mark, each
/// re-scheduling itself 0..10 ms ahead.
double sim_event_ns(Tracer& tracer, std::size_t live) {
  sim::Simulator sim;
  Rng rng(7);
  live = std::max<std::size_t>(live, 1);
  struct Ticker {
    sim::Simulator* sim;
    Rng* rng;
    void operator()() const {
      sim->schedule_after(
          static_cast<SimDuration>(rng->below(10'000'000)), Ticker{sim, rng});
    }
  };
  for (std::size_t i = 0; i < live; ++i) {
    sim.schedule_after(static_cast<SimDuration>(rng.below(10'000'000)),
                       Ticker{&sim, &rng});
  }
  return replay(tracer, "sim.event",
                [&] { return sim.run_until(sim.now() + 10 * kMillisecond); });
}

std::unique_ptr<node::FlowTask> make_task(
    const std::string& type, const recipe::Task& task,
    const recipe::RecipeNode& node, device::ActuatorSink* sink) {
  if (type == "filter") return std::make_unique<node::FilterTask>(task, node);
  if (type == "map") return std::make_unique<node::MapTask>(task, node);
  if (type == "window") return std::make_unique<node::WindowTask>(task, node);
  if (type == "anomaly") return std::make_unique<node::AnomalyTask>(task, node);
  if (type == "train") return std::make_unique<node::TrainTask>(task, node);
  if (type == "predict") return std::make_unique<node::PredictTask>(task, node);
  if (type == "tap") return std::make_unique<node::MergeTask>(task, node);
  return std::make_unique<node::ActuatorTask>(task, node, sink);
}

}  // namespace

const std::vector<std::string>& replayed_task_types() {
  static const std::vector<std::string> kTypes = {
      "filter", "map", "window", "anomaly", "train", "predict", "tap",
      "actuator"};
  return kTypes;
}

std::vector<Metric> layer_metrics(const Workload& w,
                                  const RoundResult& untraced,
                                  Tracer& tracer, RoundResult& traced) {
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit)});
  };
  const Counts& c = untraced.delta;
  const double samples = static_cast<double>(std::max<std::uint64_t>(c.samples, 1));
  auto per_sample = [samples](std::uint64_t n) {
    return static_cast<double>(n) / samples;
  };
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };

  std::map<std::string, double> ns;  // replayed cost per operation
  std::map<std::string, double> task_ns;
  double sample_bytes = 0;
  double model_bytes = 0;
  std::set<std::string> deployed;  // task types the workload deploys
  RoundOptions opt;
  opt.tracer = &tracer;
  opt.inspect = [&](core::Middleware& mw, const RoundResult&) {
    Span all(&tracer, "replays");
    const Replay r = read_replay(mw, w);
    for (const auto& [type, _] : r.tasks) deployed.insert(type);
    const std::size_t n = r.samples.size();
    std::vector<Bytes> encoded;
    std::vector<Bytes> flows;
    for (const auto& s : r.samples) {
      encoded.push_back(device::encode(s));
      sample_bytes += static_cast<double>(encoded.back().size());
      flows.push_back(node::encode_flow(s));
    }
    sample_bytes /= static_cast<double>(std::max<std::size_t>(n, 1));

    // device
    {
      std::vector<std::unique_ptr<device::SensorModel>> models;
      for (std::size_t i = 0; i < n; i += 64) {
        const std::string kind =
            r.samples[i].label.empty() ? "waveform" : "activity";
        models.push_back(std::move(
            device::make_sensor_model(kind, Rng(i + 1)).value()));
      }
      SimTime t = 0;
      ns["device.sensor_sample"] = replay(tracer, "device.sensor_sample", [&] {
        for (auto& model : models) {
          for (int k = 0; k < 64; ++k) {
            g_sink = g_sink + model->sample(t += kMillisecond).fields.size();
          }
        }
        return models.size() * 64;
      });
    }
    ns["device.sample_encode"] = replay(tracer, "device.sample_encode", [&] {
      for (const auto& s : r.samples) g_sink = g_sink + device::encode(s).size();
      return n;
    });
    ns["device.sample_decode"] = replay(tracer, "device.sample_decode", [&] {
      for (const auto& b : encoded) {
        g_sink = g_sink + device::decode_sample(BytesView(b)).value().seq;
      }
      return n;
    });
    // node codec
    ns["node.flow_encode"] = replay(tracer, "node.flow_encode", [&] {
      for (const auto& s : r.samples) g_sink = g_sink + node::encode_flow(s).size();
      return n;
    });
    // node dispatch: each PUBLISH a module receives is matched against
    // every input filter deployed there (NeuronModule::on_flow_message).
    {
      std::set<std::string> topics;
      for (const auto& f : r.flows) topics.insert(f.topic);
      std::vector<std::pair<const std::vector<mqtt::TopicRequest>*,
                            std::string>> deliveries;
      for (const auto& [module, reqs] : r.subscriptions) {
        for (const auto& t : topics) {
          for (const auto& req : reqs) {
            if (mqtt::topic_matches(req.filter, t)) {
              deliveries.emplace_back(&reqs, t);
              break;
            }
          }
        }
      }
      ns["node.filter_match"] = replay(tracer, "node.filter_match", [&] {
        for (const auto& [reqs, t] : deliveries) {
          for (const auto& req : *reqs) {
            g_sink = g_sink + (mqtt::topic_matches(req.filter, t) ? 1 : 0);
          }
        }
        return std::max<std::size_t>(deliveries.size(), 1);
      });
    }
    ns["node.flow_decode"] = replay(tracer, "node.flow_decode", [&] {
      for (const auto& b : flows) {
        g_sink = g_sink + node::decode_flow(BytesView(b)).value().index();
      }
      return n;
    });
    // mqtt codec
    std::vector<Bytes> packets;
    for (std::size_t i = 0; i < n; ++i) {
      mqtt::Publish p;
      p.topic = r.flows[i].topic;
      p.payload = flows[i];
      p.qos = r.flows[i].qos;
      if (p.qos != mqtt::QoS::kAtMostOnce) p.packet_id = 1;
      packets.push_back(mqtt::encode(mqtt::Packet{p}));
    }
    ns["mqtt.encode"] = replay(tracer, "mqtt.encode", [&] {
      for (std::size_t i = 0; i < n; ++i) {
        mqtt::Publish p;
        p.topic = r.flows[i].topic;
        p.payload = flows[i];
        p.qos = r.flows[i].qos;
        if (p.qos != mqtt::QoS::kAtMostOnce) p.packet_id = 1;
        g_sink = g_sink + mqtt::encode(mqtt::Packet{p}).size();
      }
      return n;
    });
    ns["mqtt.decode"] = replay(tracer, "mqtt.decode", [&] {
      for (const auto& b : packets) {
        g_sink = g_sink + mqtt::decode(BytesView(b)).value().index();
      }
      return n;
    });
    ns["mqtt.broker_publish"] = broker_publish_ns(tracer, w, r);
    ns["mqtt.client_publish"] = client_publish_ns(tracer, r);
    ns["net.send"] = net_send_ns(tracer, w, c);
    ns["sim.event"] = sim_event_ns(tracer, untraced.occupancy_high_water);

    // ml
    const MlSet set = ml_set(r);
    auto clf = ml::make_classifier("arow");
    ns["ml.train"] = replay(tracer, "ml.train", [&] {
      for (std::size_t i = 0; i < n; ++i) clf->train(set.x[i], set.y[i]);
      return n;
    });
    ns["ml.classify"] = replay(tracer, "ml.classify", [&] {
      for (const auto& x : set.x) g_sink = g_sink + clf->classify(x).label.size();
      return n;
    });
    const Bytes model = ml::ModelCodec::encode(clf->model());
    model_bytes = static_cast<double>(model.size());

    // node tasks: FlowTask::process with a stub context, on the
    // workload's own recipe node where the type is deployed.
    StubContext ctx;
    device::ActuatorSink sink("replay");
    for (const auto& type : replayed_task_types()) {
      recipe::Task task;
      recipe::RecipeNode node;
      if (auto it = r.tasks.find(type); it != r.tasks.end()) {
        task = it->second.first;
        node = it->second.second;
      } else {
        task.name = "replay_" + type;
        task.output_topic = "ifot/replay/" + type;
        node.name = task.name;
        node.type = type;
      }
      auto flow_task = make_task(type, task, node, &sink);
      std::vector<node::FlowPayload> inputs;
      if (type == "predict") {
        flow_task->process(ctx, node::ModelMsg{"replay_train", model});
      }
      for (std::size_t i = 0; i < n; ++i) {
        device::Sample s = r.samples[i];
        if (type == "train") s.label = set.y[i];
        inputs.emplace_back(std::move(s));
      }
      task_ns[type] = replay(tracer, "node.task." + type, [&] {
        for (const auto& in : inputs) flow_task->process(ctx, in);
        sink.clear();
        return n;
      });
    }
  };
  traced = run_round(w, opt);

  // Spans of the traced round.
  std::map<std::string, std::pair<double, int>> span_ns;  // name -> (sum, n)
  tracer.visit([&span_ns](const std::string& name, std::int64_t ns_) {
    auto& [sum, count] = span_ns[name];
    sum += static_cast<double>(ns_);
    ++count;
  });
  auto mean_span = [&span_ns](const std::string& name) {
    auto it = span_ns.find(name);
    return it == span_ns.end() || it->second.second == 0
               ? 0.0
               : it->second.first / it->second.second;
  };

  add("core.start_ms", mean_span("core.start") / 1e6, "ms");
  add("core.deploy_ms_per_recipe", mean_span("core.deploy") / 1e6, "ms");
  add("recipe.parse_us_per_recipe", mean_span("recipe.parse") / 1e3, "us");
  add("recipe.split_us_per_recipe", mean_span("recipe.split") / 1e3, "us");
  add("alloc.allocate_us_per_recipe", mean_span("alloc.allocate") / 1e3, "us");

  add("sim.events_per_sample", per_sample(c.events), "events/sample");
  add("sim.ns_per_event", ns["sim.event"], "ns");
  add("sim.pool_bytes", static_cast<double>(untraced.pool_bytes), "B");

  add("net.frames_per_sample", per_sample(c.frames), "frames/sample");
  add("net.frames_per_write", ratio(c.frames, c.writes), "frames/write");
  add("net.bytes_per_frame", ratio(c.bytes, c.frames), "B/frame");
  add("net.send_ns_per_frame", ns["net.send"], "ns");
  add("net.delivery_p50_ms", untraced.delivery_p50_ms, "ms");

  add("mqtt.packets_in_per_sample", per_sample(c.packets_in), "packets/sample");
  add("mqtt.deliveries_per_sample", per_sample(c.delivered), "msgs/sample");
  add("mqtt.route_cache_hit_ratio",
      ratio(c.cache_hits, c.cache_hits + c.cache_misses), "ratio");
  add("mqtt.bridge_msgs_per_sample", per_sample(c.bridge_in), "msgs/sample");
  add("mqtt.encode_ns", ns["mqtt.encode"], "ns");
  add("mqtt.decode_ns", ns["mqtt.decode"], "ns");
  add("mqtt.broker_publish_ns", ns["mqtt.broker_publish"], "ns");
  add("mqtt.client_publish_ns", ns["mqtt.client_publish"], "ns");

  const std::uint64_t dispatches = c.dispatched + c.dispatched_local;
  add("node.flow_dispatches_per_sample", per_sample(dispatches),
      "dispatch/sample");
  add("node.local_dispatch_ratio", ratio(c.dispatched_local, dispatches),
      "ratio");
  add("node.transport_writes_per_sample", per_sample(c.transport_writes),
      "writes/sample");
  add("node.cpu_util_max", untraced.cpu_util_max, "ratio");
  add("node.backlog_max_ms", untraced.backlog_max_ms, "ms");
  add("node.flow_encode_ns", ns["node.flow_encode"], "ns");
  add("node.flow_decode_ns", ns["node.flow_decode"], "ns");
  add("node.filter_match_ns", ns["node.filter_match"], "ns");
  for (const auto& type : replayed_task_types()) {
    add("node.task_ns." + type, task_ns[type], "ns");
  }

  add("device.sample_bytes", sample_bytes, "B");
  add("device.sample_encode_ns", ns["device.sample_encode"], "ns");
  add("device.sample_decode_ns", ns["device.sample_decode"], "ns");
  add("device.sensor_sample_ns", ns["device.sensor_sample"], "ns");

  add("ml.train_ns", ns["ml.train"], "ns");
  add("ml.classify_ns", ns["ml.classify"], "ns");
  add("ml.model_bytes", model_bytes, "B");

  // Ledger: count per sample x replayed cost, per layer. Task processing
  // uses the mean replayed cost of the task types this workload deploys.
  double task_mean = 0;
  int task_types = 0;
  for (const auto& type : replayed_task_types()) {
    if (deployed.count(type) == 0) continue;
    task_mean += task_ns[type];
    ++task_types;
  }
  if (task_types > 0) task_mean /= task_types;
  const std::uint64_t client_pubs =
      c.publishes_in > c.bridge_in ? c.publishes_in - c.bridge_in : 0;
  const double attributed =
      per_sample(c.events) * ns["sim.event"] +
      per_sample(c.frames) * ns["net.send"] +
      per_sample(c.publishes_in) * ns["mqtt.broker_publish"] +
      per_sample(client_pubs) *
          (ns["mqtt.client_publish"] + ns["node.flow_encode"]) +
      per_sample(c.delivered) * (ns["mqtt.decode"] + ns["node.flow_decode"] +
                                 ns["node.filter_match"]) +
      per_sample(dispatches) * task_mean + ns["device.sensor_sample"];
  const double untraced_ns = untraced.window_s * 1e9 / samples;
  const double traced_ns =
      traced.window_s * 1e9 /
      static_cast<double>(std::max<std::uint64_t>(traced.delta.samples, 1));
  add("ledger.attributed_ns_per_sample", attributed, "ns/sample");
  add("ledger.unattributed_ns_per_sample", untraced_ns - attributed,
      "ns/sample");
  add("ledger.untraced_samples_per_s", 1e9 / untraced_ns, "samples/s");
  add("ledger.traced_samples_per_s", 1e9 / traced_ns, "samples/s");
  add("ledger.tracing_overhead_pct", 100.0 * (traced_ns / untraced_ns - 1.0),
      "%");
  return m;
}

}  // namespace perfbench
