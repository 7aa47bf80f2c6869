// perfbench_sim: runs one benchmark workload in-process through the public
// rapid:: API (Scenario, Scenario::instance, Instance::make_model,
// run_instance) and prints the raw measurements as one JSON document on
// stdout. perfbench/run.py builds this binary, checks the simulated results
// and turns the raw numbers into the benchmark's metrics; see README.md.
//
// Usage:
//   perfbench_sim --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0: set up the workload kSetupSamples times (set-up only, then
//   thrown away), then run rounds -- set-up plus every simulation of the
//   workload -- until S seconds have passed (at least one round).
// --trace 1: an untraced round, a traced round -- the program's phase
//   profile on, the mobility decorator's clock on and benchmark-side spans
//   recorded around each public call -- and a second untraced round. The
//   first round in a process also pays for growing the heap, so the traced
//   round is compared with the second untraced round, which does not.
//
// Every simulation is serial with the default SimConfig that run_instance
// builds; the benchmark builds no SimConfig of its own and wraps no Router.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "runner/scenario_registry.h"
#include "sim/experiment.h"
#include "sim/protocols.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kLoad = 0.25;
constexpr int kSetupSamples = 6;  // set-up-only repetitions before the rounds

struct Workload {
  const char* name;
  int nodes;
  double metadata_cap_fraction;  // -1 = uncapped
  std::vector<rapid::ProtocolKind> protocols;
};

const std::vector<Workload>& workloads() {
  using rapid::ProtocolKind;
  static const std::vector<Workload> kWorkloads = {
      {"stream-uncapped", 2000, -1.0, {ProtocolKind::kRapid}},
      {"stream-capped", 1000, 0.05, {ProtocolKind::kRapid}},
      {"stream-baselines",
       2000,
       -1.0,
       {ProtocolKind::kProphet, ProtocolKind::kSprayWait, ProtocolKind::kEpidemic,
        ProtocolKind::kRandom, ProtocolKind::kDirect}},
  };
  return kWorkloads;
}

// Benchmark names for the protocols (lowercase, used in metric names).
const char* protocol_key(rapid::ProtocolKind kind) {
  switch (kind) {
    case rapid::ProtocolKind::kRapid: return "rapid";
    case rapid::ProtocolKind::kProphet: return "prophet";
    case rapid::ProtocolKind::kSprayWait: return "spray-wait";
    case rapid::ProtocolKind::kEpidemic: return "epidemic";
    case rapid::ProtocolKind::kRandom: return "random";
    case rapid::ProtocolKind::kDirect: return "direct";
    default: return "other";
  }
}

rapid::ScenarioConfig scenario_config(const Workload& w, std::uint64_t seed) {
  rapid::ScenarioConfig config = rapid::runner::ScenarioRegistry::global().make("powerlaw-stream");
  config.powerlaw.num_nodes = w.nodes;
  config.seed = seed;
  return config;
}

// Spans recorded around the benchmark's calls into the program: name,
// start, end, parent span and the round ("run id") they belong to. Kept in
// memory and printed with the rest of the document when the run ends.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int open(std::string name, int parent, int round) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), since_origin(), -1.0, parent, round});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = since_origin();
  }

  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
    int round;
  };
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double since_origin() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// What the mobility decorator saw during one simulation. Lives outside the
// decorator because the simulation owns (and destroys) the model.
struct MobilityTally {
  std::uint64_t pops = 0;
  std::uint64_t busy_ns = 0;
};

// MobilityModel decorator handed to the simulation: counts pops always and,
// in the traced round, clocks the time spent inside the wrapped model.
class CountingModel final : public rapid::MobilityModel {
 public:
  CountingModel(std::unique_ptr<rapid::MobilityModel> inner, MobilityTally& tally, bool timed)
      : inner_(std::move(inner)), tally_(tally), timed_(timed) {}

  int num_nodes() const override { return inner_->num_nodes(); }
  rapid::Time duration() const override { return inner_->duration(); }

  const rapid::Meeting* peek() override {
    if (!timed_) return inner_->peek();
    const auto t0 = Clock::now();
    const rapid::Meeting* m = inner_->peek();
    tally_.busy_ns += elapsed_ns(t0);
    return m;
  }

  void pop() override {
    ++tally_.pops;
    if (!timed_) return inner_->pop();
    const auto t0 = Clock::now();
    inner_->pop();
    tally_.busy_ns += elapsed_ns(t0);
  }

 private:
  static std::uint64_t elapsed_ns(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  }

  std::unique_ptr<rapid::MobilityModel> inner_;
  MobilityTally& tally_;
  bool timed_;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SimRecord {
  rapid::ProtocolKind protocol;
  double mobility_build_s = 0;
  double run_s = 0;
  MobilityTally tally;
  rapid::SimResult result;
  std::string error;  // non-empty when the simulation threw
};

struct Round {
  bool traced = false;
  double scenario_s = 0;
  double workload_s = 0;
  std::vector<SimRecord> sims;

  double setup_s() const {
    double s = scenario_s + workload_s;
    for (const SimRecord& sim : sims) s += sim.mobility_build_s;
    return s;
  }
};

// Set-up only: everything a round does before its first event, timed the
// same way (construction only, not destruction), then thrown away.
double setup_only(const Workload& w, std::uint64_t seed) {
  auto t0 = Clock::now();
  const rapid::Scenario scenario(scenario_config(w, seed));
  const rapid::Instance inst = scenario.instance(0, kLoad);
  double setup_s = seconds_since(t0);
  for (std::size_t i = 0; i < w.protocols.size(); ++i) {
    t0 = Clock::now();
    const std::unique_ptr<rapid::MobilityModel> model = inst.make_model();
    setup_s += seconds_since(t0);
    if (model == nullptr) throw std::runtime_error("make_model returned null");
  }
  return setup_s;
}

Round run_round(const Workload& w, std::uint64_t seed, bool traced, Spans& spans, int round_id) {
  Round round;
  round.traced = traced;
  const int root = spans.open("round", -1, round_id);

  int span = spans.open("setup.scenario", root, round_id);
  auto t0 = Clock::now();
  const rapid::Scenario scenario(scenario_config(w, seed));
  round.scenario_s = seconds_since(t0);
  spans.close(span);

  span = spans.open("setup.workload", root, round_id);
  t0 = Clock::now();
  rapid::Instance inst = scenario.instance(0, kLoad);
  round.workload_s = seconds_since(t0);
  spans.close(span);

  // run_instance pulls the run's model from Instance::make_model; hand it
  // the decorated model built (and timed) here, so model construction stays
  // in set-up and the SimConfig is exactly the one run_instance builds.
  const std::function<std::unique_ptr<rapid::MobilityModel>()> build = inst.make_model;
  for (const rapid::ProtocolKind protocol : w.protocols) {
    SimRecord rec;
    rec.protocol = protocol;
    try {
      span = spans.open("setup.mobility_build", root, round_id);
      t0 = Clock::now();
      std::unique_ptr<rapid::MobilityModel> model =
          std::make_unique<CountingModel>(build(), rec.tally, traced);
      rec.mobility_build_s = seconds_since(t0);
      spans.close(span);
      inst.make_model = [&model] { return std::move(model); };

      rapid::RunSpec spec;
      spec.protocol = protocol;
      spec.metadata_cap_fraction = w.metadata_cap_fraction;
      spec.obs.profile = traced;
      span = spans.open(std::string("run.") + protocol_key(protocol), root, round_id);
      t0 = Clock::now();
      rec.result = rapid::run_instance(scenario, inst, spec);
      rec.run_s = seconds_since(t0);
      spans.close(span);
    } catch (const std::exception& e) {
      rec.error = e.what();
      if (rec.error.empty()) rec.error = "exception";
    }
    inst.make_model = build;  // drop the capture of the loop-local model
    round.sims.push_back(std::move(rec));
  }
  spans.close(root);
  return round;
}

// --- JSON output -------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

// FNV-1a over the bit patterns of the per-packet delivery times: a digest
// that catches any change in which packet arrived when.
std::uint64_t delivery_digest(const std::vector<rapid::Time>& times) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const rapid::Time t : times) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(t), "Time is a double");
    std::memcpy(&bits, &t, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string sim_json(const SimRecord& rec) {
  const rapid::SimResult& r = rec.result;
  std::string out = "{\"protocol\": " + quote(protocol_key(rec.protocol));
  if (!rec.error.empty()) return out + ", \"error\": " + quote(rec.error) + "}";
  out += ", \"mobility_build_s\": " + num(rec.mobility_build_s);
  out += ", \"run_s\": " + num(rec.run_s);
  out += ", \"decorator_pops\": " + num(rec.tally.pops);
  out += ", \"decorator_busy_s\": " + num(static_cast<double>(rec.tally.busy_ns) * 1e-9);
  out += ", \"stats\": {\"packets\": " + num(static_cast<std::uint64_t>(r.total_packets));
  out += ", \"meetings\": " + num(static_cast<std::uint64_t>(r.meetings));
  out += ", \"delivered\": " + num(static_cast<std::uint64_t>(r.delivered));
  out += ", \"data_bytes\": " + num(static_cast<std::uint64_t>(r.data_bytes));
  out += ", \"metadata_bytes\": " + num(static_cast<std::uint64_t>(r.metadata_bytes));
  out += ", \"capacity_bytes\": " + num(static_cast<std::uint64_t>(r.capacity_bytes));
  out += ", \"drops\": " + num(static_cast<std::uint64_t>(r.drops));
  out += ", \"avg_delay\": " + num(r.avg_delay);
  out += ", \"delivery_digest\": " + quote(std::to_string(delivery_digest(r.delivery_time)));
  out += "}";
  if (r.obs != nullptr) {
    out += ", \"counters\": {";
    const auto& samples = r.obs->metrics.samples;
    for (std::size_t i = 0; i < samples.size(); ++i)
      out += (i ? ", " : "") + quote(samples[i].name) + ": " + num(samples[i].value);
    out += "}";
    const rapid::obs::PhaseProfile& p = r.obs->profile;
    if (p.enabled) {
      out += ", \"profile_total_s\": " + num(static_cast<double>(p.total_ns) * 1e-9);
      out += ", \"phases\": {";
      for (std::size_t i = 0; i < rapid::obs::kPhaseCount; ++i) {
        out += (i ? ", " : "") +
               quote(rapid::obs::phase_name(static_cast<rapid::obs::Phase>(i))) +
               ": {\"s\": " + num(static_cast<double>(p.ns[i]) * 1e-9) +
               ", \"calls\": " + num(p.calls[i]) + "}";
      }
      out += "}";
    }
  }
  return out + "}";
}

std::string round_json(const Round& round) {
  std::string out = "{\"traced\": ";
  out += round.traced ? "true" : "false";
  out += ", \"scenario_s\": " + num(round.scenario_s);
  out += ", \"workload_s\": " + num(round.workload_s);
  out += ", \"setup_s\": " + num(round.setup_s());
  out += ", \"run_s\": ";
  double run_s = 0;
  for (const SimRecord& sim : round.sims) run_s += sim.run_s;
  out += num(run_s) + ", \"sims\": [";
  for (std::size_t i = 0; i < round.sims.size(); ++i)
    out += (i ? ", " : "") + sim_json(round.sims[i]);
  return out + "]}";
}

std::string spans_json(const Spans& spans) {
  std::string out = "[";
  const auto& all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Spans::Span& s = all[i];
    out += (i ? ",\n  " : "\n  ");
    out += "{\"id\": " + std::to_string(i) + ", \"name\": " + quote(s.name) +
           ", \"start_s\": " + num(s.start) + ", \"end_s\": " + num(s.end) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"run\": " + std::to_string(s.round) + "}";
  }
  return out + "]";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_sim: %s\nusage: perfbench_sim --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 20070623;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(seconds > 0)) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage("--trace takes 0 or 1");
      trace = value[0] - '0';
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : workloads())
    if (workload_name == w.name) workload = &w;
  if (workload == nullptr) return usage(("unknown --workload '" + workload_name + "'").c_str());

  Spans spans(trace == 1);
  std::vector<double> setup_samples;
  std::vector<Round> rounds;
  try {
    if (trace == 0) {
      for (int i = 0; i < kSetupSamples; ++i) setup_samples.push_back(setup_only(*workload, seed));
      const auto start = Clock::now();
      do {
        rounds.push_back(run_round(*workload, seed, false, spans, static_cast<int>(rounds.size())));
        setup_samples.push_back(rounds.back().setup_s());
      } while (seconds_since(start) < seconds);
    } else {
      rounds.push_back(run_round(*workload, seed, false, spans, 0));
      rounds.push_back(run_round(*workload, seed, true, spans, 1));
      rounds.push_back(run_round(*workload, seed, false, spans, 2));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: set-up failed: %s\n", e.what());
    return 1;
  }

  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);  // ru_maxrss is in kilobytes on Linux

  std::string out = "{\"workload\": " + quote(workload->name);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"trace\": " + std::to_string(trace);
  out += ", \"build\": {\"type\": " + quote(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + quote(PERFBENCH_COMPILER);
  out += ", \"obs\": " + std::to_string(RAPID_OBS_ENABLED);
  out += ", \"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency());
  out += "}, \"peak_rss_kb\": " + std::to_string(static_cast<long long>(usage_self.ru_maxrss));
  out += ", \"setup_samples_s\": [";
  for (std::size_t i = 0; i < setup_samples.size(); ++i)
    out += (i ? ", " : "") + num(setup_samples[i]);
  out += "], \"rounds\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) out += (i ? ",\n" : "\n") + round_json(rounds[i]);
  out += "], \"spans\": " + spans_json(spans) + "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
