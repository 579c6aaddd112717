// perfbench_child — one repetition of one benchmark workload, in-process.
//
// The child makes the same public-library calls the user-facing CLIs make
// (tools/smpirun.cpp for the online and replay workloads,
// tools/smpi_campaign.cpp for the campaign) and times each call from the
// outside with a span: name, start, end, parent. Spans stay in memory and
// are printed with the results as one JSON line when the repetition ends;
// run.py turns them into metrics. Each repetition is a fresh process, as
// every smpirun/smpi_campaign invocation is for a user.
//
//   perfbench_child prepare <workload> <seed> <dir>   write the seeded inputs
//   perfbench_child run <workload> <dir> [--traced]   one repetition
//
// Workloads: dt_online, replay_stencil, campaign_whatif (see NOTES.md).
// --traced additionally installs obs::Profiler around the simulation and,
// for the campaign, measures the obs collectors on the baseline scenario.
// Exit code 0 on success, 1 on usage errors, 2 on a failed simulation.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/dt.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "platform/builders.hpp"
#include "smpi/smpi.hpp"
#include "surf/cpu.hpp"
#include "surf/network.hpp"
#include "trace/capture.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "util/json.hpp"
#include "workload/generate.hpp"

namespace {

using smpi::util::JsonValue;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - g_epoch).count(); }

// Spans recorded around public calls; the innermost open span is the parent
// of the next one.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  int open(std::string name) {
    spans_.push_back({std::move(name), now_s(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }
  JsonValue json() const {
    JsonValue out = JsonValue::array();
    for (const Span& s : spans_) {
      JsonValue item = JsonValue::object();
      item.set("name", JsonValue::string(s.name));
      item.set("start", JsonValue::number(s.start));
      item.set("end", JsonValue::number(s.end));
      item.set("parent", JsonValue::number(s.parent));
      out.append(std::move(item));
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

class Scope {
 public:
  explicit Scope(std::string name) : id_(g_spans.open(std::move(name))) {}
  ~Scope() { g_spans.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto timed(const char* name, Fn&& fn) {
  Scope scope(name);
  return fn();
}

// What one repetition reports besides its spans.
struct Report {
  JsonValue outputs = JsonValue::object();  // simulated results, checked for bit identity
  JsonValue counts = JsonValue::object();   // exact counters, gated across repetitions
  JsonValue layer = JsonValue::object();    // per-layer values besides spans and counts
  long long records = 0;                    // TI records replayed
  JsonValue scenario_records = JsonValue::array();  // per campaign scenario, null if it failed
  int units = 1;                            // simulations attempted
  int failed_units = 0;
};

void set_count(JsonValue& obj, const char* key, std::uint64_t value) {
  obj.set(key, JsonValue::number(static_cast<double>(value)));
}

void record_p2p(Report& report, const smpi::core::P2pCounters& p2p) {
  set_count(report.counts, "sim.pool_hits", p2p.pool_hits);
  set_count(report.counts, "sim.pool_misses", p2p.pool_misses);
  set_count(report.counts, "smpi.eager_snapshots", p2p.eager_snapshots);
  set_count(report.counts, "smpi.eager_copy_elided", p2p.eager_copy_elided);
  set_count(report.counts, "smpi.bytes_not_copied", p2p.bytes_not_copied);
}

void record_solver(JsonValue& counts, std::uint64_t solves, std::uint64_t vars,
                   std::uint64_t cons, std::uint64_t saturation_events) {
  set_count(counts, "surf.solves", solves);
  set_count(counts, "surf.vars_touched", vars);
  set_count(counts, "surf.cons_touched", cons);
  set_count(counts, "surf.saturation_events", saturation_events);
}

void record_profile(Report& report, const smpi::obs::Profiler& profiler) {
  using smpi::obs::ProfKey;
  const std::pair<ProfKey, const char*> keys[] = {
      {ProfKey::kContextSwitch, "profile.context_switch"},
      {ProfKey::kCalendarAdvance, "profile.calendar_advance"},
      {ProfKey::kPoolOp, "profile.pool_op"},
      {ProfKey::kSolverSolve, "profile.solver_solve"},
  };
  for (const auto& [key, name] : keys) {
    const smpi::obs::ProfStats& stats = profiler.stats(key);
    report.layer.set(std::string(name) + "_s", JsonValue::number(stats.seconds));
    report.layer.set(std::string(name) + "_calls",
                     JsonValue::number(static_cast<double>(stats.calls)));
  }
}

// Installs a profiler for the lifetime of the guard when `enabled`.
class ProfilerGuard {
 public:
  ProfilerGuard(smpi::obs::Profiler& profiler, bool enabled) : enabled_(enabled) {
    if (enabled_) smpi::obs::install_profiler(&profiler);
  }
  ~ProfilerGuard() {
    if (enabled_) smpi::obs::clear_profiler();
  }
  ProfilerGuard(const ProfilerGuard&) = delete;
  ProfilerGuard& operator=(const ProfilerGuard&) = delete;

 private:
  bool enabled_;
};

// --- workload definitions ----------------------------------------------------

smpi::apps::DtParams dt_params() {
  smpi::apps::DtParams params;
  params.cls = smpi::apps::DtClass::kB;
  params.graph = smpi::apps::DtGraph::kShuffle;
  params.fold_memory = true;
  return params;
}

std::string stencil_spec(unsigned long long seed) {
  return R"({"name": "perfbench-stencil", "ranks": 1024, "seed": )" + std::to_string(seed) +
         R"(, "phases": [
  {"pattern": "stencil2d", "iterations": 20, "bytes": [8192, 65536],
   "compute": {"flops": 2e6, "imbalance": 0.2, "jitter": 0.05}},
  {"pattern": "reduce_bcast", "bytes": 8}]})";
}

std::string campaign_spec(unsigned long long seed) {
  return R"({"name": "perfbench-whatif",
 "workload": {"name": "perfbench-mix", "ranks": 64, "seed": )" +
         std::to_string(seed) + R"(, "phases": [
   {"pattern": "stencil2d", "iterations": 4, "bytes": 16384,
    "compute": {"flops": 1e6, "imbalance": 0.2, "jitter": 0.05}},
   {"pattern": "alltoall", "iterations": 1, "bytes": 8192},
   {"pattern": "random_sparse", "iterations": 4, "bytes": [2048, 262144], "degree": 3,
    "compute": {"flops": 5e5, "imbalance": 0.1}},
   {"pattern": "reduce_bcast", "bytes": 8}]},
 "platform": {"kind": "hierarchical-gdx"},
 "axes": [
   {"param": "link_bandwidth_scale", "values": [0.5, 1, 2]},
   {"param": "workload_bytes", "values": [16384, 131072]},
   {"param": "placement", "values": ["round_robin", "stride:4"]},
   {"param": "coll_alltoall", "values": ["bruck", "pairwise"]},
   {"param": "eager_threshold", "values": [16384, 262144]}]}
)";
}

constexpr int kCampaignWorkers = 2;
constexpr int kStencilNodes = 2048;

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

// --- prepare -----------------------------------------------------------------

// dt_online: the TI record count a capture of the run holds, which is the
// run's record count for records_per_s.
void prepare_dt(const std::string& dir) {
  const auto params = dt_params();
  const int np = smpi::apps::dt_process_count(params.graph, params.cls);
  const auto platform = smpi::platform::build_gdx();
  smpi::trace::TiWriter writer(dir + "/capture", np, "dt");
  smpi::trace::install_capture(&writer, nullptr);
  try {
    const smpi::core::SmpiConfig config;
    smpi::core::SmpiWorld world(platform, config);
    world.run(np, smpi::apps::make_dt_app(params));
  } catch (...) {
    smpi::trace::clear_capture();
    throw;
  }
  smpi::trace::clear_capture();
  writer.finish();
  JsonValue doc = JsonValue::object();
  doc.set("records", JsonValue::number(static_cast<double>(writer.records_written())));
  write_text(dir + "/dt.json", doc.dump(2) + "\n");
}

int prepare(const std::string& workload, unsigned long long seed, const std::string& dir) {
  if (workload == "dt_online") {
    prepare_dt(dir);
  } else if (workload == "replay_stencil") {
    const auto spec = smpi::workload::WorkloadSpec::parse(
        smpi::util::parse_json(stencil_spec(seed), "stencil spec"));
    smpi::workload::write_workload(spec, dir + "/trace");
  } else if (workload == "campaign_whatif") {
    write_text(dir + "/campaign.json", campaign_spec(seed));
  } else {
    std::fprintf(stderr, "perfbench_child: unknown workload '%s'\n", workload.c_str());
    return 1;
  }
  return 0;
}

// --- run ---------------------------------------------------------------------

void run_dt(Report& report, bool traced) {
  Scope run("run");
  const auto params = dt_params();
  const int np = smpi::apps::dt_process_count(params.graph, params.cls);
  auto platform = timed("platform.build", [] {
    return std::make_unique<smpi::platform::Platform>(smpi::platform::build_gdx());
  });
  smpi::obs::Profiler profiler;
  {
    Scope world_span("smpi.world");
    const smpi::core::SmpiConfig config;
    auto world = timed("smpi.world_setup", [&] {
      return std::make_unique<smpi::core::SmpiWorld>(*platform, config);
    });
    {
      ProfilerGuard guard(profiler, traced);
      Scope sim("smpi.run");
      world->run(np, smpi::apps::make_dt_app(params));
    }
    if (world->aborted()) throw std::runtime_error("dt aborted");
    report.outputs.set("simulated_time", JsonValue::number(world->simulated_time()));
    report.outputs.set("checksum", JsonValue::number(smpi::apps::dt_last_checksum()));
    report.layer.set("smpi.folded_peak_mb",
                     JsonValue::number(static_cast<double>(world->memory_report().folded_peak_bytes) /
                                       1e6));
    record_p2p(report, world->p2p_counters());
    set_count(report.counts, "sim.timers_created", world->engine().timers_created());
    std::uint64_t solves = 0, vars = 0, cons = 0, saturation = 0;
    auto add = [&](const smpi::surf::MaxMinSystem& solver) {
      solves += solver.solve_count();
      vars += solver.vars_touched();
      cons += solver.cons_touched();
      saturation += solver.observe_counters().saturation_events;
    };
    if (const auto* net = dynamic_cast<const smpi::surf::FlowNetworkModel*>(&world->network())) {
      add(net->solver());
    }
    if (const auto* cpu = dynamic_cast<const smpi::surf::CpuModel*>(&world->cpu())) {
      add(cpu->solver());
    }
    record_solver(report.counts, solves, vars, cons, saturation);
    timed("smpi.teardown", [&] {
      world.reset();
    });
  }
  timed("platform.teardown", [&] {
    platform.reset();
  });
  if (traced) record_profile(report, profiler);
}

void record_replay(Report& report, const smpi::trace::ReplayResult& result) {
  report.outputs.set("simulated_time", JsonValue::number(result.simulated_time));
  report.records = result.records;
  set_count(report.counts, "replay.records", static_cast<std::uint64_t>(result.records));
  record_p2p(report, result.p2p);
  record_solver(report.counts, result.solver_solves, result.solver_vars_touched,
                result.solver_cons_touched, result.surf_observe.saturation_events);
}

void run_replay(Report& report, const std::string& dir, bool traced) {
  Scope run("run");
  smpi::platform::FlatClusterParams params;
  params.nodes = kStencilNodes;
  auto platform = timed("platform.build", [&] {
    return std::make_unique<smpi::platform::Platform>(smpi::platform::build_flat_cluster(params));
  });
  auto trace = timed("trace.load", [&] {
    return std::make_unique<smpi::trace::TiTrace>(smpi::trace::load_ti_trace(dir + "/trace"));
  });
  const smpi::core::SmpiConfig config;
  smpi::obs::Profiler profiler;
  smpi::trace::ReplayResult result;
  {
    ProfilerGuard guard(profiler, traced);
    Scope sim("replay.run");
    result = smpi::trace::replay_trace(*platform, config, *trace);
  }
  if (result.aborted) throw std::runtime_error("replay aborted");
  record_replay(report, result);
  timed("trace.teardown", [&] {
    trace.reset();
  });
  timed("platform.teardown", [&] {
    platform.reset();
  });
  if (traced) record_profile(report, profiler);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The campaign's baseline scenario replayed in this process, with the
// spec's analysis and resources collectors off and on (obs.collectors_ratio),
// then once more under the profiler for the profile.* and surf.* layer
// values the forked workers cannot hand back.
void measure_collectors(Report& report, const std::string& dir) {
  Scope collectors("obs.collectors");
  const auto spec = smpi::campaign::CampaignSpec::parse_file(dir + "/campaign.json");
  const auto baseline = smpi::campaign::enumerate_scenarios(spec).front();
  const auto trace = smpi::workload::generate_workload(spec.workload);
  // materialize() builds the scenario's platform, as each worker does.
  const auto setup = timed("platform.build", [&] {
    return smpi::campaign::materialize(spec, baseline, trace.nranks);
  });
  auto replay = [&](bool observed, const char* name) {
    smpi::trace::ReplayOptions options;
    options.payload_free = setup.payload_free;
    smpi::obs::ResourceCollector resources;
    if (observed) {
      options.analyze = spec.analysis;
      if (spec.resources) options.resources = &resources;
    }
    Scope span(name);
    const double start = now_s();
    auto result = smpi::trace::replay_trace(setup.platform, setup.config, trace, options);
    return std::make_pair(now_s() - start, result);
  };
  std::vector<double> off;
  std::vector<double> on;
  for (int i = 0; i < 3; ++i) {
    off.push_back(replay(false, "obs.replay_off").first);
    on.push_back(replay(true, "obs.replay_on").first);
  }
  report.layer.set("obs.collectors_ratio", JsonValue::number(median(on) / median(off)));
  smpi::obs::Profiler profiler;
  smpi::trace::ReplayResult profiled;
  {
    ProfilerGuard guard(profiler, true);
    profiled = replay(true, "obs.replay_profiled").second;
  }
  record_profile(report, profiler);
  report.layer.set("surf.saturation_events",
                   JsonValue::number(static_cast<double>(profiled.surf_observe.saturation_events)));
}

void run_campaign(Report& report, const std::string& dir, bool traced) {
  namespace campaign = smpi::campaign;
  std::unique_ptr<campaign::CampaignSpec> spec;
  std::vector<campaign::Scenario> scenarios;
  std::unique_ptr<smpi::trace::TiTrace> trace;
  campaign::CampaignOutcome outcome;
  {
    Scope run("run");
    spec = timed("campaign.parse", [&] {
      return std::make_unique<campaign::CampaignSpec>(
          campaign::CampaignSpec::parse_file(dir + "/campaign.json"));
    });
    scenarios = timed("campaign.enumerate", [&] { return campaign::enumerate_scenarios(*spec); });
    trace = timed("workload.generate", [&] {
      return std::make_unique<smpi::trace::TiTrace>(smpi::workload::generate_workload(spec->workload));
    });
    campaign::RunOptions options;
    options.workers = kCampaignWorkers;
    outcome = timed("campaign.run",
                    [&] { return campaign::run_campaign(*spec, scenarios, *trace, options); });
    std::size_t report_bytes = 0;
    {
      Scope report_span("campaign.report");
      report_bytes += campaign::report_json(*spec, scenarios, outcome).dump(2).size();
      report_bytes += campaign::report_csv(*spec, scenarios, outcome).size();
    }
    report.layer.set("campaign.report_bytes", JsonValue::number(static_cast<double>(report_bytes)));
    timed("teardown", [&] {
      trace.reset();
      spec.reset();
    });
  }
  if (traced) measure_collectors(report, dir);

  JsonValue times = JsonValue::array();
  std::uint64_t solves = 0, vars = 0, cons = 0, retries = 0;
  smpi::core::P2pCounters p2p;
  double replay_s = 0;
  report.units = static_cast<int>(outcome.results.size());
  for (const auto& r : outcome.results) {
    times.append(r.ok ? JsonValue::number(r.simulated_time) : JsonValue::null());
    report.scenario_records.append(r.ok ? JsonValue::number(static_cast<double>(r.records))
                                        : JsonValue::null());
    if (!r.ok) {
      ++report.failed_units;
      continue;
    }
    report.records += r.records;
    solves += r.solver_solves;
    vars += r.solver_vars_touched;
    cons += r.solver_cons_touched;
    retries += static_cast<std::uint64_t>(r.retries);
    replay_s += r.wall_s;
    p2p.pool_hits += r.p2p.pool_hits;
    p2p.pool_misses += r.p2p.pool_misses;
    p2p.eager_snapshots += r.p2p.eager_snapshots;
    p2p.eager_copy_elided += r.p2p.eager_copy_elided;
    p2p.bytes_not_copied += r.p2p.bytes_not_copied;
  }
  report.outputs.set("scenario_times", std::move(times));
  set_count(report.counts, "replay.records", static_cast<std::uint64_t>(report.records));
  set_count(report.counts, "campaign.retries", retries);
  record_p2p(report, p2p);
  // Capsules carry no saturation count; measure_collectors reads it from the
  // in-process baseline replay.
  set_count(report.counts, "surf.solves", solves);
  set_count(report.counts, "surf.vars_touched", vars);
  set_count(report.counts, "surf.cons_touched", cons);
  report.layer.set("campaign.scenario_replay_s", JsonValue::number(replay_s));
  report.layer.set("campaign.workers", JsonValue::number(outcome.workers));
}

int run(const std::string& workload, const std::string& dir, bool traced) {
  Report report;
  try {
    if (workload == "dt_online") {
      run_dt(report, traced);
    } else if (workload == "replay_stencil") {
      run_replay(report, dir, traced);
    } else if (workload == "campaign_whatif") {
      run_campaign(report, dir, traced);
    } else {
      std::fprintf(stderr, "perfbench_child: unknown workload '%s'\n", workload.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_child: %s failed: %s\n", workload.c_str(), e.what());
    return 2;
  }
  JsonValue out = JsonValue::object();
  out.set("spans", g_spans.json());
  out.set("outputs", std::move(report.outputs));
  out.set("counts", std::move(report.counts));
  out.set("layer", std::move(report.layer));
  out.set("records", JsonValue::number(static_cast<double>(report.records)));
  out.set("scenario_records", std::move(report.scenario_records));
  out.set("units", JsonValue::number(report.units));
  std::printf("%s\n", out.dump().c_str());
  return report.failed_units == 0 ? 0 : 2;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_child prepare <workload> <seed> <dir>\n"
               "       perfbench_child run <workload> <dir> [--traced]\n");
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 4 && args[0] == "prepare") {
    try {
      return prepare(args[1], std::stoull(args[2]), args[3]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_child: prepare failed: %s\n", e.what());
      return 2;
    }
  }
  if ((args.size() == 3 || (args.size() == 4 && args[3] == "--traced")) && args[0] == "run") {
    return run(args[1], args[2], args.size() == 4);
  }
  usage();
}
