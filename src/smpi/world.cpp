#include <algorithm>
#include <cstdio>
#include <sstream>

#include "smpi/internals.hpp"
#include "trace/capture.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace smpi::core {

SMPI_LOG_CATEGORY(log_smpi, "smpi");

namespace {
SmpiWorld* g_world = nullptr;

// Thrown by MPI_Abort to unwind the calling rank.
struct AbortException {
  int code;
};
}  // namespace

Personality Personality::smpi() { return Personality{}; }

Personality Personality::openmpi() {
  Personality p;
  p.name = "openmpi";
  p.eager_threshold = 64 * 1024;
  p.overhead_send_s = 2.0e-6;
  p.overhead_recv_s = 2.0e-6;
  p.copy_cost_s_per_byte = 1.0 / 3e9;  // ~3 GB/s buffering memcpy
  p.emulate_protocol_messages = true;
  return p;
}

Personality Personality::mpich2() {
  Personality p;
  p.name = "mpich2";
  p.eager_threshold = 64 * 1024;
  p.overhead_send_s = 1.4e-6;
  p.overhead_recv_s = 1.6e-6;
  p.copy_cost_s_per_byte = 1.0 / 3.5e9;
  p.emulate_protocol_messages = true;
  return p;
}

// ---------------------------------------------------------------------------
// MemoryTracker
// ---------------------------------------------------------------------------

MemoryTracker::MemoryTracker(int nranks, std::uint64_t budget_bytes)
    : rank_current_(static_cast<std::size_t>(nranks), 0),
      rank_peak_(static_cast<std::size_t>(nranks), 0),
      budget_(budget_bytes) {}

void MemoryTracker::allocate(int rank, std::uint64_t bytes, bool folded_already_counted) {
  auto& current = rank_current_[static_cast<std::size_t>(rank)];
  current += bytes;
  rank_peak_[static_cast<std::size_t>(rank)] =
      std::max(rank_peak_[static_cast<std::size_t>(rank)], current);
  unfolded_current_ += bytes;
  unfolded_peak_ = std::max(unfolded_peak_, unfolded_current_);
  if (!folded_already_counted) {
    folded_current_ += bytes;
    folded_peak_ = std::max(folded_peak_, folded_current_);
  }
}

void MemoryTracker::release(int rank, std::uint64_t bytes, bool folded_already_counted) {
  auto& current = rank_current_[static_cast<std::size_t>(rank)];
  SMPI_ENSURE(current >= bytes, "rank memory underflow");
  current -= bytes;
  SMPI_ENSURE(unfolded_current_ >= bytes, "unfolded memory underflow");
  unfolded_current_ -= bytes;
  if (!folded_already_counted) {
    SMPI_ENSURE(folded_current_ >= bytes, "folded memory underflow");
    folded_current_ -= bytes;
  }
}

std::uint64_t MemoryTracker::rank_peak(int rank) const {
  return rank_peak_[static_cast<std::size_t>(rank)];
}

std::uint64_t MemoryTracker::max_rank_peak() const {
  std::uint64_t peak = 0;
  for (auto v : rank_peak_) peak = std::max(peak, v);
  return peak;
}

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::Process(SmpiWorld* world_in, int world_rank_in, int node_in)
    : world(world_in), world_rank(world_rank_in), node(node_in) {}

Process::~Process() {
  // Tracked allocations leaked by the application are reclaimed here.
  for (auto& [ptr, size] : allocations) {
    world->memory().release(world_rank, size, false);
    ::operator delete(ptr);
  }
}

Request* Process::new_request() {
  if (!free_requests.empty()) {
    Request* r = free_requests.back();
    free_requests.pop_back();
    *r = Request{};  // reset-on-acquire: every field back to its default
    r->owner = this;
    return r;
  }
  owned_requests.push_back(std::make_unique<Request>());
  Request* r = owned_requests.back().get();
  r->owner = this;
  return r;
}

void Process::recycle_request(Request* r) {
  if (r->recycled || !r->released || r->active || !r->completed()) return;
  r->token.reset();  // drop the activity now; the slot may idle a while
  r->pending_envelope = nullptr;
  r->recycled = true;
  free_requests.push_back(r);
}

void Process::gc_requests() {
  // Release sites recycle their own request directly (recycle_request); this
  // sweep only catches requests freed while still in flight, whose released
  // flag was set long before completion — rare, so it runs once per batch.
  if (++gc_pending_ < kGcBatch) return;
  gc_pending_ = 0;
  for (auto& r : owned_requests) recycle_request(r.get());
}

// ---------------------------------------------------------------------------
// SmpiWorld
// ---------------------------------------------------------------------------

SmpiWorld::SmpiWorld(const platform::Platform& platform, SmpiConfig config)
    : platform_(platform), config_(std::move(config)) {
  SMPI_REQUIRE(g_world == nullptr, "only one SmpiWorld may exist at a time");
  SMPI_REQUIRE(platform_.host_count() > 0, "platform has no hosts");
  engine_ = std::make_unique<sim::Engine>(config_.engine);
  // One knob drives both analytical solvers (network and CPU share the
  // max-min implementation and its full-reference flag).
  cpu_model_ = std::make_shared<surf::CpuModel>(platform_, config_.network.solver_mode);
  cpu_ = cpu_model_.get();
  engine_->add_model(cpu_model_);
  if (config_.noise.has_message_jitter && !config_.noise.message_jitter.is_identity(0.0)) {
    // Install before the network model is built: the model copies its
    // config. An identity (zero-sigma) channel installs nothing, so the
    // deterministic path stays bit-identical.
    SMPI_REQUIRE(config_.backend == SmpiConfig::Backend::kFlow,
                 "message jitter requires the flow network backend");
    jitter_ = std::make_unique<noise::MessageJitter>(config_.noise.message_jitter,
                                                     config_.noise.seed);
    noise::MessageJitter* jitter = jitter_.get();
    config_.network.latency_jitter = [jitter](int src, int dst) {
      return jitter->sample(src, dst);
    };
  }
  if (config_.backend == SmpiConfig::Backend::kFlow) {
    auto net = std::make_shared<surf::FlowNetworkModel>(platform_, config_.network);
    network_ = net.get();
    flow_network_ = net.get();
    engine_->add_model(std::move(net));
  } else {
    auto net = std::make_shared<pnet::PacketNetworkModel>(platform_, config_.packet);
    network_ = net.get();
    engine_->add_model(std::move(net));
  }

  // Failure model: only built for a non-empty spec, so a fault-free run
  // schedules nothing extra and every simulated time stays bit-identical.
  if (!config_.faults.empty()) {
    SMPI_REQUIRE(flow_network_ != nullptr,
                 "the failure model requires the flow network backend");
    sim::TargetIndex index;
    index.host_count = platform_.host_count();
    index.link_count = platform_.link_count();
    index.find_host = [this](const std::string& name) { return platform_.find_host(name); };
    index.find_link = [this](const std::string& name) { return platform_.find_link(name); };
    auto faults = std::make_shared<sim::FaultModel>(resolve_faults(config_.faults, index));
    faults->set_host_hook([this](int host, bool up) {
      cpu_model_->set_host_up(host, up);
      flow_network_->set_host_up(host, up);
    });
    faults->set_link_hook([this](int link, bool up, double factor) {
      if (!up) {
        flow_network_->set_link_up(link, false);
        return;
      }
      // Recover resets any earlier degradation; a degrade event carries its
      // factor in (0, 1).
      flow_network_->set_link_degrade(link, factor);
      flow_network_->set_link_up(link, true);
    });
    engine_->add_model(faults);
    faults->arm();
  }
  engine_->set_deadlock_reporter([this] { return wait_for_diagnostic(); });
  // Registered last: nothing above needs the instance, and a constructor
  // that throws (an unknown fault target, say) must not leave it pointing at
  // a dead world for every later one in this process.
  g_world = this;
}

SmpiWorld::~SmpiWorld() {
  // Teardown order is load-bearing three ways: (1) surviving actors (abort
  // and detect-policy runs end with live, parked ranks) must unwind while
  // the Process objects are alive — their cleanup guards write per-rank
  // state; (2) Processes must be freed while the engine is alive — pending
  // Requests return pooled Activity tokens to the engine's pools; (3) the
  // engine goes last.
  if (engine_ != nullptr) engine_->shutdown_actors();
  processes_.clear();
  reset_shared_allocations();
  reset_global_samples();
  // Drop our model ref before the engine: a time-limited run leaves
  // incomplete executions holding pooled activities, and those must return
  // to the engine's pools inside ~Engine (models_ holds the last ref), not
  // after it.
  cpu_model_.reset();
  engine_.reset();
  g_world = nullptr;
}

SmpiWorld* SmpiWorld::instance() { return g_world; }

void SmpiWorld::flush_observations() {
  if (flow_network_ != nullptr) flow_network_->flush_observations(finish_time_);
  cpu_model_->flush_observations(finish_time_);
}

surf::MaxMinSystem::ObserveCounters SmpiWorld::surf_observe_counters() const {
  surf::MaxMinSystem::ObserveCounters total = cpu_model_->solver().observe_counters();
  if (flow_network_ != nullptr) total += flow_network_->solver().observe_counters();
  return total;
}

Process* SmpiWorld::current_process() {
  if (engine_ == nullptr) return nullptr;
  sim::Actor* actor = engine_->current_actor();
  if (actor == nullptr) return nullptr;
  return static_cast<Process*>(actor->user_data);
}

Process* SmpiWorld::process(int world_rank) {
  SMPI_REQUIRE(world_rank >= 0 && world_rank < world_size(), "world rank out of range");
  return processes_[static_cast<std::size_t>(world_rank)].get();
}

void SmpiWorld::record_abort(int code) {
  aborted_ = true;
  abort_code_ = code;
  // Freeze the engine at the abort date. The aborting rank's frame is about
  // to unwind (or already has), and in-flight transfers hold raw Request
  // pointers into it — letting the calendar drain to the natural deadlock
  // would dispatch their completions into freed stack memory.
  if (engine_ != nullptr) engine_->request_stop();
}

void SmpiWorld::record_failure(const std::string& diagnostic) {
  if (fault_diagnostic_.empty()) fault_diagnostic_ = diagnostic;
}

std::string SmpiWorld::wait_for_diagnostic() const {
  // Per-rank wait-for state plus unmatched queue contents — the detector's
  // diagnostic payload. Capped so a 1024-rank deadlock stays readable.
  constexpr int kMaxRanks = 32;
  constexpr std::size_t kMaxQueueItems = 8;
  std::ostringstream os;
  os << "wait-for state:";
  int shown = 0;
  int blocked_total = 0;
  for (const auto& proc : processes_) {
    if (proc->actor == nullptr || !proc->actor->alive()) continue;
    ++blocked_total;
    if (shown >= kMaxRanks) continue;
    ++shown;
    os << "\n  rank " << proc->world_rank << " (node " << proc->node << "): ";
    if (proc->blocked.op == nullptr) {
      os << "not blocked in an MPI operation";
    } else {
      os << "blocked in " << proc->blocked.op;
      os << " (peer=";
      if (proc->blocked.peer == MPI_ANY_SOURCE) {
        os << "ANY";
      } else {
        os << proc->blocked.peer;
      }
      os << ", tag=";
      if (proc->blocked.tag == MPI_ANY_TAG) {
        os << "ANY";
      } else {
        os << proc->blocked.tag;
      }
      os << ", comm=" << proc->blocked.comm_id << ", bytes=" << proc->blocked.bytes << ")";
    }
    for (const auto& [key, queues] : proc->matching) {
      if (queues.unexpected.empty() && queues.posted_recvs.empty()) continue;
      os << "\n    scope " << key << (key < 0 ? " (collective)" : "") << ":";
      std::size_t listed = 0;
      for (const auto& env : queues.unexpected) {
        if (listed++ >= kMaxQueueItems) {
          os << " ...";
          break;
        }
        os << " unexpected[src=" << env->src_comm_rank << " tag=" << env->tag
           << " bytes=" << env->bytes << "]";
      }
      listed = 0;
      for (const Request* recv : queues.posted_recvs) {
        if (listed++ >= kMaxQueueItems) {
          os << " ...";
          break;
        }
        os << " posted-recv[peer=";
        if (recv->peer == MPI_ANY_SOURCE) {
          os << "ANY";
        } else {
          os << recv->peer;
        }
        os << " tag=";
        if (recv->tag == MPI_ANY_TAG) {
          os << "ANY";
        } else {
          os << recv->tag;
        }
        os << "]";
      }
    }
  }
  if (blocked_total > shown) {
    os << "\n  ... " << (blocked_total - shown) << " more blocked rank(s)";
  }
  return os.str();
}

void handle_operation_failure(Process& proc, const std::string& what) {
  SmpiWorld* world = proc.world;
  std::ostringstream os;
  os << "rank " << proc.world_rank << " (node " << proc.node << "): " << what;
  if (world->config().faults.policy == sim::FailurePolicy::kAbort) {
    throw FaultError{os.str()};
  }
  // Detect policy: strand the rank on an activity nothing ever finishes —
  // the deadlock detector then reports the full wait-for state. The actor
  // is unwound by the engine teardown (ForcedExit through this wait).
  SMPI_LOG_WARN(log_smpi, "detect policy: " << os.str() << " — rank parked for the detector");
  auto black_hole = sim::new_activity("failed-op");
  // Keep the peer/tag/comm of the failed operation for the reporter; only
  // relabel it so the diagnostic says the wait can never succeed.
  proc.blocked.op = "failed-op";
  for (;;) black_hole->wait();
  // not reached
}

void SmpiWorld::run(int nprocs, MpiMain app, std::vector<std::string> args,
                    std::string app_name) {
  SMPI_REQUIRE(nprocs >= 1, "need at least one MPI process");
  SMPI_REQUIRE(processes_.empty(), "SmpiWorld::run may only be called once");
  SMPI_REQUIRE(config_.placement_stride >= 1, "placement stride must be >= 1");

  memory_ = std::make_unique<MemoryTracker>(nprocs, config_.host_ram_budget_bytes);

  // MPI_COMM_WORLD spans all ranks.
  std::vector<int> all(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) all[static_cast<std::size_t>(i)] = i;
  static_comms_.push_back(std::make_unique<Comm>(next_comm_id(), Group(all)));
  world_comm_ = static_comms_.back().get();
  static_groups_.push_back(std::make_unique<Group>(std::vector<int>{}));
  empty_group_ = static_groups_.back().get();

  // argv block shared by all ranks (read-only by convention).
  argv_storage_.clear();
  argv_storage_.push_back(std::move(app_name));
  for (auto& a : args) argv_storage_.push_back(a);
  argv_pointers_.clear();
  for (auto& s : argv_storage_) argv_pointers_.push_back(s.data());
  argv_pointers_.push_back(nullptr);

  for (int rank = 0; rank < nprocs; ++rank) {
    int node;
    if (!config_.placement.empty()) {
      node = config_.placement[static_cast<std::size_t>(rank) % config_.placement.size()];
      SMPI_REQUIRE(node >= 0 && node < platform_.host_count(), "placement node out of range");
    } else {
      node = (rank * config_.placement_stride) % platform_.host_count();
    }
    processes_.push_back(std::make_unique<Process>(this, rank, node));
    Process* proc = processes_.back().get();
    sim::Actor* actor = engine_->spawn("rank-" + std::to_string(rank), node, [this, proc, app] {
      try {
        app(static_cast<int>(argv_pointers_.size()) - 1, argv_pointers_.data());
      } catch (const AbortException& abort) {
        record_abort(abort.code);
        SMPI_LOG_WARN(log_smpi, "rank " << proc->world_rank << " aborted with code " << abort.code);
      } catch (const FaultError& fault) {
        // A resource failure tore this rank down (abort policy): record the
        // diagnostic so the driver can print what died and where.
        record_abort(-2);
        record_failure(fault.message);
        SMPI_LOG_WARN(log_smpi, "rank " << proc->world_rank
                                        << " terminated by a resource failure: " << fault.message);
      } catch (const sim::ForcedExit&) {
        throw;  // teardown unwinding — must reach the context trampoline
      } catch (...) {
        // Application code failed; capture the first failure so run() can
        // rethrow it in the caller's context instead of crashing the fiber.
        record_abort(-1);
        if (first_exception_ == nullptr) first_exception_ = std::current_exception();
        SMPI_LOG_WARN(log_smpi, "rank " << proc->world_rank << " terminated by an exception");
      }
    });
    actor->user_data = proc;
    proc->actor = actor;
  }
  try {
    engine_->run();
  } catch (const sim::DeadlockError& e) {
    if (!aborted_) throw;
    // An abort legitimately strands the other ranks; surface the abort
    // instead of the secondary deadlock.
    SMPI_LOG_WARN(log_smpi, "simulation stopped after abort: " << e.what());
  }
  finish_time_ = engine_->now();
  if (first_exception_ != nullptr) std::rethrow_exception(first_exception_);
}

P2pCounters SmpiWorld::p2p_counters() const {
  P2pCounters counters = p2p_counters_;
  if (engine_ != nullptr) {
    const auto& blocks = engine_->object_pool().stats();
    const auto& buffers = engine_->buffer_pool().stats();
    counters.pool_hits = blocks.hits + buffers.hits;
    counters.pool_misses = blocks.misses + buffers.misses;
  }
  return counters;
}

MemoryReport SmpiWorld::memory_report() const {
  MemoryReport report;
  if (memory_ == nullptr) return report;
  report.folded_peak_bytes = memory_->folded_peak();
  report.unfolded_peak_bytes = memory_->unfolded_peak();
  report.max_rank_peak_bytes = memory_->max_rank_peak();
  report.over_budget = memory_->over_budget();
  return report;
}

double run_simulation(const platform::Platform& platform, const SmpiConfig& config, int nprocs,
                      MpiMain app, std::vector<std::string> args) {
  SmpiWorld world(platform, config);
  world.run(nprocs, std::move(app), std::move(args));
  return world.simulated_time();
}

Process& current_process_checked() {
  SmpiWorld* world = SmpiWorld::instance();
  SMPI_REQUIRE(world != nullptr, "no simulation is running");
  Process* proc = world->current_process();
  SMPI_REQUIRE(proc != nullptr, "MPI call outside of an MPI process");
  return *proc;
}

}  // namespace smpi::core

// ---------------------------------------------------------------------------
// Environment C API
// ---------------------------------------------------------------------------

using smpi::core::current_process_checked;
using smpi::core::SmpiWorld;

MPI_Comm smpi_comm_world() { return current_process_checked().world->world_comm(); }

MPI_Group smpi_group_empty() { return current_process_checked().world->empty_group(); }

int MPI_Init(int* /*argc*/, char*** /*argv*/) {
  auto& proc = current_process_checked();
  if (proc.initialized) return MPI_ERR_OTHER;
  smpi::trace::ApiScope scope("init");
  if (scope.recording()) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kInit;
    scope.emit(r);
  }
  proc.initialized = true;
  return MPI_SUCCESS;
}

int MPI_Initialized(int* flag) {
  if (flag == nullptr) return MPI_ERR_ARG;
  *flag = current_process_checked().initialized ? 1 : 0;
  return MPI_SUCCESS;
}

int MPI_Finalized(int* flag) {
  if (flag == nullptr) return MPI_ERR_ARG;
  *flag = current_process_checked().finalized ? 1 : 0;
  return MPI_SUCCESS;
}

int MPI_Finalize() {
  auto& proc = current_process_checked();
  if (!proc.initialized || proc.finalized) return MPI_ERR_OTHER;
  smpi::trace::ApiScope scope("finalize");
  if (scope.recording()) {
    // The internal barrier below is suppressed by this scope; the replayed
    // MPI_Finalize re-issues it.
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kFinalize;
    scope.emit(r);
  }
  // Finalize synchronizes all processes (many implementations do; it also
  // keeps simulated-time accounting intuitive).
  const int rc = MPI_Barrier(proc.world->world_comm());
  proc.finalized = true;
  return rc;
}

int MPI_Abort(MPI_Comm /*comm*/, int errorcode) {
  throw smpi::core::AbortException{errorcode};
}

double MPI_Wtime() {
  auto& proc = current_process_checked();
  return proc.world->engine().now();
}

double MPI_Wtick() { return 1e-9; }

int MPI_Get_processor_name(char* name, int* resultlen) {
  if (name == nullptr || resultlen == nullptr) return MPI_ERR_ARG;
  auto& proc = current_process_checked();
  const std::string& host = proc.world->platform().host(proc.node).name;
  std::snprintf(name, 256, "%s", host.c_str());
  *resultlen = static_cast<int>(host.size());
  return MPI_SUCCESS;
}
