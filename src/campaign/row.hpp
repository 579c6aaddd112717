// Campaign result rows: one scenario run's result and its one encoding.
//
// Every serialized ScenarioResult field is listed once, in the field table
// of row.cpp, with its JSON group and key, its CSV column, and the flag that
// gates it. The worker->parent pipe, the JSON report rows, the --resume
// reader and the CSV all loop over that table, so adding a result column
// means adding a member here and one table entry there.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "smpi/smpi.hpp"
#include "util/json.hpp"

namespace smpi::campaign {

struct ScenarioResult {
  int id = -1;   // scenario id
  int rep = 0;   // replication index in [0, spec.replications)
  bool ok = false;
  std::string error;
  // Harness accounting (parent-side): how many extra dispatches this
  // scenario needed, whether the watchdog killed it, and how its worker
  // exited when it died ("killed by signal 9", "exited with status 33").
  int retries = 0;
  bool timed_out = false;
  std::string worker_exit;
  double simulated_time = 0;
  double wall_s = 0;       // worker-side wall clock for this scenario
  long long records = 0;
  int ranks = 0;
  std::uint64_t arena_bytes = 0;
  // Per-rank simulated-time breakdown (compute vs communication).
  std::vector<double> rank_compute_s;
  std::vector<double> rank_comm_s;
  // Solver work (network + cpu max-min systems).
  std::uint64_t solver_solves = 0;
  std::uint64_t solver_vars_touched = 0;
  std::uint64_t solver_cons_touched = 0;
  // p2p hot-path accounting (pool reuse, zero-copy eager activity).
  core::P2pCounters p2p;
  // Wait-state / critical-path analysis of this run (present when the
  // spec's "analysis" flag was on — the default).
  bool analyzed = false;
  double wait_fraction = 0;    // blocked-on-a-peer share of total MPI+compute time
  double critical_path_s = 0;  // == simulated_time up to fp tolerance
  double cp_compute_s = 0;     // critical path split: local work vs. wire time
  double cp_comm_s = 0;
  std::string dominant_wait;   // "late_sender" | "late_receiver" | "early_arrival" | "none"
  std::vector<double> rank_wait_s;      // per-rank blocked-on-peer time
  std::vector<double> rank_transfer_s;  // per-rank wire-busy time
  // Resource-utilization summary (present when the spec's "resources" flag
  // was on — the default): the link/host with the most saturated seconds
  // and the peak link utilization across the run.
  bool resources_analyzed = false;
  std::string top_bottleneck;        // empty = nothing ever saturated
  double bottleneck_saturated_s = 0;
  double max_link_utilization = 0;   // fraction of capacity, in [0, 1]

  double compute_total_s() const;
  double comm_total_s() const;
  double compute_max_s() const;
  double comm_max_s() const;
};

// baseline / r simulated time; 0 when either run failed.
double speedup_vs_baseline(const ScenarioResult& baseline, const ScenarioResult& r);

// Adds r's result fields to `row` (a JSON object) in table order. With a
// baseline (the same-replication run of scenario 0) the row also gets
// speedup_vs_baseline, as report rows do; without one it is the encoding a
// worker sends its parent.
void write_result(util::JsonValue& row, const ScenarioResult& r, const ScenarioResult* baseline);

// Inverse of write_result; id and rep are left to the caller. Fields derived
// from others (breakdown totals, speedup) are recomputed, not read. Throws
// ContractError naming `context` when a required field is missing. Absent
// optional fields keep their defaults: retries and the failure diagnostics
// (reports written before the hardened harness), and the p2p, analysis and
// resources blocks (older reports, or the flag was off).
ScenarioResult read_result(const util::JsonValue& row, const std::string& context);

// CSV: the result columns around a scenario's axis columns. The harness
// columns (ok, retries, timed_out) precede `axis_cells`, the metrics and
// diagnostics follow; every cell is preceded by a comma. csv_columns
// returns the matching header names.
std::string csv_cells(const ScenarioResult& r, const ScenarioResult& baseline,
                      const std::string& axis_cells);
std::string csv_columns(const std::string& axis_columns);

// RFC 4180 quoting: the text in double quotes, embedded quotes doubled.
std::string csv_quote(const std::string& text);

}  // namespace smpi::campaign
