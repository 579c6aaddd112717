// Campaign result rows: the JSON report, the CSV and the --resume reader all
// render one field table, so a report written, read back and written again
// must come out byte-identical; the CSV must parse RFC-4180 style with one
// cell per header column on every row; and a hand-built outcome pins the
// exact bytes of both formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "workload/generate.hpp"

namespace cp = smpi::campaign;
using smpi::util::JsonValue;
using smpi::util::parse_json;

namespace {

cp::CampaignSpec parse_spec(const std::string& text) {
  return cp::CampaignSpec::parse(parse_json(text, "test spec"));
}

// RFC 4180: comma-separated cells, a quoted cell may hold commas, newlines
// and doubled quotes.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c != '"') {
        cell += c;
      } else if (i + 1 < text.size() && text[i + 1] == '"') {
        cell += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      row.push_back(cell);
      cell.clear();
    } else if (c == '\n') {
      row.push_back(cell);
      cell.clear();
      rows.push_back(row);
      row.clear();
    } else {
      cell += c;
    }
  }
  EXPECT_FALSE(quoted) << "unterminated quoted cell";
  EXPECT_TRUE(row.empty() && cell.empty()) << "last row lacks its newline";
  return rows;
}

const char* kGoldenSpec = R"({
  "name": "golden",
  "trace": "traces/golden",
  "platform": {"kind": "flat", "nodes": 4},
  "axes": [{"param": "link_latency_scale", "values": [1, 10, 100]}]
})";

// Four rows with fixed values: analysis and resources on (the baseline),
// analysis off, resources off (with non-round doubles), and a watchdog kill
// whose error holds a quote and a comma.
cp::CampaignOutcome golden_outcome() {
  cp::CampaignOutcome outcome;
  outcome.workers = 2;
  outcome.wall_s = 1.25;
  outcome.results.resize(4);
  for (int i = 0; i < 4; ++i) {
    cp::ScenarioResult& r = outcome.results[static_cast<std::size_t>(i)];
    r.id = i;
    r.ok = true;
    r.simulated_time = 2.5 * (i + 1);
    r.wall_s = 0.125;
    r.records = 40;
    r.ranks = 2;
    r.arena_bytes = 4096;
    r.rank_compute_s = {1.0, 1.25 * (i + 1)};
    r.rank_comm_s = {0.5, 0.75};
    r.solver_solves = 11;
    r.solver_vars_touched = 22;
    r.solver_cons_touched = 33;
    r.p2p.pool_hits = 1;
    r.p2p.pool_misses = 2;
    r.p2p.eager_snapshots = 3;
    r.p2p.eager_copy_elided = 4;
    r.p2p.eager_flush_snapshots = 5;
    r.p2p.bytes_not_copied = 6;
    r.analyzed = true;
    r.wait_fraction = 0.25;
    r.critical_path_s = r.simulated_time;
    r.cp_compute_s = 1.5;
    r.cp_comm_s = r.simulated_time - 1.5;
    r.dominant_wait = "late_sender";
    r.rank_wait_s = {0.1, 0.2};
    r.rank_transfer_s = {0.3, 0.4};
    r.resources_analyzed = true;
    r.top_bottleneck = "link-0";
    r.bottleneck_saturated_s = 0.75;
    r.max_link_utilization = 1;
  }
  cp::ScenarioResult& no_analysis = outcome.results[1];
  no_analysis.analyzed = false;
  no_analysis.top_bottleneck.clear();  // nothing saturated
  no_analysis.bottleneck_saturated_s = 0;
  no_analysis.max_link_utilization = 0.5;
  cp::ScenarioResult& no_resources = outcome.results[2];
  no_resources.resources_analyzed = false;
  no_resources.simulated_time = 1.0 / 3.0;
  no_resources.wall_s = 0.1;
  no_resources.wait_fraction = 2.0 / 3.0;
  no_resources.dominant_wait = "none";
  no_resources.records = 1234567890123LL;
  cp::ScenarioResult failed;
  failed.id = 3;
  failed.retries = 1;
  failed.timed_out = true;
  failed.worker_exit = "killed by watchdog (killed by signal 9)";
  failed.error = "fault spec: unknown host \"node-7\", at 0.5 s";
  outcome.results[3] = failed;
  return outcome;
}

// report_json(...).dump(2) and report_csv of golden_outcome().
const char* kGoldenJson = R"golden({
  "campaign": "golden",
  "trace": "traces/golden",
  "platform": {
    "kind": "flat",
    "nodes": 4
  },
  "workers": 2,
  "wall_s": 1.25,
  "scenario_count": 4,
  "scenarios": [
    {
      "id": 0,
      "label": "baseline",
      "params": {},
      "ok": true,
      "retries": 0,
      "simulated_time": 2.5,
      "speedup_vs_baseline": 1,
      "wall_s": 0.125,
      "records": 40,
      "ranks": 2,
      "arena_bytes": 4096,
      "breakdown": {
        "compute_total_s": 2.25,
        "comm_total_s": 1.25,
        "compute_max_s": 1.25,
        "comm_max_s": 0.75,
        "rank_compute_s": [
          1,
          1.25
        ],
        "rank_comm_s": [
          0.5,
          0.75
        ]
      },
      "solver": {
        "solves": 11,
        "vars_touched": 22,
        "cons_touched": 33
      },
      "p2p": {
        "pool_hits": 1,
        "pool_misses": 2,
        "eager_snapshots": 3,
        "eager_copy_elided": 4,
        "eager_flush_snapshots": 5,
        "bytes_not_copied": 6
      },
      "analysis": {
        "wait_fraction": 0.25,
        "critical_path_s": 2.5,
        "cp_compute_s": 1.5,
        "cp_comm_s": 1,
        "dominant_wait": "late_sender",
        "rank_wait_s": [
          0.10000000000000001,
          0.20000000000000001
        ],
        "rank_transfer_s": [
          0.29999999999999999,
          0.40000000000000002
        ]
      },
      "resources": {
        "top_bottleneck": "link-0",
        "bottleneck_saturated_s": 0.75,
        "max_link_utilization": 1
      }
    },
    {
      "id": 1,
      "label": "link_latency_scale=1",
      "params": {
        "link_latency_scale": 1
      },
      "ok": true,
      "retries": 0,
      "simulated_time": 5,
      "speedup_vs_baseline": 0.5,
      "wall_s": 0.125,
      "records": 40,
      "ranks": 2,
      "arena_bytes": 4096,
      "breakdown": {
        "compute_total_s": 3.5,
        "comm_total_s": 1.25,
        "compute_max_s": 2.5,
        "comm_max_s": 0.75,
        "rank_compute_s": [
          1,
          2.5
        ],
        "rank_comm_s": [
          0.5,
          0.75
        ]
      },
      "solver": {
        "solves": 11,
        "vars_touched": 22,
        "cons_touched": 33
      },
      "p2p": {
        "pool_hits": 1,
        "pool_misses": 2,
        "eager_snapshots": 3,
        "eager_copy_elided": 4,
        "eager_flush_snapshots": 5,
        "bytes_not_copied": 6
      },
      "resources": {
        "top_bottleneck": "",
        "bottleneck_saturated_s": 0,
        "max_link_utilization": 0.5
      }
    },
    {
      "id": 2,
      "label": "link_latency_scale=10",
      "params": {
        "link_latency_scale": 10
      },
      "ok": true,
      "retries": 0,
      "simulated_time": 0.33333333333333331,
      "speedup_vs_baseline": 7.5,
      "wall_s": 0.10000000000000001,
      "records": 1234567890123,
      "ranks": 2,
      "arena_bytes": 4096,
      "breakdown": {
        "compute_total_s": 4.75,
        "comm_total_s": 1.25,
        "compute_max_s": 3.75,
        "comm_max_s": 0.75,
        "rank_compute_s": [
          1,
          3.75
        ],
        "rank_comm_s": [
          0.5,
          0.75
        ]
      },
      "solver": {
        "solves": 11,
        "vars_touched": 22,
        "cons_touched": 33
      },
      "p2p": {
        "pool_hits": 1,
        "pool_misses": 2,
        "eager_snapshots": 3,
        "eager_copy_elided": 4,
        "eager_flush_snapshots": 5,
        "bytes_not_copied": 6
      },
      "analysis": {
        "wait_fraction": 0.66666666666666663,
        "critical_path_s": 7.5,
        "cp_compute_s": 1.5,
        "cp_comm_s": 6,
        "dominant_wait": "none",
        "rank_wait_s": [
          0.10000000000000001,
          0.20000000000000001
        ],
        "rank_transfer_s": [
          0.29999999999999999,
          0.40000000000000002
        ]
      }
    },
    {
      "id": 3,
      "label": "link_latency_scale=100",
      "params": {
        "link_latency_scale": 100
      },
      "ok": false,
      "retries": 1,
      "error": "fault spec: unknown host \"node-7\", at 0.5 s",
      "timed_out": true,
      "worker_exit": "killed by watchdog (killed by signal 9)"
    }
  ],
  "ranking_fastest_first": [
    2,
    0,
    1
  ]
})golden";

const char* kGoldenCsv = R"golden(id,rep,label,ok,retries,timed_out,link_latency_scale,simulated_time,speedup_vs_baseline,wall_s,records,ranks,compute_total_s,comm_total_s,compute_max_s,comm_max_s,solver_solves,solver_vars_touched,solver_cons_touched,pool_hits,pool_misses,eager_snapshots,eager_copy_elided,eager_flush_snapshots,bytes_not_copied,wait_fraction,critical_path_s,cp_compute_s,cp_comm_s,dominant_wait,top_bottleneck,bottleneck_saturated_s,max_link_utilization,worker_exit,error
0,0,"baseline",1,0,0,,2.5,1,0.125,40,2,2.25,1.25,1.25,0.75,11,22,33,1,2,3,4,5,6,0.25,2.5,1.5,1,late_sender,"link-0",0.75,1,,
1,0,"link_latency_scale=1",1,0,0,1,5,0.5,0.125,40,2,3.5,1.25,2.5,0.75,11,22,33,1,2,3,4,5,6,,,,,,"",0,0.5,,
2,0,"link_latency_scale=10",1,0,0,10,0.333333333,7.5,0.1,1234567890123,2,4.75,1.25,3.75,0.75,11,22,33,1,2,3,4,5,6,0.666666667,7.5,1.5,6,none,,,,,
3,0,"link_latency_scale=100",0,1,1,100,,,,,,,,,,,,,,,,,,,,,,,,,,,"killed by watchdog (killed by signal 9)","fault spec: unknown host ""node-7"", at 0.5 s"
)golden";

// What a failed run's row reads back as, once through a report.
void expect_same_failure(const cp::ScenarioResult& a, const cp::ScenarioResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.worker_exit, b.worker_exit);
  EXPECT_EQ(a.retries, b.retries);
}

// report_json -> results_from_report -> report_json: the scenarios arrays of
// both documents are byte-identical.
void expect_round_trip(const cp::CampaignSpec& spec, const std::vector<cp::Scenario>& scenarios,
                       const cp::CampaignOutcome& outcome) {
  const JsonValue first = cp::report_json(spec, scenarios, outcome);
  cp::CampaignOutcome reread = outcome;
  reread.results = cp::results_from_report(parse_json(first.dump(2), "report"), spec, scenarios);
  ASSERT_EQ(reread.results.size(), outcome.results.size());
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    EXPECT_EQ(reread.results[i].id, outcome.results[i].id) << i;
    EXPECT_EQ(reread.results[i].rep, outcome.results[i].rep) << i;
    if (!outcome.results[i].ok) expect_same_failure(reread.results[i], outcome.results[i]);
  }
  const JsonValue second = cp::report_json(spec, scenarios, reread);
  EXPECT_EQ(second.at("scenarios", "r").dump(2), first.at("scenarios", "r").dump(2));
  EXPECT_EQ(cp::report_csv(spec, scenarios, reread), cp::report_csv(spec, scenarios, outcome));
}

}  // namespace

TEST(CampaignRows, CsvParsesWithOneCellPerColumnAndQuotesIntact) {
  const auto spec = parse_spec(kGoldenSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  const cp::CampaignOutcome outcome = golden_outcome();
  const auto rows = parse_csv(cp::report_csv(spec, scenarios, outcome));
  ASSERT_EQ(rows.size(), 1 + outcome.results.size());
  const std::vector<std::string>& header = rows.front();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].size(), header.size()) << "row " << i;
  }
  auto column = [&](const std::string& name) {
    for (std::size_t c = 0; c < header.size(); ++c) {
      if (header[c] == name) return c;
    }
    ADD_FAILURE() << "no column " << name;
    return std::size_t{0};
  };
  const std::vector<std::string>& failed = rows.back();
  EXPECT_EQ(failed[column("ok")], "0");
  EXPECT_EQ(failed[column("timed_out")], "1");
  EXPECT_EQ(failed[column("max_link_utilization")], "");
  EXPECT_EQ(failed[column("worker_exit")], outcome.results[3].worker_exit);
  EXPECT_EQ(failed[column("error")], outcome.results[3].error);
  EXPECT_EQ(rows[1][column("top_bottleneck")], "link-0");
  EXPECT_EQ(rows[1][column("worker_exit")], "");
  EXPECT_EQ(rows[2][column("wait_fraction")], "");  // analysis off
  EXPECT_EQ(rows[3][column("top_bottleneck")], "");  // resources off
}

TEST(CampaignRows, GoldenJsonAndCsv) {
  const auto spec = parse_spec(kGoldenSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  const cp::CampaignOutcome outcome = golden_outcome();
  EXPECT_EQ(cp::report_json(spec, scenarios, outcome).dump(2), kGoldenJson);
  EXPECT_EQ(cp::report_csv(spec, scenarios, outcome), kGoldenCsv);
}

TEST(CampaignRows, ReportRoundTripsThroughResumeReader) {
  const auto spec = parse_spec(kGoldenSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  expect_round_trip(spec, scenarios, golden_outcome());
}

TEST(CampaignRows, ReplicatedReportRoundTripsThroughResumeReader) {
  const auto spec = parse_spec(R"({
    "name": "round-trip",
    "workload": {"name": "rt", "ranks": 4, "seed": 1, "pattern": "stencil2d",
                 "iterations": 2, "bytes": 4096, "compute": {"flops": 1e6}},
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 2]}],
    "noise": {"seed": 5,
              "host_speed": {"dist": "normal", "mean": 1, "sigma": 0.05},
              "message_jitter": {"dist": "normal", "mean": 0, "sigma": 1e-6}},
    "replications": 3
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);
  cp::CampaignOutcome outcome = cp::run_campaign(spec, scenarios, trace, cp::RunOptions{});
  ASSERT_EQ(outcome.results.size(), scenarios.size() * 3);
  for (const auto& r : outcome.results) ASSERT_TRUE(r.ok) << r.error;
  // Rep 1 of scenario 2 timed out.
  cp::ScenarioResult& killed = outcome.results[2 * 3 + 1];
  killed = cp::ScenarioResult{};
  killed.id = 2;
  killed.rep = 1;
  killed.timed_out = true;
  killed.error = "scenario exceeded the 0.5 s wall-clock watchdog";
  killed.worker_exit = "killed by watchdog (killed by signal 9)";
  expect_round_trip(spec, scenarios, outcome);

  // The same sweep run once, with the same forged row.
  cp::CampaignSpec single = spec;
  single.replications = 1;
  cp::CampaignOutcome once;
  once.replications = 1;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    once.results.push_back(outcome.results[s * 3 + (s == 2 ? 1 : 0)]);
    once.results.back().rep = 0;
  }
  expect_round_trip(single, cp::enumerate_scenarios(single), once);
}

namespace {

// `object` minus the members named in `drop`.
JsonValue without(const JsonValue& object, const std::vector<std::string>& drop) {
  JsonValue out = JsonValue::object();
  for (const auto& [key, value] : object.members()) {
    if (std::find(drop.begin(), drop.end(), key) == drop.end()) out.set(key, value);
  }
  return out;
}

// The golden report with every scenario row passed through `edit`.
JsonValue edited_report(const std::function<JsonValue(const JsonValue&)>& edit) {
  const auto spec = parse_spec(kGoldenSpec);
  const JsonValue report = cp::report_json(spec, cp::enumerate_scenarios(spec), golden_outcome());
  JsonValue rows = JsonValue::array();
  for (const auto& row : report.at("scenarios", "r").items()) rows.append(edit(row));
  JsonValue out = report;
  out.set("scenarios", std::move(rows));
  return out;
}

}  // namespace

TEST(CampaignRows, ResumeReaderAcceptsOlderReportsAndRequiresCoreFields) {
  const auto spec = parse_spec(kGoldenSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  // Reports from before the hardened harness, the p2p counters and the
  // analysis/resources blocks still resume.
  const JsonValue old_report = edited_report([](const JsonValue& row) {
    return without(row, {"retries", "p2p", "analysis", "resources", "timed_out", "worker_exit"});
  });
  const auto results = cp::results_from_report(old_report, spec, scenarios);
  ASSERT_EQ(results.size(), 4u);
  const cp::CampaignOutcome golden = golden_outcome();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(results[i].ok) << i;
    EXPECT_FALSE(results[i].analyzed) << i;
    EXPECT_FALSE(results[i].resources_analyzed) << i;
    EXPECT_EQ(results[i].p2p.eager_flush_snapshots, 0u) << i;
    EXPECT_EQ(results[i].simulated_time, golden.results[i].simulated_time) << i;
    EXPECT_EQ(results[i].rank_comm_s, golden.results[i].rank_comm_s) << i;
  }
  EXPECT_FALSE(results[3].ok);
  EXPECT_EQ(results[3].error, golden.results[3].error);
  EXPECT_EQ(results[3].retries, 0);

  // A core field missing from an ok row is an error, not a silent zero.
  for (const char* core : {"simulated_time", "solver", "breakdown"}) {
    const JsonValue broken =
        edited_report([core](const JsonValue& row) { return without(row, {core}); });
    EXPECT_THROW(cp::results_from_report(broken, spec, scenarios), smpi::util::ContractError)
        << core;
  }
  const JsonValue no_ranks = edited_report([](const JsonValue& row) {
    const JsonValue* breakdown = row.find("breakdown");
    if (breakdown == nullptr) return row;
    JsonValue out = row;
    out.set("breakdown", without(*breakdown, {"rank_compute_s"}));
    return out;
  });
  EXPECT_THROW(cp::results_from_report(no_ranks, spec, scenarios), smpi::util::ContractError);
}
