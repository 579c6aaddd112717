#include "campaign/row.hpp"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "util/check.hpp"

namespace smpi::campaign {

namespace {

// When a field is present: on every row, on ok or on failed rows only, or
// only when the run's analysis / resource collection was on. Those two flags
// are not fields themselves: their JSON block is present or absent.
enum Gate { kAlways, kOk, kFailed, kAnalyzed, kResources };

constexpr unsigned kLead = 1;          // CSV: before the axis columns
constexpr unsigned kLast = 2;          // CSV: after every other column
constexpr unsigned kQuoted = 4;        // CSV: free text, quoted
constexpr unsigned kOptional = 8;      // reader: an absent key keeps the default
constexpr unsigned kOmitDefault = 16;  // JSON: left out while false / empty

struct Field {
  const char* group;   // enclosing JSON object; "" = the row itself
  const char* key;     // JSON key
  const char* column;  // CSV column; "" = named like the key, nullptr = JSON only
  Gate gate;
  unsigned flags;
};

// A value computed from other fields or against the baseline run: written,
// never read back.
struct Derived {
  double value;
};

// The field table, in JSON key order: a group's object sits where its first
// field does, and since ok and failed rows share only the kAlways fields,
// the failure diagnostics may follow the metrics. CSV columns keep this
// order, except that kLead ones precede the axis columns and kLast ones end
// the row. `visit` gets each field's description and its value on `r`.
template <class Result, class Visit>
void for_each_field(Result& r, const ScenarioResult* baseline, Visit&& visit) {
  visit({"", "ok", "", kAlways, kLead}, r.ok);
  visit({"", "retries", "", kAlways, kLead | kOptional}, r.retries);
  visit({"", "simulated_time", "", kOk, 0}, r.simulated_time);
  if (baseline != nullptr) {
    visit({"", "speedup_vs_baseline", "", kOk, 0}, Derived{speedup_vs_baseline(*baseline, r)});
  }
  visit({"", "wall_s", "", kOk, 0}, r.wall_s);
  visit({"", "records", "", kOk, 0}, r.records);
  visit({"", "ranks", "", kOk, 0}, r.ranks);
  visit({"", "arena_bytes", nullptr, kOk, 0}, r.arena_bytes);
  visit({"breakdown", "compute_total_s", "", kOk, 0}, Derived{r.compute_total_s()});
  visit({"breakdown", "comm_total_s", "", kOk, 0}, Derived{r.comm_total_s()});
  visit({"breakdown", "compute_max_s", "", kOk, 0}, Derived{r.compute_max_s()});
  visit({"breakdown", "comm_max_s", "", kOk, 0}, Derived{r.comm_max_s()});
  visit({"breakdown", "rank_compute_s", nullptr, kOk, 0}, r.rank_compute_s);
  visit({"breakdown", "rank_comm_s", nullptr, kOk, 0}, r.rank_comm_s);
  visit({"solver", "solves", "solver_solves", kOk, 0}, r.solver_solves);
  visit({"solver", "vars_touched", "solver_vars_touched", kOk, 0}, r.solver_vars_touched);
  visit({"solver", "cons_touched", "solver_cons_touched", kOk, 0}, r.solver_cons_touched);
  visit({"p2p", "pool_hits", "", kOk, kOptional}, r.p2p.pool_hits);
  visit({"p2p", "pool_misses", "", kOk, kOptional}, r.p2p.pool_misses);
  visit({"p2p", "eager_snapshots", "", kOk, kOptional}, r.p2p.eager_snapshots);
  visit({"p2p", "eager_copy_elided", "", kOk, kOptional}, r.p2p.eager_copy_elided);
  visit({"p2p", "eager_flush_snapshots", "", kOk, kOptional}, r.p2p.eager_flush_snapshots);
  visit({"p2p", "bytes_not_copied", "", kOk, kOptional}, r.p2p.bytes_not_copied);
  visit({"analysis", "wait_fraction", "", kAnalyzed, 0}, r.wait_fraction);
  visit({"analysis", "critical_path_s", "", kAnalyzed, 0}, r.critical_path_s);
  visit({"analysis", "cp_compute_s", "", kAnalyzed, 0}, r.cp_compute_s);
  visit({"analysis", "cp_comm_s", "", kAnalyzed, 0}, r.cp_comm_s);
  visit({"analysis", "dominant_wait", "", kAnalyzed, 0}, r.dominant_wait);
  visit({"analysis", "rank_wait_s", nullptr, kAnalyzed, 0}, r.rank_wait_s);
  visit({"analysis", "rank_transfer_s", nullptr, kAnalyzed, 0}, r.rank_transfer_s);
  visit({"resources", "top_bottleneck", "", kResources, kQuoted}, r.top_bottleneck);
  visit({"resources", "bottleneck_saturated_s", "", kResources, 0}, r.bottleneck_saturated_s);
  visit({"resources", "max_link_utilization", "", kResources, 0}, r.max_link_utilization);
  visit({"", "error", "", kFailed, kLast | kQuoted | kOptional}, r.error);
  visit({"", "timed_out", "", kAlways, kLead | kOptional | kOmitDefault}, r.timed_out);
  visit({"", "worker_exit", "", kFailed, kQuoted | kOptional | kOmitDefault}, r.worker_exit);
}

bool gate_open(Gate gate, const ScenarioResult& r) {
  switch (gate) {
    case kAlways: return true;
    case kOk: return r.ok;
    case kFailed: return !r.ok;
    case kAnalyzed: return r.ok && r.analyzed;
    case kResources: return r.ok && r.resources_analyzed;
  }
  SMPI_UNREACHABLE("bad result field gate");
}

// Per value type: whether it is the default (for kOmitDefault), its JSON
// form and back, and its CSV cell.
bool is_default(bool value) { return !value; }
bool is_default(const std::string& value) { return value.empty(); }
template <class T>
bool is_default(const T&) { return false; }

util::JsonValue to_json(bool value) { return util::JsonValue::boolean(value); }
util::JsonValue to_json(const std::string& value) { return util::JsonValue::string(value); }
util::JsonValue to_json(Derived value) { return util::JsonValue::number(value.value); }
util::JsonValue to_json(const std::vector<double>& values) {
  util::JsonValue array = util::JsonValue::array();
  for (double v : values) array.append(util::JsonValue::number(v));
  return array;
}
template <class Number>
util::JsonValue to_json(Number value) {
  return util::JsonValue::number(static_cast<double>(value));
}

void from_json(const util::JsonValue& json, bool& value) { value = json.as_bool(); }
void from_json(const util::JsonValue& json, std::string& value) { value = json.as_string(); }
void from_json(const util::JsonValue& json, double& value) { value = json.as_number(); }
void from_json(const util::JsonValue& json, std::vector<double>& values) {
  values.clear();
  for (const auto& v : json.items()) values.push_back(v.as_number());
}
template <class Int>
void from_json(const util::JsonValue& json, Int& value) { value = static_cast<Int>(json.as_int()); }

std::string csv_text(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}
std::string csv_text(bool value) { return value ? "1" : "0"; }
std::string csv_text(const std::string& value) { return value; }
std::string csv_text(Derived value) { return csv_text(value.value); }
std::string csv_text(const std::vector<double>&) { return {}; }  // never a CSV column
template <class Int>
std::string csv_text(Int value) { return std::to_string(value); }

// Header names (r == nullptr) or cells of one CSV row's result columns.
std::string csv_line(const ScenarioResult* r, const ScenarioResult& baseline,
                     const std::string& axes) {
  std::string lead;
  std::string body;
  std::string last;
  for_each_field(r != nullptr ? *r : baseline, &baseline, [&](const Field& f, const auto& value) {
    if (f.column == nullptr) return;
    std::string& out = (f.flags & kLead) != 0 ? lead : (f.flags & kLast) != 0 ? last : body;
    out += ',';
    if (r == nullptr) {
      out += *f.column != '\0' ? f.column : f.key;
    } else if (gate_open(f.gate, *r)) {
      out += (f.flags & kQuoted) != 0 ? csv_quote(csv_text(value)) : csv_text(value);
    }
  });
  return lead + axes + body + last;
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

double max_of(const std::vector<double>& v) {
  double best = 0;
  for (double x : v) best = std::max(best, x);
  return best;
}

}  // namespace

double ScenarioResult::compute_total_s() const { return sum(rank_compute_s); }
double ScenarioResult::comm_total_s() const { return sum(rank_comm_s); }
double ScenarioResult::compute_max_s() const { return max_of(rank_compute_s); }
double ScenarioResult::comm_max_s() const { return max_of(rank_comm_s); }

double speedup_vs_baseline(const ScenarioResult& baseline, const ScenarioResult& r) {
  if (!baseline.ok || !r.ok || r.simulated_time <= 0) return 0;
  return baseline.simulated_time / r.simulated_time;
}

void write_result(util::JsonValue& row, const ScenarioResult& r, const ScenarioResult* baseline) {
  // A group's fields are contiguous: fill its object, set it on the row when
  // the next group starts.
  std::string group_key;
  util::JsonValue group;
  auto close_group = [&] {
    if (!group_key.empty()) row.set(group_key, std::move(group));
    group_key.clear();
  };
  for_each_field(r, baseline, [&](const Field& f, const auto& value) {
    if (!gate_open(f.gate, r) || ((f.flags & kOmitDefault) != 0 && is_default(value))) return;
    if (group_key != f.group) {
      close_group();
      group_key = f.group;
      group = util::JsonValue::object();
    }
    (group_key.empty() ? row : group).set(f.key, to_json(value));
  });
  close_group();
}

ScenarioResult read_result(const util::JsonValue& row, const std::string& context) {
  ScenarioResult r;
  for_each_field(r, nullptr, [&](const Field& f, auto&& value) {
    using T = std::decay_t<decltype(value)>;
    if constexpr (!std::is_same_v<T, Derived>) {
      const util::JsonValue* scope = *f.group == '\0' ? &row : row.find(f.group);
      if (f.gate == kAnalyzed) r.analyzed = r.ok && scope != nullptr;
      if (f.gate == kResources) r.resources_analyzed = r.ok && scope != nullptr;
      if (!gate_open(f.gate, r)) return;
      const util::JsonValue* json = scope != nullptr ? scope->find(f.key) : nullptr;
      if (json == nullptr) {
        const std::string where = *f.group != '\0' ? context + " " + f.group : context;
        SMPI_REQUIRE((f.flags & kOptional) != 0, where + ": missing key '" + f.key + "'");
        return;
      }
      from_json(*json, value);
    }
  });
  return r;
}

std::string csv_cells(const ScenarioResult& r, const ScenarioResult& baseline,
                      const std::string& axis_cells) {
  return csv_line(&r, baseline, axis_cells);
}

std::string csv_columns(const std::string& axis_columns) {
  const ScenarioResult none;
  return csv_line(nullptr, none, axis_columns);
}

std::string csv_quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    out += c;
    if (c == '"') out += '"';
  }
  return out + '"';
}

}  // namespace smpi::campaign
