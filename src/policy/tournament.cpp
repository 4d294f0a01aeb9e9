#include "src/policy/tournament.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "src/common/csv.hpp"
#include "src/common/suggest.hpp"
#include "src/core/predictor.hpp"
#include "src/core/runner.hpp"
#include "src/policy/registry.hpp"
#include "src/telemetry/profiler.hpp"

namespace hcrl::policy {

namespace {

std::string render_side(const std::string& name, const common::Config& opts) {
  const std::vector<std::string> keys = opts.keys();
  if (keys.empty()) return name;
  std::string out = name + "(";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ';';
    out += keys[i] + "=" + opts.get_string(keys[i]);
  }
  return out + ")";
}

/// Strict numeric suffix parse for the combo sugar forms.
bool parse_suffix_double(const std::string& s, double& out) {
  const auto v = common::parse_csv_double(s);
  if (!v.has_value()) return false;
  out = *v;
  return true;
}

bool parse_suffix_int(const std::string& s, long long& out) {
  const auto v = common::parse_csv_int(s);
  if (!v.has_value()) return false;
  out = *v;
  return true;
}

std::string what_of(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

// ---- resume journal --------------------------------------------------------
//
// Append-only CSV: one magic line, then one record per successfully finished
// cell (keyed by the cell name, which embeds the combo label). Every numeric
// field uses format_csv_double / integer text, so a journaled cell's CSV
// output reproduces byte-identically on resume. A short or non-numeric
// trailing record — the signature of a SIGKILL mid-write — ends the load
// without error; everything after it recomputes.

constexpr const char* kJournalMagic = "hcrl-tournament-journal-v1";
constexpr std::size_t kJournalFields = 21;  // name + 20 numerics below

std::vector<std::string> journal_record(const std::string& name,
                                        const core::ExperimentResult& r) {
  const auto& snap = r.final_snapshot;
  const auto& f = snap.faults;
  return {name,
          std::to_string(snap.jobs_completed),
          std::to_string(snap.jobs_arrived),
          common::format_csv_double(snap.energy_joules),
          common::format_csv_double(snap.accumulated_latency_s),
          common::format_csv_double(snap.average_power_watts),
          common::format_csv_double(snap.now),
          common::format_csv_double(r.latency_p95_s),
          common::format_csv_double(r.latency_p99_s),
          std::to_string(r.sla_violations),
          std::to_string(r.servers_on_at_end),
          common::format_csv_double(r.wall_seconds),
          std::to_string(f.crashes),
          std::to_string(f.recoveries),
          std::to_string(f.evictions),
          std::to_string(f.jobs_killed),
          std::to_string(f.bounces),
          std::to_string(f.retries),
          std::to_string(f.jobs_lost),
          common::format_csv_double(f.lost_cpu_seconds),
          common::format_csv_double(f.downtime_s)};
}

bool parse_journal_record(const std::vector<std::string>& fields, core::ExperimentResult& r) {
  if (fields.size() != kJournalFields) return false;
  std::size_t i = 1;
  const auto next_int = [&](auto& out) {
    const auto v = common::parse_csv_int(fields[i++]);
    if (!v.has_value() || *v < 0) return false;
    out = static_cast<std::decay_t<decltype(out)>>(*v);
    return true;
  };
  const auto next_double = [&](double& out) {
    const auto v = common::parse_csv_double(fields[i++]);
    if (!v.has_value()) return false;
    out = *v;
    return true;
  };
  auto& snap = r.final_snapshot;
  auto& f = snap.faults;
  return next_int(snap.jobs_completed) && next_int(snap.jobs_arrived) &&
         next_double(snap.energy_joules) && next_double(snap.accumulated_latency_s) &&
         next_double(snap.average_power_watts) && next_double(snap.now) &&
         next_double(r.latency_p95_s) && next_double(r.latency_p99_s) &&
         next_int(r.sla_violations) && next_int(r.servers_on_at_end) &&
         next_double(r.wall_seconds) && next_int(f.crashes) && next_int(f.recoveries) &&
         next_int(f.evictions) && next_int(f.jobs_killed) && next_int(f.bounces) &&
         next_int(f.retries) && next_int(f.jobs_lost) && next_double(f.lost_cpu_seconds) &&
         next_double(f.downtime_s);
}

/// Parsed journal state: finished-cell records plus the byte offset of the
/// end of the last *complete* record, so a truncated tail (the previous run
/// was killed mid-write) can be trimmed before new records are appended —
/// appending straight after a dangling partial line would glue two records
/// together and corrupt the journal for the next resume.
struct JournalContents {
  std::unordered_map<std::string, core::ExperimentResult> done;
  bool has_magic = false;
  std::streamoff valid_bytes = 0;
};

/// Load an existing journal (empty state when the file does not exist or is
/// empty). Throws std::invalid_argument when the file exists but does not
/// start with the journal magic — silently resuming from an unrelated file
/// would drop cells.
JournalContents load_journal(const std::string& path) {
  JournalContents journal;
  std::ifstream in(path, std::ios::binary);
  if (!in) return journal;  // fresh journal
  common::CsvReader reader(in);
  std::vector<std::string> fields;
  if (!reader.read_row(fields)) return journal;  // empty file: treat as fresh
  if (fields.size() != 1 || fields[0] != kJournalMagic) {
    throw std::invalid_argument("tournament journal '" + path + "': not a journal file (bad magic)");
  }
  journal.has_magic = true;
  const auto mark = [&] {
    // tellg() is -1 once eofbit is set (final line without a trailing
    // newline); leaving valid_bytes at the previous record just re-runs
    // that cell, which is always safe.
    const std::streamoff pos = in.tellg();
    if (pos >= 0) journal.valid_bytes = pos;
  };
  mark();
  while (reader.read_row(fields)) {
    core::ExperimentResult r;
    if (fields.empty() || !parse_journal_record(fields, r)) break;  // truncated tail
    journal.done[fields[0]] = std::move(r);
    mark();
  }
  return journal;
}

/// Appends one journal record per completed cell, flushed immediately so a
/// killed run loses at most the record being written.
class JournalWriter final : public core::RunObserver {
 public:
  JournalWriter(const std::string& path, bool fresh)
      : out_(path, std::ios::app), writer_(out_) {
    if (!out_) throw std::runtime_error("tournament journal: cannot open " + path);
    if (fresh) {
      writer_.write_row({kJournalMagic});
      out_.flush();
    }
  }

  void on_complete(const core::Scenario& scenario, const core::ExperimentResult& result) override {
    writer_.write_row(journal_record(scenario.name, result));
    out_.flush();
  }

 private:
  std::ofstream out_;
  common::CsvWriter writer_;
};

}  // namespace

std::string PolicyCombo::label() const {
  return render_side(allocator, allocator_opts) + "+" + render_side(power, power_opts);
}

PolicyCombo combo_from_string(const std::string& text) {
  const std::size_t plus = text.find('+');
  if (plus == std::string::npos || plus == 0 || plus + 1 >= text.size()) {
    throw std::invalid_argument("combo '" + text +
                                "' must have the form '<allocator>+<power>' "
                                "(e.g. best-fit+fixed-timeout-60)");
  }
  const std::string lhs = text.substr(0, plus);
  const std::string rhs = text.substr(plus + 1);
  const PolicyRegistry& reg = PolicyRegistry::builtin();

  PolicyCombo combo;
  if (reg.has_allocator(lhs)) {
    combo.allocator = lhs;
  } else {
    long long k = 0;
    if (lhs.rfind("random-", 0) == 0 && parse_suffix_int(lhs.substr(7), k) && k > 0) {
      combo.allocator = "random-k";
      combo.allocator_opts.set("k", lhs.substr(7));  // raw text keeps labels clean
    } else {
      throw std::invalid_argument(
          "combo '" + text + "': " +
          common::unknown_key_message("allocator", lhs, reg.allocator_names()));
    }
  }
  if (reg.has_power(rhs)) {
    combo.power = rhs;
  } else {
    double timeout = 0.0;
    const std::vector<std::string> predictors = core::predictor_kinds();
    if (rhs.rfind("fixed-timeout-", 0) == 0 && parse_suffix_double(rhs.substr(14), timeout) &&
        timeout >= 0.0) {
      combo.power = "fixed-timeout";
      combo.power_opts.set("timeout_s", rhs.substr(14));  // raw text keeps labels clean
    } else if (rhs.rfind("rl-", 0) == 0 &&
               std::find(predictors.begin(), predictors.end(), rhs.substr(3)) !=
                   predictors.end()) {
      combo.power = "rl-dpm";
      combo.power_opts.set("predictor", rhs.substr(3));
    } else {
      throw std::invalid_argument(
          "combo '" + text + "': " +
          common::unknown_key_message("power policy", rhs, reg.power_names()));
    }
  }
  return combo;
}

std::vector<PolicyCombo> default_combos() {
  const char* specs[] = {
      "round-robin+always-on",         // the paper's baseline pairing
      "round-robin+fixed-timeout-60",  // Fig. 10 style timeout baseline
      "least-loaded+immediate-sleep",
      "first-fit-packing+immediate-sleep",
      "best-fit+immediate-sleep",
      "worst-fit+immediate-sleep",
      "tetris+immediate-sleep",
      "random-3+immediate-sleep",
      "first-fit-packing+rl-window",  // RL local tier coverage
  };
  std::vector<PolicyCombo> combos;
  combos.reserve(std::size(specs));
  for (const char* s : specs) combos.push_back(combo_from_string(s));
  return combos;
}

std::vector<std::string> default_scenario_names() {
  return {"tiny/round-robin", "google2011-sample", "alibaba2018-sample", "alibaba2018-calibrated"};
}

TournamentResult run_tournament(const TournamentOptions& opts, std::size_t workers) {
  TournamentResult result;
  result.combos = opts.combos.empty() ? default_combos() : opts.combos;

  // Build each scenario recipe once; combos reuse the instance (and so share
  // its explicit trace source) via copies.
  std::vector<core::Scenario> bases;
  const std::vector<std::string> names =
      opts.scenario_names.empty() && opts.extra_scenarios.empty() ? default_scenario_names()
                                                                  : opts.scenario_names;
  for (const std::string& name : names) {
    bases.push_back(core::ScenarioRegistry::builtin().make(name, opts.jobs));
  }
  for (const core::Scenario& s : opts.extra_scenarios) bases.push_back(s);
  if (bases.empty()) throw std::invalid_argument("run_tournament: no scenarios");
  if (result.combos.empty()) throw std::invalid_argument("run_tournament: no combos");
  for (const core::Scenario& s : bases) result.scenarios.push_back(s.name);

  std::vector<core::Scenario> cells;
  cells.reserve(result.combos.size() * bases.size());
  for (const PolicyCombo& combo : result.combos) {
    for (const core::Scenario& base : bases) {
      core::Scenario cell = base;
      cell.name = base.name + "|" + combo.label();
      cell.config.allocator = combo.allocator;
      cell.config.allocator_opts = combo.allocator_opts;
      cell.config.power = combo.power;
      cell.config.power_opts = combo.power_opts;
      cell.config.sla_latency_s = opts.sla_latency_s;
      if (opts.watchdog_s > 0.0) cell.config.watchdog_s = opts.watchdog_s;
      cells.push_back(std::move(cell));
    }
  }

  // Per-cell timing comes from the batch's "runner.scenario" span (each
  // cell name embeds the combo label); this span wraps the whole grid.
  static const telemetry::SpanDef kGridSpan("tournament.grid");
  if (telemetry::enabled()) {
    telemetry::count(telemetry::global_registry().counter("tournament.cells"), cells.size());
  }
  std::vector<core::ScenarioOutcome> outcomes = [&] {
    telemetry::Span span(kGridSpan, std::to_string(cells.size()) + " cells");
    if (opts.journal_path.empty()) return core::run_outcomes(cells, workers);

    // Crash-safe resume: journaled cells are reconstructed without running;
    // only the remainder runs as a batch (with a journaling observer), and
    // its outcomes merge back into grid order.
    const JournalContents done = load_journal(opts.journal_path);
    std::vector<core::ScenarioOutcome> merged(cells.size());
    std::vector<core::Scenario> todo;
    std::vector<std::size_t> todo_index;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto it = done.done.find(cells[i].name);
      if (it != done.done.end()) {
        merged[i].result = it->second;
      } else {
        todo.push_back(cells[i]);
        todo_index.push_back(i);
      }
    }
    if (!todo.empty()) {
      if (done.has_magic) {
        // Trim any truncated trailing record so appended records start on a
        // fresh line instead of gluing onto the dangling partial one.
        std::error_code ec;
        const std::uintmax_t size = std::filesystem::file_size(opts.journal_path, ec);
        if (!ec && size > static_cast<std::uintmax_t>(done.valid_bytes)) {
          std::filesystem::resize_file(
              opts.journal_path, static_cast<std::uintmax_t>(done.valid_bytes), ec);
          if (ec) {
            throw std::runtime_error("tournament journal: cannot trim truncated tail of " +
                                     opts.journal_path + ": " + ec.message());
          }
        }
      }
      // The magic line is written only when the file is genuinely absent or
      // empty — a journal whose every record was truncated away still has
      // its magic and must not get a second one.
      JournalWriter journal(opts.journal_path, !done.has_magic);
      std::vector<core::ScenarioOutcome> ran = core::run_outcomes(todo, workers, &journal);
      for (std::size_t j = 0; j < ran.size(); ++j) merged[todo_index[j]] = std::move(ran[j]);
    }
    return merged;
  }();

  result.cells.resize(cells.size());
  for (std::size_t c = 0; c < result.combos.size(); ++c) {
    for (std::size_t s = 0; s < bases.size(); ++s) {
      const std::size_t i = c * bases.size() + s;
      TournamentCell& cell = result.cells[i];
      cell.scenario = result.scenarios[s];
      cell.combo = result.combos[c];
      if (outcomes[i].ok()) {
        cell.ok = true;
        cell.result = std::move(outcomes[i].result);
        if (cell.result.wall_seconds > 0.0) {
          cell.decisions_per_sec =
              static_cast<double>(cell.result.final_snapshot.jobs_completed) /
              cell.result.wall_seconds;
        }
      } else {
        cell.error = what_of(outcomes[i].error);
      }
    }
  }
  return result;
}

std::vector<LeaderboardRow> leaderboard(const TournamentResult& result) {
  const std::size_t num_scenarios = result.scenarios.size();
  std::vector<LeaderboardRow> rows;
  rows.reserve(result.combos.size());
  for (std::size_t c = 0; c < result.combos.size(); ++c) {
    LeaderboardRow row;
    row.combo = result.combos[c].label();
    row.allocator = result.combos[c].allocator;
    row.power = result.combos[c].power;
    double downtime_s = 0.0;
    std::size_t recoveries = 0;
    for (std::size_t s = 0; s < num_scenarios; ++s) {
      const TournamentCell& cell = result.cells[c * num_scenarios + s];
      if (!cell.ok) {
        ++row.scenarios_failed;
        continue;
      }
      ++row.scenarios_ok;
      row.energy_kwh += cell.result.final_snapshot.energy_kwh();
      row.latency_p95_s = std::max(row.latency_p95_s, cell.result.latency_p95_s);
      row.latency_p99_s = std::max(row.latency_p99_s, cell.result.latency_p99_s);
      row.sla_violations += cell.result.sla_violations;
      row.jobs_completed += cell.result.final_snapshot.jobs_completed;
      const sim::FaultCounters& f = cell.result.final_snapshot.faults;
      row.crashes += f.crashes;
      row.evictions += f.evictions;
      row.retries += f.retries;
      row.jobs_lost += f.jobs_lost;
      row.lost_cpu_seconds += f.lost_cpu_seconds;
      downtime_s += f.downtime_s;
      recoveries += f.recoveries;
      row.wall_seconds += cell.result.wall_seconds;
    }
    if (recoveries > 0) row.mttr_s = downtime_s / static_cast<double>(recoveries);
    if (row.wall_seconds > 0.0) {
      row.decisions_per_sec = static_cast<double>(row.jobs_completed) / row.wall_seconds;
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const LeaderboardRow& a, const LeaderboardRow& b) {
    if (a.scenarios_failed != b.scenarios_failed) return a.scenarios_failed < b.scenarios_failed;
    if (a.energy_kwh != b.energy_kwh) return a.energy_kwh < b.energy_kwh;
    return a.combo < b.combo;
  });
  return rows;
}

void write_leaderboard_csv(std::ostream& out, const TournamentResult& result,
                           LeaderboardColumns columns) {
  common::CsvWriter writer(out);
  std::vector<std::string> header = {"rank",          "combo",          "allocator",
                                     "power",         "scenarios_ok",   "scenarios_failed",
                                     "energy_kwh",    "latency_p95_s",  "latency_p99_s",
                                     "sla_violations", "jobs_completed",
                                     "crashes",        "evictions",     "retries",
                                     "jobs_lost",      "lost_cpu_s",    "mttr_s"};
  if (columns == LeaderboardColumns::kWithTiming) {
    header.push_back("decisions_per_sec");
    header.push_back("wall_seconds");
  }
  writer.write_row(header);
  const std::vector<LeaderboardRow> rows = leaderboard(result);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LeaderboardRow& r = rows[i];
    std::vector<std::string> fields = {std::to_string(i + 1),
                                       r.combo,
                                       r.allocator,
                                       r.power,
                                       std::to_string(r.scenarios_ok),
                                       std::to_string(r.scenarios_failed),
                                       common::format_csv_double(r.energy_kwh),
                                       common::format_csv_double(r.latency_p95_s),
                                       common::format_csv_double(r.latency_p99_s),
                                       std::to_string(r.sla_violations),
                                       std::to_string(r.jobs_completed),
                                       std::to_string(r.crashes),
                                       std::to_string(r.evictions),
                                       std::to_string(r.retries),
                                       std::to_string(r.jobs_lost),
                                       common::format_csv_double(r.lost_cpu_seconds),
                                       common::format_csv_double(r.mttr_s)};
    if (columns == LeaderboardColumns::kWithTiming) {
      fields.push_back(common::format_csv_double(r.decisions_per_sec));
      fields.push_back(common::format_csv_double(r.wall_seconds));
    }
    writer.write_row(fields);
  }
}

void write_cells_csv(std::ostream& out, const TournamentResult& result,
                     LeaderboardColumns columns) {
  common::CsvWriter writer(out);
  std::vector<std::string> header = {"scenario",       "combo",          "allocator",
                                     "power",          "status",         "error",
                                     "energy_kwh",     "avg_power_w",    "avg_latency_s",
                                     "latency_p95_s",  "latency_p99_s",  "sla_violations",
                                     "jobs_completed", "crashes",        "evictions",
                                     "retries",        "jobs_lost",      "lost_cpu_s",
                                     "mttr_s"};
  if (columns == LeaderboardColumns::kWithTiming) {
    header.push_back("decisions_per_sec");
    header.push_back("wall_seconds");
  }
  writer.write_row(header);
  for (const TournamentCell& cell : result.cells) {
    std::vector<std::string> fields = {cell.scenario, cell.combo.label(), cell.combo.allocator,
                                       cell.combo.power};
    if (cell.ok) {
      const auto& snap = cell.result.final_snapshot;
      fields.push_back("ok");
      fields.push_back("");
      fields.push_back(common::format_csv_double(snap.energy_kwh()));
      fields.push_back(common::format_csv_double(snap.average_power_watts));
      fields.push_back(common::format_csv_double(snap.average_latency_s()));
      fields.push_back(common::format_csv_double(cell.result.latency_p95_s));
      fields.push_back(common::format_csv_double(cell.result.latency_p99_s));
      fields.push_back(std::to_string(cell.result.sla_violations));
      fields.push_back(std::to_string(snap.jobs_completed));
      fields.push_back(std::to_string(snap.faults.crashes));
      fields.push_back(std::to_string(snap.faults.evictions));
      fields.push_back(std::to_string(snap.faults.retries));
      fields.push_back(std::to_string(snap.faults.jobs_lost));
      fields.push_back(common::format_csv_double(snap.faults.lost_cpu_seconds));
      fields.push_back(common::format_csv_double(snap.faults.mttr_s()));
      if (columns == LeaderboardColumns::kWithTiming) {
        fields.push_back(common::format_csv_double(cell.decisions_per_sec));
        fields.push_back(common::format_csv_double(cell.result.wall_seconds));
      }
    } else {
      fields.push_back("error");
      fields.push_back(cell.error);
      for (int i = 0; i < 13; ++i) fields.push_back("");
      if (columns == LeaderboardColumns::kWithTiming) {
        fields.push_back("");
        fields.push_back("");
      }
    }
    writer.write_row(fields);
  }
}

}  // namespace hcrl::policy
