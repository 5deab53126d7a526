#include "lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <set>
#include <sstream>

#include "lint/checks.hpp"
#include "lint/sema.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace acclaim::lint {

namespace {

// ---------------------------------------------------------------------------
// Check registry
// ---------------------------------------------------------------------------

std::vector<CheckInfo> make_registry() {
  return {
      {"det-rand", Severity::Error,
       "libc/<random> randomness is forbidden in deterministic layers; use util::Rng "
       "(Rng::stream for parallel work)"},
      {"det-wallclock", Severity::Error,
       "clock reads (system_clock, steady_clock, time(), gettimeofday) are forbidden in "
       "deterministic layers; host-wall telemetry goes through telemetry::Span"},
      {"det-rng-ref-capture", Severity::Error,
       "a mutable Rng captured by reference must not cross a parallel_for/submit boundary; "
       "pre-derive per-item RNGs before the loop"},
      {"det-unordered-iter", Severity::Error,
       "iteration over std::unordered_map/unordered_set has hash-dependent order; use "
       "std::map/std::set or sort before iterating"},
      {"par-shared-write", Severity::Error,
       "non-atomic write to shared state inside a parallel_for/submit lambda; write only to "
       "per-index slots"},
      {"par-float-reduction", Severity::Error,
       "+=/-= on a shared floating-point value inside a parallel lambda reorders the "
       "reduction across thread counts; accumulate per-slot and fold serially"},
      {"det-audit-order", Severity::Error,
       "audit-log emission (telemetry::audit(), DecisionRecord, decision_cost_span) "
       "inside a parallel_for/submit lambda records in thread-dependent order; emit from "
       "the serial decision path only"},
      {"hyg-catch-log", Severity::Warning,
       "catch block neither logs (AC_LOG_*) nor rethrows/returns; a swallowed exception "
       "hides the failure"},
      {"hyg-naked-new", Severity::Warning,
       "naked new expression; use std::make_unique/make_shared or a container"},
      {"hyg-float-eq", Severity::Warning,
       "floating-point literal compared with ==/!=; use an epsilon or an exact integer "
       "representation"},
      {"conc-lock-order", Severity::Error,
       "two mutexes are acquired in opposite orders at different call sites — a classic "
       "AB/BA deadlock; pick one global order or use std::scoped_lock"},
      {"conc-snapshot-escape", Severity::Error,
       "a raw pointer/reference into a snapshot/lookup temporary outlives the statement "
       "that produced it; copy the value or keep the owning handle alive"},
      {"conc-unjoined-thread", Severity::Error,
       "a std::thread that is neither joined, detached, nor moved before scope exit makes "
       "its destructor call std::terminate"},
      {"taint-unchecked-arith", Severity::Error,
       "a value from an untrusted parse (NDJSON/CLI/env/CSV) reaches arithmetic or an "
       "allocation size without passing a checked_*/range-validated guard"},
      {"taint-narrowing-cast", Severity::Error,
       "a value from an untrusted parse narrows to a smaller integer type without a "
       "range check"},
      {"drift-metric-name", Severity::Warning,
       "metric emission and tools/telemetry_registry.json disagree (emitted-but-"
       "unregistered, or registered-but-never-emitted)"},
      {"drift-trace-event", Severity::Warning,
       "EventKind usage and the trace_events list in tools/telemetry_registry.json "
       "disagree"},
      {"drift-dead-config", Severity::Warning,
       "a field of a *Config/*Spec struct is never read anywhere in the project; wire it "
       "up or delete it"},
  };
}

std::string companion_path_of(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  return dot == std::string::npos ? "" : path.substr(0, dot);
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "" : path.substr(0, slash + 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const char* severity_name(Severity s) {
  return s == Severity::Error ? "error" : "warning";
}

const std::vector<CheckInfo>& all_checks() {
  static const std::vector<CheckInfo> kChecks = make_registry();
  return kChecks;
}

Severity check_severity(const std::string& id) {
  for (const CheckInfo& c : all_checks()) {
    if (c.id == id) {
      return c.severity;
    }
  }
  throw NotFoundError("unknown lint check id: " + id);
}

std::vector<std::string> default_det_layers() {
  // The figure harnesses report simulated quantities only; the forest gate
  // (bench/micro_benchmarks), loadgen_serve and fleet_replay time the host.
  return {"src/core/", "src/ml/", "src/simnet/", "src/benchdata/", "src/collectives/",
          "bench/fig", "bench/tab_", "bench/ext_", "bench/common"};
}

std::vector<std::string> default_taint_layers() {
  return {"src/serve/", "src/fleet/", "src/traces/", "src/benchdata/", "tools/", "bench/"};
}

std::vector<Finding> lint_source(const std::string& path, const std::string& content,
                                 const LintOptions& opt) {
  FileIndex idx = build_file_index(path, content);
  DeclMap merged;
  if (!opt.companion_header.empty()) {
    LexedFile header = lex(opt.companion_header);
    harvest_decls(header.toks, merged);
  }
  for (const auto& [name, sym] : idx.decls) {
    merged.emplace(name, sym);
  }
  const std::vector<const FileIndex*> just_this = {&idx};
  const std::set<std::string> tainted = collect_tainted_fields(just_this, opt);
  std::vector<Finding> findings = run_file_checks(idx, opt, merged, tainted);
  std::vector<Finding> project = run_project_checks(just_this, opt);
  findings.insert(findings.end(), project.begin(), project.end());
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.check, a.message) <
           std::tie(b.file, b.line, b.check, b.message);
  });
  return findings;
}

ProjectReport lint_files(const std::vector<SourceFile>& files, const LintOptions& opt,
                         int threads) {
  // Deterministic order + one index per distinct path, whatever the caller
  // passed: headers reached through several includers are indexed once.
  std::vector<const SourceFile*> unique;
  {
    std::set<std::string> seen;
    for (const SourceFile& f : files) {
      if (seen.insert(f.path).second) {
        unique.push_back(&f);
      }
    }
    std::sort(unique.begin(), unique.end(),
              [](const SourceFile* a, const SourceFile* b) { return a->path < b->path; });
  }

  std::vector<FileIndex> indices(unique.size());
  util::ThreadPool pool(threads);
  pool.parallel_for(std::size_t{0}, unique.size(), [&](std::size_t i) {
    indices[i] = build_file_index(unique[i]->path, unique[i]->content);
  });

  std::map<std::string, const FileIndex*> by_path;
  for (const FileIndex& idx : indices) {
    by_path.emplace(idx.path, &idx);
  }
  // Merged per-file declaration tables. Precedence mirrors the single-file
  // API: companion header first, then the file's quoted includes (resolved
  // against the scanned set), then the file itself; first declaration wins.
  auto resolve_include = [&](const std::string& from, const std::string& inc)
      -> const FileIndex* {
    for (const std::string& cand :
         {inc, "src/" + inc, "tools/" + inc, dirname_of(from) + inc, "bench/" + inc,
          "tests/" + inc}) {
      const auto it = by_path.find(cand);
      if (it != by_path.end()) {
        return it->second;
      }
    }
    return nullptr;
  };
  std::vector<DeclMap> merged(indices.size());
  pool.parallel_for(std::size_t{0}, indices.size(), [&](std::size_t i) {
    const FileIndex& idx = indices[i];
    DeclMap& out = merged[i];
    const std::string stem = companion_path_of(idx.path);
    if (!stem.empty()) {
      for (const char* ext : {".hpp", ".h"}) {
        const auto it = by_path.find(stem + ext);
        if (it != by_path.end() && it->second != &idx) {
          for (const auto& [name, sym] : it->second->decls) {
            out.emplace(name, sym);
          }
          break;
        }
      }
    }
    for (const std::string& inc : idx.lex.includes) {
      const FileIndex* dep = resolve_include(idx.path, inc);
      if (dep != nullptr && dep != &idx) {
        for (const auto& [name, sym] : dep->decls) {
          out.emplace(name, sym);
        }
      }
    }
    for (const auto& [name, sym] : idx.decls) {
      out.emplace(name, sym);
    }
  });

  std::vector<const FileIndex*> all;
  all.reserve(indices.size());
  for (const FileIndex& idx : indices) {
    all.push_back(&idx);
  }
  const std::set<std::string> tainted = collect_tainted_fields(all, opt);

  std::vector<std::vector<Finding>> slots(indices.size());
  pool.parallel_for(std::size_t{0}, indices.size(), [&](std::size_t i) {
    slots[i] = run_file_checks(indices[i], opt, merged[i], tainted);
  });

  ProjectReport report;
  report.files = indices.size();
  for (const FileIndex& idx : indices) {
    report.tokens += idx.lex.toks.size();
  }
  for (std::vector<Finding>& slot : slots) {
    report.findings.insert(report.findings.end(), slot.begin(), slot.end());
  }
  std::vector<Finding> project = run_project_checks(all, opt);
  report.findings.insert(report.findings.end(), project.begin(), project.end());
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.check, a.message) <
                     std::tie(b.file, b.line, b.check, b.message);
            });
  return report;
}

// ---------------------------------------------------------------------------
// Baseline ratchet
// ---------------------------------------------------------------------------

Baseline Baseline::from_json(const util::Json& doc) {
  Baseline b;
  for (const util::Json& entry : doc.at("entries").as_array()) {
    const std::string check = entry.at("check").as_string();
    check_severity(check);  // validate the id
    b.set(check, entry.at("file").as_string(), static_cast<int>(entry.at("count").as_int()));
  }
  return b;
}

Baseline Baseline::load(const std::string& path) {
  if (!std::filesystem::exists(path)) {
    return {};
  }
  return from_json(util::Json::parse_file(path));
}

util::Json Baseline::to_json() const {
  util::Json doc = util::Json::object();
  doc["version"] = 1;
  util::Json entries = util::Json::array();
  for (const auto& [key, count] : entries_) {
    util::Json e = util::Json::object();
    e["check"] = key.first;
    e["file"] = key.second;
    e["count"] = count;
    entries.push_back(std::move(e));
  }
  doc["entries"] = std::move(entries);
  return doc;
}

int Baseline::allowed(const std::string& check, const std::string& file) const {
  const auto it = entries_.find({check, file});
  return it == entries_.end() ? 0 : it->second;
}

void Baseline::set(const std::string& check, const std::string& file, int count) {
  entries_[{check, file}] = count;
}

GateResult apply_baseline(const std::vector<Finding>& findings, const Baseline& baseline) {
  GateResult gate;
  std::map<std::pair<std::string, std::string>, int> seen;
  for (const Finding& f : findings) {
    const int used = ++seen[{f.check, f.file}];
    if (used <= baseline.allowed(f.check, f.file)) {
      gate.baselined.push_back(f);
    } else {
      gate.fresh.push_back(f);
    }
  }
  for (const auto& [key, allowed] : baseline.entries()) {
    const auto it = seen.find(key);
    const int actual = it == seen.end() ? 0 : it->second;
    if (actual < allowed) {
      gate.stale.push_back({key.first, key.second, allowed, actual});
    }
  }
  return gate;
}

Baseline baseline_from_findings(const std::vector<Finding>& findings) {
  Baseline b;
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const Finding& f : findings) {
    ++counts[{f.check, f.file}];
  }
  for (const auto& [key, count] : counts) {
    b.set(key.first, key.second, count);
  }
  return b;
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

namespace {

util::Json finding_json(const Finding& f) {
  util::Json e = util::Json::object();
  e["check"] = f.check;
  e["severity"] = severity_name(f.severity);
  e["file"] = f.file;
  e["line"] = static_cast<long long>(f.line);
  e["message"] = f.message;
  if (!f.hint.empty()) {
    e["hint"] = f.hint;
  }
  return e;
}

}  // namespace

util::Json report_json(const GateResult& gate, std::size_t files_scanned) {
  util::Json doc = util::Json::object();
  doc["ok"] = gate.ok();
  doc["files_scanned"] = static_cast<long long>(files_scanned);
  util::Json fresh = util::Json::array();
  for (const Finding& f : gate.fresh) {
    fresh.push_back(finding_json(f));
  }
  doc["findings"] = std::move(fresh);
  util::Json baselined = util::Json::array();
  for (const Finding& f : gate.baselined) {
    baselined.push_back(finding_json(f));
  }
  doc["baselined"] = std::move(baselined);
  util::Json stale = util::Json::array();
  for (const GateResult::Stale& s : gate.stale) {
    util::Json e = util::Json::object();
    e["check"] = s.check;
    e["file"] = s.file;
    e["allowed"] = s.allowed;
    e["actual"] = s.actual;
    stale.push_back(std::move(e));
  }
  doc["stale_baseline"] = std::move(stale);
  return doc;
}

void render_report(std::ostream& os, const GateResult& gate, std::size_t files_scanned,
                   double wall_s) {
  if (!gate.fresh.empty()) {
    util::TablePrinter table({"severity", "check", "location", "message"});
    for (const Finding& f : gate.fresh) {
      std::string msg = f.message;
      if (!f.hint.empty()) {
        msg += " [fix: " + f.hint + "]";
      }
      table.add_row({severity_name(f.severity), f.check,
                     f.file + ":" + std::to_string(f.line), msg});
    }
    table.print(os);
  }
  std::size_t errors = 0;
  for (const Finding& f : gate.fresh) {
    errors += f.severity == Severity::Error ? 1 : 0;
  }
  os << "acclaim-lint: " << gate.fresh.size() << " finding(s) (" << errors << " error(s), "
     << gate.fresh.size() - errors << " warning(s)), " << gate.baselined.size()
     << " baselined, " << gate.stale.size() << " stale baseline entr"
     << (gate.stale.size() == 1 ? "y" : "ies") << ", " << files_scanned
     << " file(s) scanned";
  if (wall_s >= 0.0) {
    std::ostringstream wall;
    wall.setf(std::ios::fixed);
    wall.precision(3);
    wall << wall_s;
    os << " in " << wall.str() << "s";
  }
  os << "\n";
  for (const GateResult::Stale& s : gate.stale) {
    os << "acclaim-lint: stale baseline entry " << s.check << " @ " << s.file << " (allows "
       << s.allowed << ", found " << s.actual
       << ") — ratchet it down with --write-baseline\n";
  }
}

}  // namespace acclaim::lint
