// acclaim_lint — project-specific determinism & correctness static analysis.
//
// The repo's headline engineering property is bitwise-identical results for
// any --threads. That invariant is enforced dynamically by the golden
// fingerprints in tests/test_determinism.cpp; this linter enforces the coding
// rules behind it *statically*, before anything runs:
//
//   det-rand            no libc/<random> randomness in deterministic layers
//   det-wallclock       no wall-clock reads in deterministic layers
//   det-rng-ref-capture no by-ref Rng crossing a parallel_for/submit boundary
//   det-unordered-iter  no iteration over unordered containers
//   par-shared-write    no non-atomic shared writes in parallel lambdas
//   par-float-reduction no +=/-= float reductions in parallel lambdas
//   det-audit-order     no audit-log emission inside parallel lambdas
//   hyg-catch-log       catch blocks must log, rethrow, or return
//   hyg-naked-new       no naked new
//   hyg-float-eq        no ==/!= against floating-point literals
//
// v2 adds a semantic layer (lexer.hpp + sema.hpp: scoped token tree, symbol
// tables, include graph) and three flow-aware check families:
//
//   conc-lock-order       inconsistent mutex acquisition order across sites
//   conc-snapshot-escape  raw pointer/ref into a snapshot temporary
//   conc-unjoined-thread  std::thread neither joined, detached, nor moved
//   taint-unchecked-arith untrusted parse reaches arithmetic / alloc size
//   taint-narrowing-cast  untrusted parse narrows without a range check
//   drift-metric-name     metric names out of sync with the telemetry registry
//   drift-trace-event     EventKind uses out of sync with the registry
//   drift-dead-config     config struct fields never read anywhere
//
// The scanner is token-level (comments/strings/preprocessor lines are lexed
// away, so rule names inside string literals never fire) with lightweight
// declaration tracking — enough to tell `rngs[i]` (a pre-derived per-item
// stream, fine) from `rng.uniform()` (a shared generator crossing a thread
// boundary, a determinism bug). It is deliberately not a full C++ front end:
// findings err toward silence, and intentional exceptions carry an inline
//     // acclaim-lint: allow(<check-id>)  <reason>
// suppression on the same or preceding line (an allow above a multi-line
// statement covers the statement's full extent). Remaining debt lives in a
// baseline file (tools/lint_baseline.json) that only ratchets down.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace acclaim::lint {

enum class Severity { Warning, Error };

/// "warning" / "error".
const char* severity_name(Severity s);

/// One registered check: stable id, gate severity, one-line rule statement.
struct CheckInfo {
  std::string id;
  Severity severity = Severity::Error;
  std::string summary;
};

/// Every check the scanner knows, in report order.
const std::vector<CheckInfo>& all_checks();

/// Severity of a check id; throws NotFoundError on unknown ids.
Severity check_severity(const std::string& id);

/// One rule violation at a source location.
struct Finding {
  std::string check;
  Severity severity = Severity::Error;
  std::string file;
  std::size_t line = 0;
  std::string message;
  /// Optional fix-it guidance ("use std::scoped_lock(a, b)"); shown in the
  /// table/json/SARIF reports when non-empty.
  std::string hint;
};

/// src/core, src/ml, src/simnet, src/benchdata, src/collectives, and the
/// figure harnesses (bench/fig*, bench/tab_*, bench/ext_*, bench/common.*).
std::vector<std::string> default_det_layers();

/// Layers whose values cross a trust boundary (NDJSON, CLI argv, env, CSV):
/// src/serve, src/fleet, src/traces, src/benchdata, tools, bench.
std::vector<std::string> default_taint_layers();

struct LintOptions {
  /// Repo-relative path prefixes whose files must be free of wall-clock and
  /// non-Rng randomness (the layers the golden determinism tests fingerprint,
  /// and the figure harnesses whose committed CSVs must reproduce).
  std::vector<std::string> det_layers = default_det_layers();
  /// Prefixes where unordered-container iteration is an error. Library and
  /// CLI code feeds ordered output (rule files, tables, accumulators); test
  /// fixtures may iterate scratch maps freely.
  std::vector<std::string> ordered_iter_layers = {"src/", "tools/"};
  /// Prefixes where the taint-lite checks run: values produced by raw
  /// parses (stoi/atoi/strtol/parse_bytes/getenv) must pass through a
  /// checked_*/range-validated function before arithmetic, narrowing casts,
  /// or allocation sizes. Test sources are always exempt.
  std::vector<std::string> taint_layers = default_taint_layers();
  /// Declarations harvested from a companion header (the CLI passes x.hpp's
  /// content when linting x.cpp, so members declared in the header — e.g. an
  /// unordered_map field iterated in the .cpp — are typed correctly).
  std::string companion_header;
  /// Telemetry registry document (metrics + trace event names). Null
  /// disables drift-metric-name / drift-trace-event; the CLI loads it from
  /// tools/telemetry_registry.json.
  util::Json telemetry_registry;
  /// Path registry-side drift findings (unused entries) are attributed to.
  std::string registry_path = "tools/telemetry_registry.json";
};

/// Lints one translation unit. `path` is the repo-relative path (used for
/// layer scoping and reporting); `content` is the file text.
std::vector<Finding> lint_source(const std::string& path, const std::string& content,
                                 const LintOptions& opt = {});

/// One in-memory source for a project scan.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Result of a whole-project scan.
struct ProjectReport {
  std::vector<Finding> findings;  ///< sorted by (file, line, check, message)
  std::size_t files = 0;
  std::size_t tokens = 0;
};

/// Lints a set of files as one project: every file is lexed and indexed
/// exactly once (headers are shared between their includers through the
/// include graph rather than re-tokenized), per-file passes run in parallel
/// over `threads` lanes with deterministic finding order, and the
/// project-wide passes (lock-order pairing, taint field propagation, drift)
/// see the whole file set.
ProjectReport lint_files(const std::vector<SourceFile>& files, const LintOptions& opt = {},
                         int threads = 1);

/// Known-debt ratchet: per (check, file) allowed finding counts.
class Baseline {
 public:
  static Baseline from_json(const util::Json& doc);
  /// Missing file -> empty baseline; malformed file throws.
  static Baseline load(const std::string& path);
  util::Json to_json() const;

  int allowed(const std::string& check, const std::string& file) const;
  void set(const std::string& check, const std::string& file, int count);
  bool empty() const { return entries_.empty(); }

  const std::map<std::pair<std::string, std::string>, int>& entries() const {
    return entries_;
  }

 private:
  std::map<std::pair<std::string, std::string>, int> entries_;
};

/// Outcome of gating findings against a baseline.
struct GateResult {
  std::vector<Finding> fresh;      ///< above-baseline findings; these fail the build
  std::vector<Finding> baselined;  ///< findings covered by baseline allowances
  struct Stale {
    std::string check;
    std::string file;
    int allowed = 0;
    int actual = 0;
  };
  /// Baseline entries whose allowance exceeds the current count — debt was
  /// paid down; the baseline should be ratcheted (rewritten) to match.
  std::vector<Stale> stale;
  bool ok() const { return fresh.empty(); }
};

GateResult apply_baseline(const std::vector<Finding>& findings, const Baseline& baseline);

/// Baseline exactly covering `findings` (what --write-baseline persists).
Baseline baseline_from_findings(const std::vector<Finding>& findings);

/// Machine-readable report: {ok, files_scanned, counts, findings:[...]}.
util::Json report_json(const GateResult& gate, std::size_t files_scanned);

/// Human-readable report: a util::TablePrinter table plus a summary line.
/// `wall_s` >= 0 appends the scan wall time to the summary.
void render_report(std::ostream& os, const GateResult& gate, std::size_t files_scanned,
                   double wall_s = -1.0);

}  // namespace acclaim::lint
