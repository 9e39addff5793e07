// Unified compilation pipeline: the one place the parse → elaborate →
// well-formedness → typecheck sequence lives. The CLI, the batch driver,
// the benchmarks, and the examples all run designs through this facade
// instead of hand-rolling the phase plumbing, and CompilationOptions is
// the single point where a solver backend is selected (--solver=enum|cdcl
// on the CLI).
//
// Usage:
//   pipeline::Compilation comp(opts);
//   comp.load_text(src, "demo.svlc");     // or load_file(path)
//   if (const check::CheckResult* res = comp.check())
//       ... res->obligations ...
//   fputs(comp.render_diagnostics().c_str(), stderr);
//
// Phases run lazily and at most once; every intermediate (sources,
// diagnostics, design, check result) stays owned by and accessible from
// the Compilation for its lifetime.
#pragma once

#include "check/typecheck.hpp"
#include "sem/hir.hpp"
#include "support/diagnostics.hpp"
#include "support/source_manager.hpp"

#include <memory>
#include <string>

namespace svlc {
class JsonWriter;
}

namespace svlc::pipeline {

struct CompilationOptions {
    /// Top module override; empty = auto-detect.
    std::string top;
    /// Checker configuration, including solver budgets and the entailment
    /// backend (check.solver.backend).
    check::CheckOptions check;
};

class Compilation {
public:
    explicit Compilation(CompilationOptions opts = {});

    /// Reads `path` as the input buffer. Returns false (with a diagnostic)
    /// when the file cannot be read.
    bool load_file(const std::string& path);
    /// Uses `text` directly; `name` labels the buffer in diagnostics.
    void load_text(std::string text, std::string name = "<input>");

    /// parse → elaborate → well-formedness. Returns the design, or
    /// nullptr when any phase failed (diagnostics explain why). Runs at
    /// most once; later calls return the cached outcome.
    const hir::Design* elaborate();

    /// elaborate() plus the flow type checker. Returns nullptr when the
    /// design never elaborated; otherwise the check result (whose `ok`
    /// reflects flow verdicts). Runs at most once.
    const check::CheckResult* check();

    /// Design secure: all phases ran, no diagnostics errors, all
    /// obligations proven.
    [[nodiscard]] bool secure();

    [[nodiscard]] const CompilationOptions& options() const { return opts_; }
    /// Mutable options, for callers that adjust per-run solver state
    /// (deadline, shared entailment cache) before loading. Changes only
    /// affect phases that have not run yet.
    [[nodiscard]] CompilationOptions& options() { return opts_; }
    [[nodiscard]] const SourceManager& sources() const { return sm_; }
    [[nodiscard]] const DiagnosticEngine& diags() const { return diags_; }
    /// Mutable engine for downstream phases (codegen) that report their
    /// own diagnostics against this compilation's sources.
    [[nodiscard]] DiagnosticEngine& diags() { return diags_; }
    [[nodiscard]] const hir::Design* design() const { return design_.get(); }
    /// Mutable design for post-elaboration transforms (xform) that
    /// rewrite processes in place before re-checking.
    [[nodiscard]] hir::Design* design() { return design_.get(); }
    [[nodiscard]] std::string render_diagnostics() const {
        return diags_.render();
    }

private:
    CompilationOptions opts_;
    SourceManager sm_;
    DiagnosticEngine diags_;
    std::string text_;
    std::string buffer_name_;
    bool loaded_ = false;
    bool elaborated_ = false;
    bool checked_ = false;
    std::unique_ptr<hir::Design> design_;
    check::CheckResult check_result_;
};

// ---------------------------------------------------------------------------
// Obligation records: the JSON shape shared by `svlc check --json` and the
// batch report (schema svlc-batch-report/v2), so per-obligation output
// diffs cleanly across runs and backends.
// ---------------------------------------------------------------------------

const char* entail_status_name(solver::EntailStatus s);

struct ObligationRecord {
    std::string id;
    std::string kind;   // com | seq | hold
    std::string target; // net name
    std::string loc;    // "file:line:col", empty when unresolvable
    std::string lhs;
    std::string rhs;
    std::string status; // proven | refuted | unknown
    std::string detail;
    struct Binding {
        std::string net;
        bool primed = false;
        uint64_t value = 0;
    };
    /// Counterexample assignment (refuted obligations only).
    std::vector<Binding> witness;
    double solve_ms = 0;
};

ObligationRecord make_obligation_record(const check::Obligation& ob,
                                        const hir::Design& design,
                                        const SourceManager* sm);

/// Emits one record as a JSON object. Timing is optional because it is
/// run-dependent and must stay out of byte-stable report subsets.
void write_obligation_record(JsonWriter& w, const ObligationRecord& rec,
                             bool with_timing);

// ---------------------------------------------------------------------------
// Single-file check rendering: `svlc check` prints all three, and the
// serve daemon answers with the same report, so an editor sees exactly
// what `svlc check --json` writes.
// ---------------------------------------------------------------------------

/// Machine-readable single-file report (schema svlc-check-report/v1):
/// every obligation as a record plus the verdict and configuration.
/// Deterministic — run-dependent timing is omitted, so reports diff
/// byte-clean across runs, processes, and the serve daemon.
/// `file_label` is the path as the user named it. Ends with a newline.
std::string check_report_json(const Compilation& comp,
                              const check::CheckResult& result,
                              const std::string& file_label);

/// The `svlc check` stdout verdict block: the SECURE/REJECTED totals
/// line plus one line per downgrade site. Ends with a newline.
std::string check_human_summary(const Compilation& comp,
                                const check::CheckResult& result);

/// The `svlc check --stats` stderr lines (with trailing newline): solver
/// work, where modular checking decided the obligations, and how many
/// processes had their equations built.
/// Fixed-precision formatting keeps them byte-stable across platforms.
std::string solver_stats_line(const check::CheckResult& result);

} // namespace svlc::pipeline
