#include "pipeline/compilation.hpp"

#include "parse/parser.hpp"
#include "sem/elaborate.hpp"
#include "sem/wellformed.hpp"
#include "solver/entail.hpp"
#include "support/fsutil.hpp"
#include "support/json.hpp"

#include <cstdio>

namespace svlc::pipeline {

Compilation::Compilation(CompilationOptions opts)
    : opts_(std::move(opts)), diags_(&sm_) {}

bool Compilation::load_file(const std::string& path) {
    std::string text;
    if (!read_file(path, text)) {
        diags_.error(DiagCode::Unsupported, {},
                     "cannot open '" + path + "'");
        return false;
    }
    load_text(std::move(text), path);
    return true;
}

void Compilation::load_text(std::string text, std::string name) {
    text_ = std::move(text);
    buffer_name_ = std::move(name);
    loaded_ = true;
}

void Compilation::reload_text(std::string text, std::string name) {
    design_.reset();
    check_result_ = {};
    sm_ = SourceManager();
    diags_ = DiagnosticEngine(&sm_);
    loaded_ = false;
    elaborated_ = false;
    checked_ = false;
    load_text(std::move(text), std::move(name));
}

const hir::Design* Compilation::elaborate() {
    if (!elaborated_) {
        elaborated_ = true;
        if (!loaded_) {
            diags_.error(DiagCode::Unsupported, {},
                         "no input loaded into compilation");
            return nullptr;
        }
        ast::CompilationUnit unit =
            Parser::parse_text(text_, sm_, diags_, buffer_name_);
        if (!diags_.has_errors()) {
            sem::ElaborateOptions eopts;
            eopts.top = opts_.top;
            design_ = sem::elaborate(unit, diags_, eopts);
        }
        if (design_ && !diags_.has_errors())
            sem::analyze_wellformed(*design_, diags_);
    }
    if (!design_ || diags_.has_errors())
        return nullptr;
    return design_.get();
}

const check::CheckResult* Compilation::check() {
    if (!checked_) {
        checked_ = true;
        if (!elaborate())
            return nullptr;
        check_result_ = check::check_design(*design_, diags_, opts_.check);
    }
    if (!design_)
        return nullptr;
    return &check_result_;
}

bool Compilation::secure() {
    const check::CheckResult* res = check();
    return res && res->ok && !diags_.has_errors();
}

const char* entail_status_name(solver::EntailStatus s) {
    switch (s) {
    case solver::EntailStatus::Proven:
        return "proven";
    case solver::EntailStatus::Refuted:
        return "refuted";
    case solver::EntailStatus::Unknown:
        return "unknown";
    }
    return "unknown";
}

ObligationRecord make_obligation_record(const check::Obligation& ob,
                                        const hir::Design& design,
                                        const SourceManager* sm) {
    ObligationRecord rec;
    rec.id = ob.id;
    rec.kind = check::obligation_kind_name(ob.kind);
    rec.target = design.net(ob.target).name;
    if (sm && ob.loc.valid())
        rec.loc = sm->describe(ob.loc);
    rec.lhs = ob.lhs_label;
    rec.rhs = ob.rhs_label;
    rec.status = entail_status_name(ob.result.status);
    rec.detail = ob.result.detail;
    rec.solve_ms = ob.solve_ms;
    if (ob.result.witness) {
        rec.witness.reserve(ob.result.witness->bindings.size());
        for (const auto& b : ob.result.witness->bindings)
            rec.witness.push_back({design.net(b.net).name, b.primed,
                                   b.value.value()});
    }
    return rec;
}

void write_obligation_record(JsonWriter& w, const ObligationRecord& rec,
                             bool with_timing) {
    w.begin_object();
    w.kv("id", rec.id);
    w.kv("kind", rec.kind);
    w.kv("target", rec.target);
    w.kv("loc", rec.loc);
    w.kv("lhs", rec.lhs);
    w.kv("rhs", rec.rhs);
    w.kv("status", rec.status);
    if (!rec.detail.empty())
        w.kv("detail", rec.detail);
    if (!rec.witness.empty()) {
        w.key("witness").begin_array();
        for (const auto& b : rec.witness) {
            w.begin_object();
            w.kv("net", b.net);
            w.kv("primed", b.primed);
            w.kv("value", b.value);
            w.end_object();
        }
        w.end_array();
    }
    if (with_timing)
        w.kv("solve_ms", rec.solve_ms, 3);
    w.end_object();
}

std::string check_report_json(const Compilation& comp,
                              const check::CheckResult& result,
                              const std::string& file_label) {
    JsonWriter w;
    w.begin_object();
    w.kv("schema", "svlc-check-report/v1");
    w.kv("file", file_label);
    w.kv("status", result.ok ? "secure" : "rejected");
    w.key("config").begin_object();
    if (!comp.options().top.empty())
        w.kv("top", comp.options().top);
    w.kv("solver", solver::backend_id(comp.options().check.solver.backend));
    w.kv("mode",
         comp.options().check.mode == check::CheckerMode::ClassicSecVerilog
             ? "classic"
             : "lc");
    w.end_object();
    w.key("obligations").begin_array();
    for (const check::Obligation& ob : result.obligations)
        write_obligation_record(
            w, make_obligation_record(ob, *comp.design(), &comp.sources()),
            /*with_timing=*/false);
    w.end_array();
    w.key("totals").begin_object();
    w.kv("obligations", result.obligations.size());
    w.kv("failed", result.failed);
    w.kv("downgrades", result.downgrade_count);
    w.end_object();
    w.end_object();
    std::string out = w.str();
    out += '\n';
    return out;
}

std::string check_human_summary(const Compilation& comp,
                                const check::CheckResult& result) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s: %zu obligations, %zu failed, %zu downgrade site(s)\n",
                  result.ok ? "SECURE" : "REJECTED",
                  result.obligations.size(), result.failed,
                  result.downgrade_count);
    std::string out = line;
    if (result.downgrade_count && comp.design()) {
        for (const auto& d : comp.design()->downgrades) {
            out += "  downgrade at " + comp.sources().describe(d.loc) + ": ";
            out += d.kind == hir::DowngradeKind::Endorse ? "endorse"
                                                         : "declassify";
            out += "(" + d.description + ")\n";
        }
    }
    return out;
}

std::string solver_stats_line(const check::CheckResult& result) {
    const solver::EntailmentEngine::Stats& s = result.solver_stats;
    const check::ModularStats& m = result.modular;
    // hit_rate uses fixed 2-decimal precision (not default float
    // formatting) so the line is byte-stable across platforms and libc
    // versions.
    double hit_rate =
        s.queries ? static_cast<double>(s.syntactic_hits + s.cache_hits) /
                        static_cast<double>(s.queries)
                  : 0.0;
    char line[512];
    std::snprintf(line, sizeof line,
                  "solver stats: %llu queries, %llu syntactic hits, "
                  "%llu enumerations, %llu candidates (avg %.1f per "
                  "enumeration), hit_rate %.2f\n"
                  "solver search: %llu conflicts, %llu propagations, "
                  "%llu learned clauses, %llu restarts\n"
                  "modular: %llu group(s), %llu obligation(s) "
                  "reused, %llu solved in the flattened design\n",
                  static_cast<unsigned long long>(s.queries),
                  static_cast<unsigned long long>(s.syntactic_hits),
                  static_cast<unsigned long long>(s.enumerations),
                  static_cast<unsigned long long>(s.total_candidates),
                  s.enumerations ? static_cast<double>(s.total_candidates) /
                                       static_cast<double>(s.enumerations)
                                 : 0.0,
                  hit_rate,
                  static_cast<unsigned long long>(s.conflicts),
                  static_cast<unsigned long long>(s.propagations),
                  static_cast<unsigned long long>(s.learned_clauses),
                  static_cast<unsigned long long>(s.restarts),
                  static_cast<unsigned long long>(m.groups),
                  static_cast<unsigned long long>(m.reused),
                  static_cast<unsigned long long>(m.solved));
    return line;
}

} // namespace svlc::pipeline
