#include "fuzz/runner.hpp"

#include "fuzz/generator.hpp"
#include "fuzz/reducer.hpp"
#include "fuzz/rng.hpp"
#include "pipeline/compilation.hpp"
#include "support/fsutil.hpp"
#include "support/json.hpp"

#include <filesystem>

namespace svlc::fuzz {

namespace {

/// Counts source lines (for the report's original/reduced line counts).
size_t line_count(const std::string& s) {
    size_t n = 0;
    for (char c : s)
        if (c == '\n')
            ++n;
    if (!s.empty() && s.back() != '\n')
        ++n;
    return n;
}

bool is_accepted(const std::string& source, const OracleConfig& cfg) {
    pipeline::CompilationOptions copts;
    copts.check = cfg.check;
    pipeline::Compilation comp(copts);
    comp.load_text(source, "fuzz.svlc");
    return comp.secure();
}

} // namespace

std::string fuzz_report_json(const FuzzOptions& opts,
                             const FuzzReportEntry& entry,
                             const std::string& original) {
    JsonWriter w(2);
    w.begin_object();
    w.kv("schema", "svlc-fuzz-report/v1");
    w.kv("seed", opts.seed);
    w.kv("index", entry.index);
    w.kv("program_seed", entry.program_seed);
    w.kv("class", entry.klass);
    w.kv("oracle", oracle_name(entry.finding.oracle));
    w.kv("detail", entry.finding.detail);
    w.kv("original_lines", static_cast<uint64_t>(line_count(original)));
    w.kv("reduced_lines",
         static_cast<uint64_t>(line_count(entry.reduced)));
    w.kv("reduced", entry.reduced);
    w.kv("original", original);
    w.end_object();
    return w.str();
}

FuzzStats run_fuzz(const FuzzOptions& opts, std::FILE* out) {
    FuzzStats stats;
    if (!opts.corpus_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.corpus_dir, ec);
    }

    for (uint64_t i = 0; i < opts.count; ++i) {
        uint64_t pseed = Rng::derive(opts.seed, i);
        Rng classifier(pseed);
        uint64_t roll = classifier.below(100);

        std::string source;
        std::string klass;
        bool parse_only = false; // ill-formed corpus: crash/recovery only
        if (roll < opts.pathological_percent) {
            klass = "pathological";
            parse_only = true;
            source = pathological_source(pseed);
            ++stats.pathological;
        } else if (roll < opts.pathological_percent + opts.mutate_percent) {
            klass = "mutated";
            parse_only = true;
            GenOptions gopts;
            gopts.seed = pseed;
            source = mutate_source(generate_program(gopts).source, pseed);
            ++stats.mutated;
        } else {
            klass = "well-formed";
            GenOptions gopts;
            gopts.seed = pseed;
            source = generate_program(gopts).source;
            ++stats.well_formed;
            // Skipped in dump mode: acceptance runs the checker, and dump
            // exists precisely to recover inputs that hang it.
            if (!opts.dump_only && is_accepted(source, opts.oracle_cfg))
                ++stats.accepted;
        }
        ++stats.programs;

        if (opts.dump_only) {
            std::fprintf(out, "=== index %llu seed %llu class %s ===\n%s\n",
                         static_cast<unsigned long long>(i),
                         static_cast<unsigned long long>(pseed),
                         klass.c_str(), source.c_str());
            continue;
        }

        OracleSet set = opts.oracles;
        if (parse_only) {
            // Ill-formed bytes carry no verification/simulation claims;
            // they exist to stress parsing, recovery, and the printer.
            set.backend_diff = false;
            set.soundness = false;
            set.xform = false;
            set.modular = false;
        }
        OracleConfig cfg = opts.oracle_cfg;
        cfg.seed = pseed ^ 0x5eed;

        // Each finding with the program it was found on: the modular
        // oracle checks the index's multi-instance program instead.
        std::vector<std::pair<Finding, std::string>> findings;
        bool modular = set.modular;
        set.modular = false;
        for (Finding& f : run_oracles(set, source, cfg))
            findings.emplace_back(std::move(f), source);
        if (modular) {
            std::string program = generate_modular_program(pseed).source;
            if (auto f = run_oracle(Oracle::Modular, program, cfg))
                findings.emplace_back(std::move(*f), std::move(program));
        }

        for (auto& [f, original] : findings) {
            FuzzReportEntry entry;
            entry.index = i;
            entry.program_seed = pseed;
            entry.klass = klass;
            entry.finding = f;
            entry.reduced = original;
            if (opts.reduce_failures) {
                Oracle o = f.oracle;
                auto pred = [&](const std::string& cand) {
                    return run_oracle(o, cand, cfg).has_value();
                };
                entry.reduced = reduce_text(original, pred).text;
            }
            if (!opts.corpus_dir.empty()) {
                std::string base = opts.corpus_dir + "/crash-" +
                                   std::to_string(opts.seed) + "-" +
                                   std::to_string(i) + "-" +
                                   oracle_name(f.oracle);
                write_file_atomic(base + ".svlc", entry.reduced);
                std::string json = fuzz_report_json(opts, entry, original);
                write_file_atomic(base + ".json", json);
                entry.json_path = base + ".json";
            }
            std::fprintf(out, "VIOLATION index %llu oracle %s: %s\n",
                         static_cast<unsigned long long>(i),
                         oracle_name(f.oracle), f.detail.c_str());
            stats.violations.push_back(std::move(entry));
        }

        if (opts.progress_every && (i + 1) % opts.progress_every == 0)
            std::fprintf(out, "fuzz: %llu/%llu programs, %zu violation(s)\n",
                         static_cast<unsigned long long>(i + 1),
                         static_cast<unsigned long long>(opts.count),
                         stats.violations.size());
    }

    std::fprintf(out,
                 "fuzz: done. %llu programs (%llu well-formed, %llu "
                 "accepted, %llu mutated, %llu pathological), %zu "
                 "violation(s)\n",
                 static_cast<unsigned long long>(stats.programs),
                 static_cast<unsigned long long>(stats.well_formed),
                 static_cast<unsigned long long>(stats.accepted),
                 static_cast<unsigned long long>(stats.mutated),
                 static_cast<unsigned long long>(stats.pathological),
                 stats.violations.size());
    return stats;
}

} // namespace svlc::fuzz
