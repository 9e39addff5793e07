#include "corpus.hpp"

#include "hunt/corpus.hpp"
#include "proc/sources.hpp"
#include "support/hash.hpp"

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// The labeled and vulnerable cores differ only in the pc-update block;
/// recover both blocks by trimming the texts' common prefix and suffix.
struct PcBlocks {
    std::string secure;
    std::string vulnerable;
};

const PcBlocks& pc_blocks() {
    static const PcBlocks blocks = [] {
        std::string a = svlc::proc::labeled_cpu_source();
        std::string b = svlc::proc::vulnerable_cpu_source();
        size_t pre = 0;
        while (pre < a.size() && pre < b.size() && a[pre] == b[pre])
            ++pre;
        size_t suf = 0;
        while (suf < a.size() - pre && suf < b.size() - pre &&
               a[a.size() - 1 - suf] == b[b.size() - 1 - suf])
            ++suf;
        return PcBlocks{a.substr(pre, a.size() - pre - suf),
                        b.substr(pre, b.size() - pre - suf)};
    }();
    return blocks;
}

/// The vulnerable cpu module alone (no policy header), renamed cpu_vuln.
std::string vulnerable_module() {
    std::string v = svlc::proc::vulnerable_cpu_source();
    const std::string head = "module cpu(";
    size_t at = v.find(head);
    if (at == std::string::npos)
        throw std::runtime_error("vulnerable cpu source has no cpu module");
    return "module cpu_vuln(" + v.substr(at + head.size());
}

/// Fisher-Yates with an explicit index rule, so a seed gives the same
/// order with every standard library.
template <typename T> void seeded_shuffle(std::vector<T>& v, uint64_t seed) {
    std::mt19937_64 rng(seed);
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng() % i]);
}

} // namespace

std::string cpu_ring_source(size_t cores, size_t vulnerable_core) {
    std::ostringstream os;
    os << svlc::proc::labeled_cpu_source();
    if (vulnerable_core < cores)
        os << "\n" << vulnerable_module();
    os << "\nmodule cpuring" << cores
       << "(input com {T} rst, output com [31:0] {U} observe);\n";
    for (size_t i = 0; i < cores; ++i)
        os << "  wire com [31:0] {U} n" << i << ";\n";
    for (size_t i = 0; i < cores; ++i)
        os << "  reg seq [31:0] {U} ring" << i << ";\n";
    for (size_t i = 0; i < cores; ++i)
        os << "  " << (i == vulnerable_core ? "cpu_vuln" : "cpu") << " c" << i
           << "(.rst(rst), .fstall(1'b0), .net_in(ring"
           << (i + cores - 1) % cores << "), .net_out_val(n" << i << "));\n";
    for (size_t i = 0; i < cores; ++i)
        os << "  always @(seq) begin\n    ring" << i << " <= n" << i
           << ";\n  end\n";
    os << "  assign observe = ring" << cores - 1 << ";\nendmodule\n";
    return os.str();
}

std::string flip_pc_update(const std::string& text, bool to_vulnerable) {
    const PcBlocks& b = pc_blocks();
    const std::string& from = to_vulnerable ? b.secure : b.vulnerable;
    const std::string& to = to_vulnerable ? b.vulnerable : b.secure;
    size_t at = text.find(from);
    if (at == std::string::npos)
        throw std::runtime_error("flip_pc_update: no pc-update block");
    std::string out = text;
    out.replace(at, from.size(), to);
    return out;
}

std::vector<Design> check_corpus(uint64_t seed) {
    std::vector<Design> out;
    std::mt19937_64 rng(seed);
    // Largest first: the driver hands jobs out in input order, so this
    // keeps the batch's tail short and its wall time seed-independent.
    for (size_t n : {32, 16, 8, 4, 2, 1}) {
        std::string top = "cpuring" + std::to_string(n);
        std::string clean = cpu_ring_source(n, kNoVulnerableCore);
        size_t bad = rng() % n;
        out.push_back({top + "_vuln", cpu_ring_source(n, bad), top, false});
        out.push_back({top + "_base", svlc::proc::strip_security(clean), top,
                       true});
        out.push_back({top, std::move(clean), top, true});
    }
    for (size_t cores : {32, 16})
        for (bool planted : {true, false})
            out.push_back({"hunt_ring" + std::to_string(cores) +
                               (planted ? "_bug" : "_ok"),
                           svlc::hunt::ring_scenario_source(cores, planted),
                           "ring" + std::to_string(cores), !planted});
    for (size_t words : {256, 128})
        for (bool planted : {true, false})
            out.push_back({"hunt_cache" + std::to_string(words) +
                               (planted ? "_bug" : "_ok"),
                           svlc::hunt::cache_scenario_source(words, planted),
                           "cache" + std::to_string(words), !planted});
    out.push_back({"fig3", hdl_source("fig3_implicit_downgrade.svlc"), "",
                   false});
    out.push_back({"fig4", hdl_source("fig4_mode_switch.svlc"), "", true});
    out.push_back({"shared_counter", hdl_source("shared_counter.svlc"), "",
                   true});
    return out;
}

std::vector<Design> check_probe_corpus() {
    return {
        {"labeled", svlc::proc::labeled_cpu_source(), "cpu", true},
        {"vulnerable", svlc::proc::vulnerable_cpu_source(), "cpu", false},
        {"fig3", hdl_source("fig3_implicit_downgrade.svlc"), "", false},
        {"fig4", hdl_source("fig4_mode_switch.svlc"), "", true},
        {"shared_counter", hdl_source("shared_counter.svlc"), "", true},
    };
}

const char* edit_kind_name(EditKind k) {
    switch (k) {
    case EditKind::Open:
        return "open";
    case EditKind::Hit:
        return "hit";
    case EditKind::Trivia:
        return "trivia";
    case EditKind::Flip:
        return "flip";
    }
    return "?";
}

std::vector<EditDesign> edit_designs(Scale scale) {
    // Most edits land on the one-core cpu, so the median edit is a
    // mid-sized module; quad and the 8-core ring set the tail. Each
    // percentile falls inside a cluster of like requests, not on the
    // edge between two: quad takes only trivia edits, because its flips
    // cost a different amount and the 90th percentile landed between
    // the two kinds. The probe edits quad: its requests are long
    // enough that a thread wake-up hiccup does not move its tail, and its
    // rounds short enough that a probe share of the run fits several
    // opens.
    if (scale == Scale::Probe)
        return {
            {"quad.svlc", svlc::proc::quad_core_source(), "quad", true, 1, 2,
             1},
            {"fig4.svlc", hdl_source("fig4_mode_switch.svlc"), "", true, 1, 0,
             0},
        };
    return {
        {"labeled.svlc", svlc::proc::labeled_cpu_source(), "cpu", true, 2, 6,
         4},
        {"quad.svlc", svlc::proc::quad_core_source(), "quad", true, 1, 4, 0},
        {"cpuring8.svlc", cpu_ring_source(8, kNoVulnerableCore), "cpuring8",
         true, 1, 1, 0},
        {"fig3.svlc", hdl_source("fig3_implicit_downgrade.svlc"), "", false, 1,
         2, 0},
        {"fig4.svlc", hdl_source("fig4_mode_switch.svlc"), "", true, 1, 2, 0},
        {"shared_counter.svlc", hdl_source("shared_counter.svlc"), "", true, 1,
         2, 0},
    };
}

std::vector<EditOp> edit_script(const std::vector<EditDesign>& designs,
                                uint64_t seed) {
    std::vector<EditOp> opens;
    std::vector<EditOp> edits;
    for (size_t i = 0; i < designs.size(); ++i) {
        opens.push_back({i, EditKind::Open});
        edits.insert(edits.end(), designs[i].hits, {i, EditKind::Hit});
        edits.insert(edits.end(), designs[i].trivia, {i, EditKind::Trivia});
        edits.insert(edits.end(), designs[i].flips, {i, EditKind::Flip});
    }
    seeded_shuffle(opens, seed * 2 + 1);
    seeded_shuffle(edits, seed * 2 + 2);
    opens.insert(opens.end(), edits.begin(), edits.end());
    return opens;
}

std::string edit_text(const EditDesign& d, bool flipped, unsigned trivia) {
    std::string text = flipped ? flip_pc_update(d.source, true) : d.source;
    if (trivia) {
        text += "\n// edit " + std::to_string(trivia) + ": comment only\n";
        text.append(trivia, '\n');
    }
    return text;
}

std::string corpus_digest(const std::vector<Design>& designs) {
    std::string all;
    for (const Design& d : designs) {
        all += d.name + '\x1f' + d.top + '\x1f' +
               (d.secure ? "secure" : "rejected") + '\x1f' + d.source + '\x1e';
    }
    return svlc::sha256_hex(all);
}

std::string script_digest(const std::vector<EditDesign>& designs,
                          const std::vector<EditOp>& script) {
    std::string all;
    for (const EditDesign& d : designs)
        all += d.name + '\x1f' + d.top + '\x1f' + d.source + '\x1e';
    for (const EditOp& op : script)
        all += std::to_string(op.design) + ':' + edit_kind_name(op.kind) + ';';
    return svlc::sha256_hex(all);
}

bool dump_inputs(const std::string& dir, uint64_t seed, std::string& error) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(fs::path(dir) / "check-cold", ec);
    fs::create_directories(fs::path(dir) / "edit-serve", ec);
    if (ec) {
        error = "cannot create " + dir + ": " + ec.message();
        return false;
    }
    auto write = [&](const fs::path& p, const std::string& text) {
        std::ofstream f(p, std::ios::binary);
        f << text;
        if (!f) {
            error = "cannot write " + p.string();
            return false;
        }
        return true;
    };
    std::vector<Design> corpus = check_corpus(seed);
    std::string answers = "# design\ttop\texpected\n";
    for (const Design& d : corpus) {
        if (!write(fs::path(dir) / "check-cold" / (d.name + ".svlc"),
                   d.source))
            return false;
        answers += d.name + '\t' + (d.top.empty() ? "-" : d.top) + '\t' +
                   (d.secure ? "secure" : "rejected") + '\n';
    }
    std::vector<EditDesign> designs = edit_designs(Scale::Full);
    std::vector<EditOp> script = edit_script(designs, seed);
    std::string script_text = "# step\tdesign\trequest\texpected\n";
    std::vector<bool> flipped(designs.size(), false);
    for (size_t i = 0; i < script.size(); ++i) {
        const EditOp& op = script[i];
        if (op.kind == EditKind::Flip)
            flipped[op.design] = !flipped[op.design];
        script_text += std::to_string(i) + '\t' + designs[op.design].name +
                       '\t' + edit_kind_name(op.kind) + '\t' +
                       (edit_secure(designs[op.design], flipped[op.design])
                            ? "secure"
                            : "rejected") +
                       '\n';
    }
    for (const EditDesign& d : designs)
        if (!write(fs::path(dir) / "edit-serve" / d.name, d.source))
            return false;
    return write(fs::path(dir) / "answers.tsv", answers) &&
           write(fs::path(dir) / "script.tsv", script_text) &&
           write(fs::path(dir) / "digest.txt",
                 "corpus " + corpus_digest(corpus) + "\nscript " +
                     script_digest(designs, script) + "\n");
}

} // namespace perfbench
