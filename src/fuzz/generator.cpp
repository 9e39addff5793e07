#include "fuzz/generator.hpp"

#include "fuzz/rng.hpp"

#include <cstdio>
#include <string>
#include <vector>

namespace svlc::fuzz {

namespace {

/// Boundary-biased net widths: 1, powers of two, and off-by-one
/// neighbours of the 64-bit BitVec limit.
const std::vector<uint32_t> kWidths = {1, 2, 7, 8, 16, 31, 32, 63, 64};

/// "<prefix><i>", built by appending: GCC 12 at -O3 reports a false
/// -Wrestrict on `"prefix" + std::to_string(i)`.
std::string numbered(const char* prefix, size_t i) {
    std::string s = prefix;
    s += std::to_string(i);
    return s;
}

std::string hex_literal(uint32_t width, uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%u'h%llx", width,
                  static_cast<unsigned long long>(value));
    return buf;
}

/// One thing an expression may reference: a net (possibly wrapped in
/// next()/slice later) with a conservative static read level.
struct Operand {
    std::string text;
    uint32_t width = 1;
    /// Join over every level the operand's label can take; what a read
    /// of it must be assumed to carry.
    int level = 0;
    /// Slices/indexing only make sense on a bare net name.
    bool sliceable = false;
};

struct NetInfo {
    std::string name;
    uint32_t width = 1;
    bool seq = false;
    bool input = false;
    bool output = false;
    /// Declared label: static level index, or -1 for f(mode).
    int level = 0;
    /// Conservative read level (join of the function range when
    /// dependent).
    int eff_level = 0;
    /// Which always block writes it (seq nets only).
    int group = -1;
    /// Array element count; 0 = scalar.
    uint32_t array = 0;
    std::string label_text;
};

struct FuncInfo {
    std::string name;
    uint32_t arg_width = 1;
    std::vector<std::pair<uint64_t, int>> entries;
    int def_level = 0;
    int range_join = 0;
};

class Generator {
public:
    explicit Generator(const GenOptions& opts)
        : rng_(opts.seed), opts_(opts) {}

    GenProgram run() {
        GenProgram out;
        out.seed = opts_.seed;
        biased_ = rng_.chance(
            static_cast<uint32_t>(opts_.accept_bias_percent));
        out.biased = biased_;
        make_lattice();
        make_functions();
        make_nets();
        emit();
        out.source = std::move(src_);
        out.has_downgrade = has_downgrade_;
        out.has_assume = has_assume_;
        out.shape = shape();
        return out;
    }

private:
    // --- policy -----------------------------------------------------------

    void make_lattice() {
        diamond_ = rng_.chance(30);
        if (diamond_) {
            levels_ = {"LO", "M1", "M2", "HI"};
        } else {
            size_t n = 2 + rng_.below(3);
            for (size_t i = 0; i < n; ++i)
                levels_.push_back(numbered("L", i));
        }
    }

    [[nodiscard]] bool leq(int a, int b) const {
        if (diamond_)
            return a == b || a == 0 || b == 3;
        return a <= b;
    }

    [[nodiscard]] int join(int a, int b) const {
        if (leq(a, b))
            return b;
        if (leq(b, a))
            return a;
        return static_cast<int>(levels_.size()) - 1; // diamond top
    }

    [[nodiscard]] int top() const {
        return static_cast<int>(levels_.size()) - 1;
    }

    int low_level() {
        return rng_.chance(60) ? 0
                               : static_cast<int>(rng_.below(levels_.size()));
    }
    int high_level() {
        return rng_.chance(60) ? top()
                               : static_cast<int>(rng_.below(levels_.size()));
    }

    void make_functions() {
        size_t n = 1 + rng_.below(2);
        for (size_t i = 0; i < n; ++i) {
            FuncInfo f;
            f.name = numbered("f", i);
            f.arg_width = rng_.chance(70) ? 1 : 2;
            uint64_t domain = uint64_t{1} << f.arg_width;
            f.def_level = static_cast<int>(rng_.below(levels_.size()));
            f.range_join = f.def_level;
            // Explicit entries for a prefix of the domain; the rest falls
            // to the mandatory default.
            uint64_t explicit_n = 1 + rng_.below(domain);
            for (uint64_t v = 0; v < explicit_n; ++v) {
                int lev = static_cast<int>(rng_.below(levels_.size()));
                f.entries.push_back({v, lev});
                f.range_join = join(f.range_join, lev);
            }
            funcs_.push_back(std::move(f));
        }
    }

    /// Level of f(arg) for a concrete argument value.
    [[nodiscard]] int func_at(const FuncInfo& f, uint64_t v) const {
        for (const auto& [val, lev] : f.entries)
            if (val == v)
                return lev;
        return f.def_level;
    }

    // --- net population ---------------------------------------------------

    uint32_t pick_width() { return rng_.pick(kWidths); }

    void make_nets() {
        // The label-function argument register and the input feeding it.
        // Its label is lattice bottom so dependent labels stay publicly
        // evaluable (the soundness tester treats label arguments the
        // observer cannot see as high).
        const FuncInfo& f0 = funcs_[0];
        nets_.push_back({"mode_in", f0.arg_width, false, true, false, 0, 0,
                         -1, 0, levels_[0]});
        nets_.push_back(
            {"mode", f0.arg_width, true, false, false, 0, 0, 0, 0,
             levels_[0]});

        size_t n_in = 2 + rng_.below(3);
        for (size_t i = 0; i < n_in; ++i) {
            int lev = low_level();
            nets_.push_back({numbered("in", i), pick_width(), false,
                             true, false, lev, lev, -1, 0, levels_[lev]});
        }

        size_t n_reg = 2 + rng_.below(3);
        size_t groups = 1 + rng_.below(2);
        for (size_t i = 0; i < n_reg; ++i) {
            NetInfo r;
            r.name = numbered("r", i);
            r.width = pick_width();
            r.seq = true;
            r.group = 1 + static_cast<int>(rng_.below(groups));
            if (i == 0 && rng_.chance(65)) {
                // The star of the show: a register whose label depends on
                // the mode register.
                size_t fi = rng_.below(funcs_.size());
                const FuncInfo& f = funcs_[fi];
                if (f.arg_width == nets_[1].width) {
                    r.level = -1;
                    r.eff_level = f.range_join;
                    r.label_text = f.name + "(mode)";
                    dep_func_ = static_cast<int>(fi);
                }
            }
            if (r.level >= 0) {
                r.level = static_cast<int>(rng_.below(levels_.size()));
                r.eff_level = r.level;
                r.label_text = levels_[static_cast<size_t>(r.level)];
            }
            nets_.push_back(std::move(r));
        }
        if (rng_.chance(30)) {
            int lev = static_cast<int>(rng_.below(levels_.size()));
            NetInfo mem{"mem", 8, true, false, false, lev, lev,
                        1 + static_cast<int>(rng_.below(groups)), 4,
                        levels_[lev]};
            nets_.push_back(std::move(mem));
        }

        size_t n_wire = 1 + rng_.below(3);
        for (size_t i = 0; i < n_wire; ++i) {
            int lev = static_cast<int>(rng_.below(levels_.size()));
            nets_.push_back({numbered("w", i), pick_width(), false,
                             false, false, lev, lev, -1, 0, levels_[lev]});
        }

        size_t n_out = 1 + rng_.below(2);
        for (size_t i = 0; i < n_out; ++i) {
            int lev = high_level();
            nets_.push_back({numbered("out", i), pick_width(), false,
                             false, true, lev, lev, -1, 0, levels_[lev]});
        }
        if (opts_.modular && rng_.chance(60))
            make_seq_port();
    }

    /// An `input seq` port `ms`, whose next value the environment picks,
    /// and a register `rq` labeled f(ms) that only its own block writes.
    void make_seq_port() {
        size_t fi = rng_.below(funcs_.size());
        const FuncInfo& f = funcs_[fi];
        nets_.push_back({"ms", f.arg_width, true, true, false, 0, 0, -1, 0,
                         levels_[0]});
        NetInfo rq{"rq", pick_width(), true, false, false, -1,
                   f.range_join, -1, 0, f.name + "(ms)"};
        nets_.push_back(std::move(rq));
        seq_port_func_ = static_cast<int>(fi);
    }

    // --- expressions ------------------------------------------------------

    /// Pool of operands visible at some point, already filtered for
    /// structural legality (single drivers, comb topological order).
    std::vector<Operand> pool_;

    void add_net_operand(const NetInfo& n) {
        if (n.array)
            return; // arrays only referenced through explicit indexing
        pool_.push_back({n.name, n.width, n.eff_level, true});
    }

    std::string literal(uint32_t want_w) {
        uint32_t w = rng_.chance(50) ? want_w : rng_.pick(kWidths);
        uint64_t max = w >= 64 ? ~uint64_t{0}
                               : ((uint64_t{1} << w) - 1);
        uint64_t v;
        switch (rng_.below(5)) {
        case 0: v = 0; break;
        case 1: v = 1; break;
        case 2: v = max; break;
        case 3: v = max ? max - 1 : 0; break;
        default: v = rng_.next() & max; break;
        }
        if (rng_.chance(15))
            return std::to_string(v & 0xff); // unsized decimal
        return hex_literal(w, v);
    }

    /// Renders one pool operand, sometimes sliced or reduced.
    std::string operand_text(const Operand& op) {
        if (!op.sliceable || op.width < 2 || rng_.chance(60))
            return op.text;
        if (rng_.chance(25))
            return std::string(rng_.chance(50) ? "&" : "^") + op.text;
        uint32_t hi, lo;
        switch (rng_.below(4)) {
        case 0: hi = op.width - 1, lo = 0; break;                 // full
        case 1: hi = op.width - 1, lo = op.width - 1; break;      // msb
        case 2:
            hi = static_cast<uint32_t>(rng_.below(op.width)), lo = 0;
            break;
        default:
            lo = static_cast<uint32_t>(rng_.below(op.width));
            hi = lo + static_cast<uint32_t>(rng_.below(op.width - lo));
            break;
        }
        return op.text + "[" + std::to_string(hi) + ":" +
               std::to_string(lo) + "]";
    }

    /// Builds an expression whose every operand's level flows to
    /// `maxlev` (-1 = unconstrained).
    /// A term whose width is EXACTLY `w`: a sized literal or a w-bit
    /// slice of a wide-enough operand. Concatenation operands are
    /// self-determined, so parts must hit their slot width exactly or the
    /// total can silently exceed the 64-bit value limit.
    std::string exact_term(uint32_t w, int maxlev) {
        std::vector<Operand> fits;
        for (const auto& op : pool_)
            if (op.sliceable && op.width >= w &&
                (maxlev < 0 || leq(op.level, maxlev)))
                fits.push_back(op);
        if (!fits.empty() && rng_.chance(70)) {
            const Operand& op = rng_.pick(fits);
            if (op.width == w && rng_.chance(50))
                return op.text;
            uint32_t lo =
                static_cast<uint32_t>(rng_.below(op.width - w + 1));
            return op.text + "[" + std::to_string(lo + w - 1) + ":" +
                   std::to_string(lo) + "]";
        }
        // literal() mixes widths on purpose; here the width must hold.
        uint64_t max = w >= 64 ? ~uint64_t{0} : ((uint64_t{1} << w) - 1);
        uint64_t v;
        switch (rng_.below(4)) {
        case 0: v = 0; break;
        case 1: v = 1; break;
        case 2: v = max; break;
        default: v = rng_.next() & max; break;
        }
        return hex_literal(w, v);
    }

    std::string expr(uint32_t want_w, int maxlev, int depth) {
        std::vector<Operand> allowed;
        for (const auto& op : pool_)
            if (maxlev < 0 || leq(op.level, maxlev))
                allowed.push_back(op);
        if (allowed.empty() || depth <= 0) {
            if (!allowed.empty() && rng_.chance(60))
                return operand_text(rng_.pick(allowed));
            return literal(want_w);
        }
        switch (rng_.below(10)) {
        case 0:
        case 1:
        case 2:
            return operand_text(rng_.pick(allowed));
        case 3:
            return literal(want_w);
        case 4: {
            const char* ops[] = {"~", "!", "-", "&", "|", "^"};
            return std::string(ops[rng_.below(6)]) + "(" +
                   expr(want_w, maxlev, depth - 1) + ")";
        }
        case 5:
        case 6: {
            const char* ops[] = {"+",  "-",  "&",  "|",  "^",  "==", "!=",
                                 "<",  ">",  "<<", ">>", "*",  "&&", "||"};
            return "(" + expr(want_w, maxlev, depth - 1) + " " +
                   ops[rng_.below(14)] + " " +
                   expr(want_w, maxlev, depth - 1) + ")";
        }
        case 7:
            return "(" + expr(1, maxlev, depth - 1) + " ? " +
                   expr(want_w, maxlev, depth - 1) + " : " +
                   expr(want_w, maxlev, depth - 1) + ")";
        case 8: {
            // Concatenation with a bounded total width; boundary-prone
            // but never wider than a value can be.
            uint32_t total = want_w > 1 ? want_w : 2;
            if (total > 64)
                total = 64;
            uint32_t first = 1 + static_cast<uint32_t>(rng_.below(total - 1));
            return "{" + exact_term(first, maxlev) + ", " +
                   exact_term(total - first, maxlev) + "}";
        }
        default: {
            const Operand& op = rng_.pick(allowed);
            return "(" + operand_text(op) + " " +
                   (rng_.chance(50) ? "^" : "+") + " " + literal(op.width) +
                   ")";
        }
        }
    }

    // --- emission ---------------------------------------------------------

    void emit() {
        src_ += "// generated by svlc fuzz, seed "; // appended: see numbered()
        line(std::to_string(opts_.seed));
        emit_policy();
        emit_module();
    }

    void emit_policy() {
        std::string l = "lattice {";
        for (const auto& lev : levels_)
            l += " level " + lev + ";";
        if (diamond_) {
            l += " flow LO -> M1; flow LO -> M2;";
            l += " flow M1 -> HI; flow M2 -> HI;";
        } else {
            for (size_t i = 0; i + 1 < levels_.size(); ++i)
                l += " flow " + levels_[i] + " -> " + levels_[i + 1] + ";";
        }
        line(l + " }");
        for (const auto& f : funcs_) {
            std::string d = "function " + f.name + "(x:" +
                            std::to_string(f.arg_width) + ") {";
            for (const auto& [v, lev] : f.entries) {
                d += ' '; // appended: see numbered()
                d += std::to_string(v) + " -> " +
                     levels_[static_cast<size_t>(lev)] + ";";
            }
            d += " default -> " + levels_[static_cast<size_t>(f.def_level)] +
                 "; }";
            line(d);
        }
    }

    [[nodiscard]] static std::string width_text(uint32_t w) {
        return w == 1 ? "" : "[" + std::to_string(w - 1) + ":0] ";
    }

    void emit_module() {
        std::string hdr = opts_.modular ? "module child(" : "module top(";
        bool first = true;
        for (const auto& n : nets_) {
            if (!n.input && !n.output)
                continue;
            if (!first)
                hdr += ",\n           ";
            first = false;
            hdr += std::string(n.input ? "input" : "output") +
                   (n.seq ? " seq " : " com ") + width_text(n.width) + "{" +
                   n.label_text + "} " + n.name;
        }
        line(hdr + ");");
        if (rng_.chance(40)) {
            param_value_ = 1 + rng_.below(200);
            line("  localparam P = " + std::to_string(param_value_) + ";");
        }
        // Declarations.
        for (const auto& n : nets_) {
            if (n.input || n.output)
                continue;
            std::string d = "  ";
            d += n.seq ? "reg seq " : "wire com ";
            d += width_text(n.width) + "{" + n.label_text + "} " + n.name;
            if (n.array)
                d += "[0:" + std::to_string(n.array - 1) + "]";
            else if (n.seq && rng_.chance(50))
                d += " = " + hex_literal(n.width, rng_.next());
            line(d + ";");
        }

        // Operand pool grows in declaration order: inputs and registers
        // first, com wires only once driven (keeps the comb graph
        // acyclic and single-driver by construction).
        for (const auto& n : nets_)
            if (n.input || n.seq)
                add_net_operand(n);
        if (param_value_)
            pool_.push_back({"P", 32, 0, false});

        emit_com_drivers();
        emit_seq_blocks();
        if (seq_port_func_ >= 0)
            emit_seq_port_block();
        line("endmodule");
        if (opts_.modular)
            emit_wrapper();
    }

    /// Writes rq under next(ms): per-value guards at f's levels, a scrub
    /// whenever ms moves, or a guarded write that keeps rq otherwise (the
    /// hold hazard a free ms exposes).
    void emit_seq_port_block() {
        const FuncInfo& f = funcs_[static_cast<size_t>(seq_port_func_)];
        const NetInfo& rq = nets_.back();
        line("  always @(seq) begin");
        switch (rng_.below(3)) {
        case 0: {
            uint64_t domain = uint64_t{1} << f.arg_width;
            for (uint64_t v = 0; v < domain; ++v)
                line(std::string(v == 0 ? "    if" : "    else if") +
                     " (next(ms) == " + hex_literal(f.arg_width, v) + ") rq <= " +
                     expr(rq.width, biased_ ? func_at(f, v) : -1, 2) + ";");
            break;
        }
        case 1:
            line("    if (next(ms) != ms) rq <= " + hex_literal(rq.width, 0) +
                 ";");
            line("    else rq <= (rq ^ " + expr(rq.width, biased_ ? 0 : -1, 1) +
                 ");");
            break;
        default:
            line("    if (" + guard_expr() + " && next(ms) == " +
                 hex_literal(f.arg_width, rng_.below(uint64_t{1} << f.arg_width)) +
                 ") rq <= " + expr(rq.width, -1, 1) + ";");
        }
        line("  end");
    }

    /// A port of an instantiated module: its name there, the wrapper net
    /// an input is tied to, and its width and label.
    struct Port {
        std::string inner, outer;
        uint32_t width;
        std::string label;
    };

    /// `top`: 2-3 instances of `child`. In about one program in three
    /// that module is `mid`, and `top` instantiates it twice, so one
    /// repeated module nests inside another.
    void emit_wrapper() {
        bool nest = rng_.chance(33);
        std::vector<Port> ins, outs;
        for (const auto& n : nets_) {
            if (n.input)
                ins.push_back({n.name, "t_" + n.name, n.width, n.label_text});
            else if (n.output)
                outs.push_back({n.name, "", n.width, n.label_text});
        }
        outs = emit_instances(nest ? "mid" : "top", "child", "c", "o",
                              2 + rng_.below(2), ins, outs);
        if (!nest)
            return;
        for (Port& in : ins)
            in.inner = in.outer;
        emit_instances("top", "mid", "m", "m", 2, ins, outs);
    }

    /// Emits module `name` with `copies` instances of `inner`. Each input
    /// port is tied to a constant or to the wrapper input of the same
    /// width and label; every output surfaces as a wrapper output
    /// `<out_prefix><k>_<port>`, and those are returned.
    std::vector<Port> emit_instances(const std::string& name,
                                     const std::string& inner,
                                     const char* inst_prefix,
                                     const char* out_prefix, size_t copies,
                                     const std::vector<Port>& ins,
                                     const std::vector<Port>& outs) {
        std::string hdr = "module " + name + "(";
        bool first = true;
        auto port = [&](const std::string& decl) {
            hdr += first ? "" : ",\n           ";
            first = false;
            hdr += decl;
        };
        for (const Port& in : ins)
            port("input com " + width_text(in.width) + "{" + in.label +
                 "} " + in.outer);
        std::vector<Port> made;
        for (size_t k = 0; k < copies; ++k)
            for (const Port& out : outs) {
                made.push_back({numbered(out_prefix, k) + "_" + out.inner, "",
                                out.width, out.label});
                port("output com " + width_text(out.width) + "{" +
                     out.label + "} " + made.back().inner);
            }
        line(hdr + ");");
        for (size_t k = 0; k < copies; ++k) {
            std::string inst = "  " + inner + " " +
                               numbered(inst_prefix, k) + "(";
            first = true;
            auto connect = [&](const std::string& port, const std::string& to) {
                inst += first ? "" : ", ";
                first = false;
                inst += "." + port + "(" + to + ")";
            };
            for (const Port& in : ins)
                connect(in.inner, rng_.chance(30)
                                      ? hex_literal(in.width, rng_.next())
                                      : in.outer);
            for (const Port& out : outs)
                connect(out.inner, numbered(out_prefix, k) + "_" + out.inner);
            line(inst + ");");
        }
        line("endmodule");
        return made;
    }

    void emit_com_drivers() {
        // One wire may get an always @(*) block instead of an assign.
        int comb_block = rng_.chance(35) ? 1 : 0;
        for (auto& n : nets_) {
            if (n.input || n.seq)
                continue;
            int lev = biased_ ? n.level : -1;
            if (!n.output && comb_block-- == 1) {
                line("  always @(*) begin");
                line("    " + n.name + " = " + expr(n.width, lev, 2) + ";");
                if (rng_.chance(60))
                    line("    if (" + expr(1, biased_ ? n.level : -1, 1) +
                         ") " + n.name + " = " + expr(n.width, lev, 1) +
                         ";");
                line("  end");
            } else {
                line("  assign " + n.name + " = " + expr(n.width, lev, 3) +
                     ";");
            }
            add_net_operand(n);
        }
    }

    /// Operands usable inside guards of writes to dependently-labeled
    /// registers: bottom-level only, so the implicit pc stays low.
    std::string guard_expr() { return expr(1, biased_ ? 0 : -1, 1); }

    void emit_seq_blocks() {
        // Group 0: the mode register by itself (its next value must not
        // depend on other registers' next values).
        line("  always @(seq) begin");
        if (rng_.chance(15)) // bit 0 only: the other bits hold
            line("    mode[0:0] <= mode_in[0:0];");
        else if (biased_ || rng_.chance(80))
            line("    mode <= mode_in;");
        else
            line("    mode <= " + expr(nets_[1].width, -1, 1) + ";");
        line("  end");

        int max_group = 0;
        for (const auto& n : nets_)
            if (n.group > max_group)
                max_group = n.group;
        for (int g = 1; g <= max_group; ++g) {
            std::vector<const NetInfo*> regs;
            for (const auto& n : nets_)
                if (n.seq && n.group == g)
                    regs.push_back(&n);
            if (regs.empty())
                continue;
            line("  always @(seq) begin");
            // next() of registers from strictly earlier groups keeps the
            // next-value dependency graph acyclic. An array element is
            // read at a constant index: next() would prime the registers
            // of an index expression too.
            std::vector<Operand> saved = pool_;
            for (const auto& n : nets_) {
                if (!n.seq || n.group >= g || !rng_.chance(60))
                    continue;
                std::string read = n.name;
                if (n.array)
                    read += "[" + std::to_string(rng_.below(n.array)) + "]";
                pool_.push_back(
                    {"next(" + read + ")", n.width, n.eff_level, false});
            }
            for (const NetInfo* r : regs)
                emit_reg_write(*r);
            if (!has_assume_ && rng_.chance(15)) {
                has_assume_ = true;
                line("    assume(" + expr(1, -1, 1) + ");");
            }
            pool_ = saved;
            line("  end");
        }
    }

    void emit_reg_write(const NetInfo& r) {
        if (r.array) {
            std::string idx =
                rng_.chance(70)
                    ? std::to_string(rng_.below(r.array))
                    : expr(2, biased_ ? r.level : -1, 1);
            std::string g = rng_.chance(50)
                                ? "if (" + guard_expr() + ") "
                                : "";
            line("    " + g + r.name + "[" + idx + "] <= " +
                 rhs(r, biased_ ? r.level : -1) + ";");
            return;
        }
        if (r.level < 0) {
            emit_dependent_write(r);
            return;
        }
        int lev = biased_ ? r.level : -1;
        switch (rng_.below(4)) {
        case 0:
            line("    " + r.name + " <= " + rhs(r, lev) + ";");
            break;
        case 1: {
            line("    if (" + guard_expr() + ") " + r.name + " <= " +
                 rhs(r, lev) + ";");
            if (rng_.chance(60))
                line("    else " + r.name + " <= " + rhs(r, lev) + ";");
            break;
        }
        case 2:
            emit_part_selects(r, guard_expr(), lev, false);
            break;
        default: {
            line("    case (" + (biased_ ? std::string("mode")
                                         : expr(2, -1, 1)) + ")");
            line("      0: " + r.name + " <= " + rhs(r, lev) + ";");
            line("      1: " + r.name + " <= " + rhs(r, lev) + ";");
            line("      default: " + r.name + " <= " + rhs(r, lev) + ";");
            line("    endcase");
        }
        }
    }

    /// Write to a register labeled f(mode): the paper's two accepted
    /// idioms (scrub on mode change, or per-mode-value guards), or a
    /// free-for-all write when unbiased.
    void emit_dependent_write(const NetInfo& r) {
        const FuncInfo& f = funcs_[static_cast<size_t>(dep_func_)];
        if (!biased_ && rng_.chance(50)) {
            line("    " + r.name + " <= " + rhs(r, -1) + ";");
            return;
        }
        if (rng_.chance(20)) {
            // fig3 with part-selects: the low bits are scrubbed every
            // cycle, the high bits written at one mode value's level.
            uint64_t v = rng_.below(uint64_t{1} << f.arg_width);
            emit_part_selects(r,
                              "next(mode) == " + hex_literal(f.arg_width, v),
                              biased_ ? func_at(f, v) : -1, true);
            return;
        }
        if (rng_.chance(50)) {
            // Scrub whenever the label might move; otherwise the label is
            // provably stable and the register may keep flowing to
            // itself.
            line("    if (next(mode) != mode) " + r.name + " <= " +
                 hex_literal(r.width, 0) + ";");
            line("    else " + r.name + " <= (" + r.name + " ^ " +
                 expr(r.width, biased_ ? 0 : -1, 1) + ");");
        } else {
            // fig4-style: one branch per mode value, each at that mode's
            // level. Guards on the current mode are right only while
            // the mode cannot change. A biased branch reads an operand at
            // exactly that level where there is one, so that a wrong
            // acceptance moves data a lower observer must not see, and
            // the soundness oracle can observe the leak.
            std::string sel = rng_.chance(25) ? "mode" : "next(mode)";
            uint64_t domain = uint64_t{1} << f.arg_width;
            for (uint64_t v = 0; v < domain; ++v) {
                int lev = func_at(f, v);
                std::string kw = v == 0 ? "    if" : "    else if";
                line(kw + " (" + sel + " == " +
                     hex_literal(f.arg_width, v) + ") " + r.name + " <= " +
                     (biased_ ? expr_reading(r.width, lev)
                              : expr(r.width, -1, 2)) +
                     ";");
            }
        }
    }

    /// Part-select writes to a scalar register at level `lev`: its low
    /// bits unconditionally (zeros when `scrub_low`), its high bits under
    /// `guard`, so neither writes it whole. A 1-bit register gets one
    /// full-width [0:0] write instead.
    void emit_part_selects(const NetInfo& r, const std::string& guard,
                           int lev, bool scrub_low) {
        uint32_t split =
            r.width == 1 ? 1
                         : 1 + static_cast<uint32_t>(rng_.below(r.width - 1));
        line("    " + r.name + "[" + std::to_string(split - 1) + ":0] <= " +
             (scrub_low ? hex_literal(split, 0) : expr(split, lev, 2)) + ";");
        if (split < r.width)
            line("    if (" + guard + ") " + r.name + "[" +
                 std::to_string(r.width - 1) + ":" + std::to_string(split) +
                 "] <= " + expr(r.width - split, lev, 2) + ";");
    }

    /// An expression at level `lev` that reads an operand at exactly
    /// that level, when the pool has one.
    std::string expr_reading(uint32_t want_w, int lev) {
        std::vector<Operand> exact;
        for (const auto& op : pool_)
            if (op.level == lev)
                exact.push_back(op);
        if (exact.empty())
            return expr(want_w, lev, 2);
        return "(" + operand_text(rng_.pick(exact)) + " ^ " +
               expr(want_w, lev, 1) + ")";
    }

    std::string rhs(const NetInfo& r, int lev) {
        std::string e = expr(r.width, lev, 2);
        if (!biased_ || !rng_.chance(12) || has_downgrade_)
            return e;
        // Whole-RHS downgrade of something too secret/untrusted for the
        // target, annotated with the target's own label.
        has_downgrade_ = true;
        std::string high = expr(r.width, -1, 1);
        const char* kw = rng_.chance(50) ? "endorse" : "declassify";
        return std::string(kw) + "(" + high + ", " + r.label_text + ")";
    }

    std::string shape() const {
        std::string s = diamond_ ? "diamond" : "chain" +
                                                   std::to_string(
                                                       levels_.size());
        s += "/f" + std::to_string(funcs_.size());
        s += "/n" + std::to_string(nets_.size());
        s += biased_ ? "/biased" : "/free";
        if (opts_.modular)
            s += "/modular";
        return s;
    }

    void line(const std::string& s) {
        src_ += s;
        src_ += '\n';
    }

    Rng rng_;
    GenOptions opts_;
    bool biased_ = false;
    bool diamond_ = false;
    std::vector<std::string> levels_;
    std::vector<FuncInfo> funcs_;
    std::vector<NetInfo> nets_;
    int dep_func_ = 0;
    /// Label function of rq(ms); -1 without the seq port.
    int seq_port_func_ = -1;
    uint64_t param_value_ = 0;
    bool has_downgrade_ = false;
    bool has_assume_ = false;
    std::string src_;
};

} // namespace

GenProgram generate_program(const GenOptions& opts) {
    return Generator(opts).run();
}

GenProgram generate_modular_program(uint64_t program_seed) {
    GenOptions opts;
    opts.seed = Rng::derive(program_seed, 0x6d6f64756c6172ull); // "modular"
    opts.modular = true;
    return generate_program(opts);
}

std::string mutate_source(const std::string& src, uint64_t seed) {
    Rng rng(seed);
    std::string s = src;
    const char* splice[] = {"begin",  "end",   "module", "endmodule",
                            "8'",     "'",     "/*",     "*/",
                            "<=",     "next(", "{",      "[",
                            "case",   "assume(", "\x00\x01", "\xff\xfe"};
    size_t n = 1 + rng.below(3);
    for (size_t i = 0; i < n && !s.empty(); ++i) {
        size_t len = s.size();
        switch (rng.below(5)) {
        case 0: // truncate (mid-token, mid-block, mid-module)
            s = s.substr(0, rng.below(len));
            break;
        case 1: { // delete a span
            size_t a = rng.below(len);
            s.erase(a, 1 + rng.below(len - a));
            break;
        }
        case 2: { // duplicate a span
            size_t a = rng.below(len);
            size_t l = 1 + rng.below(std::min<size_t>(len - a, 64));
            s.insert(rng.below(len), s.substr(a, l));
            break;
        }
        case 3: { // raw byte noise, including non-ASCII and NUL
            size_t count = 1 + rng.below(8);
            for (size_t k = 0; k < count && !s.empty(); ++k)
                s[rng.below(s.size())] =
                    static_cast<char>(rng.below(256));
            break;
        }
        default: // splice a keyword fragment somewhere hostile
            s.insert(rng.below(len), splice[rng.below(16)]);
        }
    }
    return s;
}

std::string pathological_source(uint64_t seed) {
    Rng rng(seed);
    auto rep = [](const std::string& unit, size_t n) {
        std::string out;
        out.reserve(unit.size() * n);
        for (size_t i = 0; i < n; ++i)
            out += unit;
        return out;
    };
    size_t deep = 2000 + rng.below(6000);
    switch (rng.below(8)) {
    case 0: // expression nesting far past the parser's depth cap
        return "module t();\n  assign x = " + rep("(", deep) + "1" +
               rep(")", deep) + ";\nendmodule\n";
    case 1: // unary runs
        return "module t();\n  assign x = " + rep("~", 4 * deep) +
               "1;\nendmodule\n";
    case 2: // begin chain cut off mid-block
        return "module t();\n  always @(seq) " + rep("begin ", deep);
    case 3: // matched but absurdly deep blocks
        return "module t();\n  always @(seq) " + rep("begin ", deep) + ";" +
               rep(" end", deep) + "\nendmodule\n";
    case 4: // right-leaning ternary tower
        return "module t();\n  assign x = " + rep("1 ? ", deep) + "1" +
               rep(" : 0", deep) + ";\nendmodule\n";
    case 5: // unterminated block comment swallowing a huge tail
        return "module t();\n  /* " + rep("x ", deep);
    case 6: // truncated/over-long literals
        return "module t(input com {T} a);\n  assign x = 8' + 64'h" +
               rep("f", 64) + " + " + rep("9", 64) + " + 'h1;\nendmodule\n";
    default: // deep parens inside a label expression
        return "module t(input com {" + rep("(", deep) + "T" +
               rep(")", deep) + "} a);\nendmodule\n";
    }
}

} // namespace svlc::fuzz
