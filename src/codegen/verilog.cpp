#include "codegen/verilog.hpp"

#include <set>
#include <sstream>

namespace svlc::codegen {

using namespace hir;

namespace {

class Emitter {
public:
    Emitter(const Design& design, DiagnosticEngine& diags,
            const EmitOptions& opts)
        : design_(design), diags_(diags), opts_(opts) {
        names_.resize(design.nets.size());
        for (const Net& net : design.nets) {
            std::string n = net.name;
            for (char& ch : n)
                if (ch == '.')
                    ch = '_';
            names_[net.id] = n;
        }
        for (const Process& proc : design.processes) {
            if (proc.kind != ProcessKind::Seq)
                continue;
            for (NetId w : proc.writes)
                if (design.net(w).array_size == 0)
                    has_next_.insert(w);
        }
    }

    std::string run();

private:
    std::string next_name(NetId n) const { return names_[n] + "__next"; }

    void emit_expr(std::ostringstream& os, const Expr& e);
    void emit_comb_stmt(std::ostringstream& os, const Stmt& s, int indent,
                        bool to_next);
    void emit_array_stmt(std::ostringstream& os, const Stmt& s, int indent,
                         bool& any);
    bool stmt_writes_array(const Stmt& s) const;

    void indent_to(std::ostringstream& os, int n) {
        for (int i = 0; i < n; ++i)
            os << "  ";
    }

    const Design& design_;
    DiagnosticEngine& diags_;
    EmitOptions opts_;
    std::vector<std::string> names_;
    std::set<NetId> has_next_;
};

void Emitter::emit_expr(std::ostringstream& os, const Expr& e) {
    switch (e.kind) {
    case ExprKind::Const:
        os << e.value.width() << "'h" << std::hex << e.value.value()
           << std::dec;
        return;
    case ExprKind::NetRef:
        if (e.primed) {
            if (has_next_.count(e.net))
                os << next_name(e.net);
            else
                os << names_[e.net]; // undriven register: r' == r
        } else {
            os << names_[e.net];
        }
        return;
    case ExprKind::ArrayRead:
        if (e.primed) {
            diags_.error(DiagCode::Unsupported, e.loc,
                         "primed array reads cannot be compiled to "
                         "Verilog");
            os << "/*next*/" << names_[e.net];
        } else {
            os << names_[e.net];
        }
        os << "[";
        emit_expr(os, *e.index);
        os << "]";
        return;
    case ExprKind::Slice:
        if (e.a->kind == ExprKind::NetRef && !e.a->primed) {
            os << names_[e.a->net] << "[" << e.msb;
            if (e.msb != e.lsb)
                os << ":" << e.lsb;
            os << "]";
        } else {
            // Verilog forbids part-selects of expressions; shift & mask.
            os << "(((";
            emit_expr(os, *e.a);
            os << ") >> " << e.lsb << ") & "
               << (e.msb - e.lsb + 1) << "'h"
               << std::hex << BitVec::mask(e.msb - e.lsb + 1) << std::dec
               << ")";
        }
        return;
    case ExprKind::Unary:
        os << ast::unary_op_text(e.un_op) << "(";
        emit_expr(os, *e.a);
        os << ")";
        return;
    case ExprKind::Binary:
        os << "(";
        emit_expr(os, *e.a);
        os << " " << ast::binary_op_text(e.bin_op) << " ";
        emit_expr(os, *e.b);
        os << ")";
        return;
    case ExprKind::Cond:
        os << "(";
        emit_expr(os, *e.a);
        os << " ? ";
        emit_expr(os, *e.b);
        os << " : ";
        emit_expr(os, *e.c);
        os << ")";
        return;
    case ExprKind::Concat:
        os << "{";
        for (size_t i = 0; i < e.parts.size(); ++i) {
            if (i)
                os << ", ";
            emit_expr(os, *e.parts[i]);
        }
        os << "}";
        return;
    case ExprKind::Downgrade:
        // Labels are erased; the downgrade is pure wiring.
        emit_expr(os, *e.a);
        return;
    }
}

/// Emits a statement tree as blocking assignments. `to_next` redirects
/// scalar sequential targets to their __next temporaries (array writes
/// are skipped here; they are emitted in the clocked block).
void Emitter::emit_comb_stmt(std::ostringstream& os, const Stmt& s, int indent,
                             bool to_next) {
    switch (s.kind) {
    case StmtKind::Block:
        for (const auto& st : s.stmts)
            emit_comb_stmt(os, *st, indent, to_next);
        return;
    case StmtKind::If: {
        // Skip branches containing only array writes / assumes.
        indent_to(os, indent);
        os << "if (";
        emit_expr(os, *s.cond);
        os << ") begin\n";
        emit_comb_stmt(os, *s.then_stmt, indent + 1, to_next);
        indent_to(os, indent);
        os << "end\n";
        if (s.else_stmt) {
            indent_to(os, indent);
            os << "else begin\n";
            emit_comb_stmt(os, *s.else_stmt, indent + 1, to_next);
            indent_to(os, indent);
            os << "end\n";
        }
        return;
    }
    case StmtKind::Assign: {
        const Net& net = design_.net(s.lhs.net);
        if (net.array_size != 0) {
            if (!to_next) {
                // Combinational array writes are rejected at elaboration;
                // nothing to emit.
            }
            return; // arrays handled by the clocked block
        }
        indent_to(os, indent);
        os << (to_next ? next_name(s.lhs.net) : names_[s.lhs.net]);
        if (s.lhs.has_range) {
            os << "[" << s.lhs.msb;
            if (s.lhs.msb != s.lhs.lsb)
                os << ":" << s.lhs.lsb;
            os << "]";
        }
        os << " = ";
        emit_expr(os, *s.rhs);
        os << ";\n";
        return;
    }
    case StmtKind::Assume:
        indent_to(os, indent);
        os << "// assume(...) erased\n";
        return;
    }
}

bool Emitter::stmt_writes_array(const Stmt& s) const {
    switch (s.kind) {
    case StmtKind::Block:
        for (const auto& st : s.stmts)
            if (stmt_writes_array(*st))
                return true;
        return false;
    case StmtKind::If:
        return stmt_writes_array(*s.then_stmt) ||
               (s.else_stmt && stmt_writes_array(*s.else_stmt));
    case StmtKind::Assign:
        return design_.net(s.lhs.net).array_size != 0;
    case StmtKind::Assume:
        return false;
    }
    return false;
}

/// Emits only the array writes of a sequential body as non-blocking
/// assignments (guards intact).
void Emitter::emit_array_stmt(std::ostringstream& os, const Stmt& s,
                              int indent, bool& any) {
    switch (s.kind) {
    case StmtKind::Block:
        for (const auto& st : s.stmts)
            emit_array_stmt(os, *st, indent, any);
        return;
    case StmtKind::If: {
        if (!stmt_writes_array(s))
            return;
        indent_to(os, indent);
        os << "if (";
        emit_expr(os, *s.cond);
        os << ") begin\n";
        emit_array_stmt(os, *s.then_stmt, indent + 1, any);
        indent_to(os, indent);
        os << "end\n";
        if (s.else_stmt && stmt_writes_array(*s.else_stmt)) {
            indent_to(os, indent);
            os << "else begin\n";
            emit_array_stmt(os, *s.else_stmt, indent + 1, any);
            indent_to(os, indent);
            os << "end\n";
        }
        return;
    }
    case StmtKind::Assign: {
        const Net& net = design_.net(s.lhs.net);
        if (net.array_size == 0)
            return;
        any = true;
        indent_to(os, indent);
        os << names_[s.lhs.net] << "[";
        emit_expr(os, *s.lhs.index);
        os << "] <= ";
        emit_expr(os, *s.rhs);
        os << ";\n";
        return;
    }
    case StmtKind::Assume:
        return;
    }
}

std::string Emitter::run() {
    std::ostringstream os;
    bool strict = opts_.dialect == Dialect::Verilog2001;
    os << "// " << opts_.header_comment << "\n";
    std::string mod_name = design_.top_name.empty() ? "top" : design_.top_name;

    // Header.
    os << "module " << mod_name << "(\n  input wire clk";
    for (const Net& net : design_.nets) {
        if (!net.is_input && !net.is_output)
            continue;
        os << ",\n  " << (net.is_input ? "input" : "output") << " wire ";
        if (net.width > 1)
            os << "[" << net.width - 1 << ":0] ";
        os << names_[net.id];
    }
    os << "\n);\n\n";

    // Declarations.
    for (const Net& net : design_.nets) {
        if (net.is_input || net.is_output)
            continue;
        bool procedural =
            net.kind == NetKind::Seq ||
            // In strict Verilog, nets written from always blocks must be
            // declared reg.
            [&] {
                if (!strict)
                    return false;
                for (const Process& p : design_.processes) {
                    if (p.kind != ProcessKind::Comb)
                        continue;
                    // Continuous-assign processes emit `assign`.
                    if (p.body->kind == StmtKind::Assign)
                        continue;
                    for (NetId w : p.writes)
                        if (w == net.id)
                            return true;
                }
                return false;
            }();
        os << "  " << (procedural ? "reg " : "wire ");
        if (net.width > 1)
            os << "[" << net.width - 1 << ":0] ";
        os << names_[net.id];
        if (net.array_size != 0)
            os << " [0:" << net.array_size - 1 << "]";
        if (net.has_init)
            os << " = " << net.width << "'h" << std::hex << net.init.value()
               << std::dec;
        os << ";\n";
    }
    // __next temporaries.
    for (NetId n : has_next_) {
        const Net& net = design_.net(n);
        os << "  " << (strict ? "reg " : "wire ");
        if (net.width > 1)
            os << "[" << net.width - 1 << ":0] ";
        os << next_name(n) << ";\n";
    }
    os << "\n";

    // Processes.
    for (const Process& proc : design_.processes) {
        if (proc.kind == ProcessKind::Comb) {
            if (proc.body->kind == StmtKind::Assign &&
                !proc.body->lhs.has_range && !proc.body->lhs.index) {
                os << "  assign " << names_[proc.body->lhs.net] << " = ";
                emit_expr(os, *proc.body->rhs);
                os << ";\n\n";
            } else {
                os << (strict ? "  always @* begin\n"
                              : "  always @(*) begin\n");
                emit_comb_stmt(os, *proc.body, 2, /*to_next=*/false);
                os << "  end\n\n";
            }
            continue;
        }
        // Sequential process: combinational __next block ...
        std::vector<NetId> scalars;
        for (NetId w : proc.writes)
            if (design_.net(w).array_size == 0)
                scalars.push_back(w);
        if (!scalars.empty()) {
            os << (strict ? "  always @* begin\n" : "  always @(*) begin\n");
            for (NetId r : scalars)
                os << "    " << next_name(r) << " = " << names_[r]
                   << ";  // hold\n";
            emit_comb_stmt(os, *proc.body, 2, /*to_next=*/true);
            os << "  end\n";
            os << "  always @(posedge clk) begin\n";
            for (NetId r : scalars)
                os << "    " << names_[r] << " <= " << next_name(r) << ";\n";
            os << "  end\n\n";
        }
        // ... plus a clocked block for array writes.
        bool any = false;
        std::ostringstream arr;
        emit_array_stmt(arr, *proc.body, 2, any);
        if (any)
            os << "  always @(posedge clk) begin\n" << arr.str()
               << "  end\n\n";
    }
    os << "endmodule\n";
    return os.str();
}

} // namespace

std::string emit_verilog(const Design& design, DiagnosticEngine& diags,
                         const EmitOptions& opts) {
    Emitter emitter(design, diags, opts);
    return emitter.run();
}

} // namespace svlc::codegen
