#include "ast/printer.hpp"

#include <cassert>
#include <sstream>

namespace svlc::ast {

namespace {

void print_expr(std::ostringstream& os, const Expr& e);

void print_label_inner(std::ostringstream& os, const Label& l) {
    switch (l.kind) {
    case LabelKind::Level:
        os << l.level_name;
        break;
    case LabelKind::Func: {
        os << l.func_name << "(";
        for (size_t i = 0; i < l.args.size(); ++i) {
            if (i)
                os << ", ";
            print_expr(os, *l.args[i]);
        }
        os << ")";
        break;
    }
    case LabelKind::Join:
        print_label_inner(os, *l.lhs);
        os << " join ";
        print_label_inner(os, *l.rhs);
        break;
    }
}

void print_expr(std::ostringstream& os, const Expr& e) {
    switch (e.kind) {
    case ExprKind::Number: {
        const auto& n = static_cast<const NumberExpr&>(e);
        if (n.unsized)
            os << n.value.value();
        else
            os << n.value.str();
        break;
    }
    case ExprKind::Ident:
        os << static_cast<const IdentExpr&>(e).name;
        break;
    case ExprKind::Index: {
        const auto& n = static_cast<const IndexExpr&>(e);
        print_expr(os, *n.base);
        os << "[";
        print_expr(os, *n.index);
        os << "]";
        break;
    }
    case ExprKind::Range: {
        const auto& n = static_cast<const RangeExpr&>(e);
        print_expr(os, *n.base);
        os << "[";
        print_expr(os, *n.msb);
        os << ":";
        print_expr(os, *n.lsb);
        os << "]";
        break;
    }
    case ExprKind::Unary: {
        const auto& n = static_cast<const UnaryExpr&>(e);
        os << unary_op_text(n.op) << "(";
        print_expr(os, *n.operand);
        os << ")";
        break;
    }
    case ExprKind::Binary: {
        const auto& n = static_cast<const BinaryExpr&>(e);
        os << "(";
        print_expr(os, *n.lhs);
        os << " " << binary_op_text(n.op) << " ";
        print_expr(os, *n.rhs);
        os << ")";
        break;
    }
    case ExprKind::Cond: {
        const auto& n = static_cast<const CondExpr&>(e);
        os << "(";
        print_expr(os, *n.cond);
        os << " ? ";
        print_expr(os, *n.then_expr);
        os << " : ";
        print_expr(os, *n.else_expr);
        os << ")";
        break;
    }
    case ExprKind::Concat: {
        const auto& n = static_cast<const ConcatExpr&>(e);
        os << "{";
        for (size_t i = 0; i < n.parts.size(); ++i) {
            if (i)
                os << ", ";
            print_expr(os, *n.parts[i]);
        }
        os << "}";
        break;
    }
    case ExprKind::Next: {
        const auto& n = static_cast<const NextExpr&>(e);
        os << "next(";
        print_expr(os, *n.operand);
        os << ")";
        break;
    }
    case ExprKind::Downgrade: {
        const auto& n = static_cast<const DowngradeExpr&>(e);
        os << (n.dkind == DowngradeKind::Endorse ? "endorse("
                                                 : "declassify(");
        print_expr(os, *n.operand);
        os << ", ";
        print_label_inner(os, *n.target);
        os << ")";
        break;
    }
    }
}

void indent_to(std::ostringstream& os, int indent) {
    os << std::string(2 * indent, ' ');
}

void print_lvalue(std::ostringstream& os, const LValue& lv) {
    os << lv.name;
    if (lv.index) {
        os << "[";
        print_expr(os, *lv.index);
        os << "]";
    }
    if (lv.range_msb) {
        os << "[";
        print_expr(os, *lv.range_msb);
        os << ":";
        print_expr(os, *lv.range_lsb);
        os << "]";
    }
}

void print_stmt(std::ostringstream& os, const Stmt& s, int indent) {
    switch (s.kind) {
    case StmtKind::Block: {
        const auto& b = static_cast<const BlockStmt&>(s);
        indent_to(os, indent);
        os << "begin\n";
        for (const auto& st : b.stmts)
            print_stmt(os, *st, indent + 1);
        indent_to(os, indent);
        os << "end\n";
        break;
    }
    case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(s);
        indent_to(os, indent);
        os << "if (";
        print_expr(os, *i.cond);
        os << ")\n";
        print_stmt(os, *i.then_stmt, indent + 1);
        if (i.else_stmt) {
            indent_to(os, indent);
            os << "else\n";
            print_stmt(os, *i.else_stmt, indent + 1);
        }
        break;
    }
    case StmtKind::Case: {
        const auto& c = static_cast<const CaseStmt&>(s);
        indent_to(os, indent);
        os << "case (";
        print_expr(os, *c.subject);
        os << ")\n";
        for (const auto& item : c.items) {
            indent_to(os, indent + 1);
            if (item.values.empty()) {
                os << "default:\n";
            } else {
                for (size_t i = 0; i < item.values.size(); ++i) {
                    if (i)
                        os << ", ";
                    print_expr(os, *item.values[i]);
                }
                os << ":\n";
            }
            print_stmt(os, *item.body, indent + 2);
        }
        indent_to(os, indent);
        os << "endcase\n";
        break;
    }
    case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        indent_to(os, indent);
        print_lvalue(os, a.lhs);
        os << (a.op == AssignOp::Blocking ? " = " : " <= ");
        print_expr(os, *a.rhs);
        os << ";\n";
        break;
    }
    case StmtKind::Assume: {
        const auto& a = static_cast<const AssumeStmt&>(s);
        indent_to(os, indent);
        os << "assume(";
        print_expr(os, *a.pred);
        os << ");\n";
        break;
    }
    case StmtKind::Skip:
        indent_to(os, indent);
        os << ";\n";
        break;
    }
}

void print_net(std::ostringstream& os, const NetDecl& net, int indent) {
    indent_to(os, indent);
    if (net.dir == PortDir::Input)
        os << "input ";
    else if (net.dir == PortDir::Output)
        os << "output ";
    os << (net.kind == NetKind::Seq ? "reg " : "wire ");
    os << (net.kind == NetKind::Seq ? "seq " : "com ");
    if (net.width_msb) {
        os << "[";
        print_expr(os, *net.width_msb);
        os << ":";
        print_expr(os, *net.width_lsb);
        os << "] ";
    }
    if (net.label) {
        os << "{";
        print_label_inner(os, *net.label);
        os << "} ";
    }
    os << net.name;
    if (net.array_lo) {
        os << "[";
        print_expr(os, *net.array_lo);
        os << ":";
        print_expr(os, *net.array_hi);
        os << "]";
    }
    if (net.init) {
        os << " = ";
        print_expr(os, *net.init);
    }
    os << ";\n";
}

} // namespace

std::string print(const Expr& e) {
    std::ostringstream os;
    print_expr(os, e);
    return os.str();
}

std::string print(const Label& l) {
    std::ostringstream os;
    print_label_inner(os, l);
    return os.str();
}

std::string print(const Stmt& s, int indent) {
    std::ostringstream os;
    print_stmt(os, s, indent);
    return os.str();
}

std::string print(const Module& m) {
    std::ostringstream os;
    os << "module " << m.name << "(";
    bool first = true;
    for (const auto& port : m.port_order) {
        const NetDecl* decl = nullptr;
        for (const auto& net : m.nets)
            if (net.name == port && net.dir != PortDir::None)
                decl = &net;
        if (!first)
            os << ", ";
        first = false;
        if (decl == nullptr) {
            os << port;
            continue;
        }
        os << (decl->dir == PortDir::Input ? "input " : "output ");
        os << (decl->kind == NetKind::Seq ? "reg " : "wire ");
        os << (decl->kind == NetKind::Seq ? "seq " : "com ");
        if (decl->width_msb) {
            os << "[";
            print_expr(os, *decl->width_msb);
            os << ":";
            print_expr(os, *decl->width_lsb);
            os << "] ";
        }
        if (decl->label) {
            os << "{";
            print_label_inner(os, *decl->label);
            os << "} ";
        }
        os << decl->name;
    }
    os << ");\n";
    for (const auto& p : m.params) {
        os << "  localparam " << p.name << " = ";
        print_expr(os, *p.value);
        os << ";\n";
    }
    for (const auto& net : m.nets)
        if (net.dir == PortDir::None)
            print_net(os, net, 1);
    for (const auto& a : m.assigns) {
        os << "  assign ";
        print_lvalue(os, a.lhs);
        os << " = ";
        print_expr(os, *a.rhs);
        os << ";\n";
    }
    for (const auto& blk : m.always_blocks) {
        os << (blk.kind == AlwaysKind::Seq ? "  always @(seq)\n"
                                           : "  always @(*)\n");
        print_stmt(os, *blk.body, 1);
    }
    for (const auto& inst : m.instances) {
        os << "  " << inst.module_name << " ";
        if (!inst.params.empty()) {
            os << "#(";
            for (size_t i = 0; i < inst.params.size(); ++i) {
                if (i)
                    os << ", ";
                os << "." << inst.params[i].name << "(";
                print_expr(os, *inst.params[i].value);
                os << ")";
            }
            os << ") ";
        }
        os << inst.instance_name << "(";
        for (size_t i = 0; i < inst.connections.size(); ++i) {
            if (i)
                os << ", ";
            os << "." << inst.connections[i].port_name << "(";
            print_expr(os, *inst.connections[i].expr);
            os << ")";
        }
        os << ");\n";
    }
    os << "endmodule\n";
    return os.str();
}

std::string print(const CompilationUnit& cu) {
    std::ostringstream os;
    for (const auto& lat : cu.lattices) {
        os << "lattice {";
        for (const auto& lv : lat.levels)
            os << " level " << lv << ";";
        for (const auto& [lo, hi] : lat.flows)
            os << " flow " << lo << " -> " << hi << ";";
        os << " }\n";
    }
    for (const auto& fn : cu.functions) {
        os << "function " << fn.name << "(";
        for (size_t i = 0; i < fn.arg_names.size(); ++i) {
            if (i)
                os << ", ";
            os << fn.arg_names[i] << ":" << fn.arg_widths[i];
        }
        os << ") {";
        for (const auto& e : fn.entries) {
            os << " ";
            if (e.args.empty()) {
                os << "default";
            } else {
                for (size_t i = 0; i < e.args.size(); ++i) {
                    if (i)
                        os << ", ";
                    print_expr(os, *e.args[i]);
                }
            }
            os << " -> " << e.level << ";";
        }
        os << " }\n";
    }
    for (const auto& m : cu.modules) {
        os << print(m);
        os << "\n";
    }
    return os.str();
}

} // namespace svlc::ast
