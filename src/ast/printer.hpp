// Pretty-printer: renders AST back to SecVerilogLC concrete syntax, so
// that printed source reparses to the same AST (the fuzzer's roundtrip
// oracle and the parser tests rely on it). Verilog emission prints HIR
// instead (codegen/verilog.hpp).
#pragma once

#include "ast/ast.hpp"

#include <string>

namespace svlc::ast {

std::string print(const Expr& e);
std::string print(const Label& l);
std::string print(const Stmt& s, int indent = 0);
std::string print(const Module& m);
std::string print(const CompilationUnit& cu);

} // namespace svlc::ast
