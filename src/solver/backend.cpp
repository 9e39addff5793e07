// Backend registry plus the pieces every backend shares: witness
// construction and the deadline test.
#include "solver/backend.hpp"

#include "solver/backend_cdcl.hpp"

#include <sstream>

namespace svlc::solver {

const char* backend_id(BackendKind kind) {
    switch (kind) {
    case BackendKind::Enum:
        return "enum";
    case BackendKind::Cdcl:
        return "cdcl";
    }
    return "enum";
}

std::optional<BackendKind> parse_backend(std::string_view name) {
    if (name == "enum")
        return BackendKind::Enum;
    if (name == "cdcl")
        return BackendKind::Cdcl;
    return std::nullopt;
}

std::string Witness::str(const hir::Design& design) const {
    std::ostringstream os;
    for (const WitnessBinding& b : bindings) {
        os << design.net(b.net).name << (b.primed ? "'" : "") << "="
           << b.value.value() << " ";
    }
    os << "gives " << design.policy.lattice().name(lhs_level) << " ⋢ "
       << design.policy.lattice().name(rhs_level);
    return os.str();
}

namespace backend_detail {

bool past(std::chrono::steady_clock::time_point deadline) {
    return deadline != std::chrono::steady_clock::time_point{} &&
           std::chrono::steady_clock::now() > deadline;
}

Witness make_witness(const EnumProblem& p, const Assignment& asg,
                     LevelId lhs_level, LevelId rhs_level) {
    Witness w;
    w.bindings.reserve(p.vars.size());
    for (const EnumProblem::Var& v : p.vars)
        w.bindings.push_back({v.net, v.primed, *asg.get(v.net, v.primed)});
    w.lhs_level = lhs_level;
    w.rhs_level = rhs_level;
    return w;
}

} // namespace backend_detail

std::unique_ptr<EntailBackend> make_enum_backend();

std::unique_ptr<EntailBackend> make_backend(BackendKind kind) {
    return kind == BackendKind::Cdcl ? make_cdcl_backend()
                                     : make_enum_backend();
}

} // namespace svlc::solver
