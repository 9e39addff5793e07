// Pluggable enumeration backends for the entailment engine.
//
// The EntailmentEngine owns everything query-shaped: the syntactic fast
// path, the defining-equation closure, enumeration-set selection, and the
// memoization cache. What remains — "given these facts and this variable
// set, is there a candidate assignment that definitely satisfies the facts
// and breaks the flow?" — is the EnumProblem, and deciding it is the
// backend's job.
//
// Backend contract (checked by tests/backend_test.cpp, tests/cdcl_test.cpp
// and the `svlc diff-backends` harness):
//   * verdict-equivalent: the cdcl backend returns the same EntailStatus
//     as the enum reference for every problem;
//   * witness-equivalent: a Refuted verdict carries the *first* refuting
//     candidate in mixed-radix order, so witnesses are identical too;
//   * sound under "unknown never proves": a candidate whose facts cannot
//     be shown definitely true may block Proven but never refute.
#pragma once

#include "solver/entail.hpp"

#include <memory>

namespace svlc::solver {

/// A fully-prepared enumeration problem. Facts already include the
/// dependency closure; `vars` is the engine-chosen enumeration set in
/// mixed-radix digit order (least-significant first).
struct EnumProblem {
    const hir::Design& design;
    const SolverLabel& lhs;
    const SolverLabel& rhs;
    const std::vector<const hir::Expr*>& facts;

    struct Var {
        hir::NetId net = hir::kInvalidNet;
        bool primed = false;
        uint32_t width = 0;
    };
    std::vector<Var> vars;
    /// Product of 2^width over vars (>= 1; 1 means a single empty
    /// candidate).
    uint64_t domain = 1;
    /// Cooperative deadline; epoch disables it.
    std::chrono::steady_clock::time_point deadline{};
};

class EntailBackend {
public:
    virtual ~EntailBackend() = default;

    [[nodiscard]] virtual BackendKind kind() const = 0;
    [[nodiscard]] const char* id() const { return backend_id(kind()); }

    /// Decides the problem by (possibly pruned) candidate enumeration.
    /// `EntailResult::candidates` counts candidates actually evaluated —
    /// backends that skip provably-irrelevant candidates report fewer.
    virtual EntailResult enumerate(const EnumProblem& p) = 0;
};

/// Constructs a backend.
std::unique_ptr<EntailBackend> make_backend(BackendKind kind);

namespace backend_detail {

/// Shared deadline test (epoch = disabled).
bool past(std::chrono::steady_clock::time_point deadline);

/// Amortized deadline gate shared by every backend's hot loop: tick()
/// consults steady_clock only once per 1024 calls (a clock read per
/// candidate used to dominate small enumerations). A deadline that
/// expires mid-enumeration still fires within 1024 candidates —
/// tests/cdcl_test.cpp pins that regression.
class DeadlineGate {
public:
    explicit DeadlineGate(std::chrono::steady_clock::time_point deadline)
        : deadline_(deadline) {}

    /// True once the deadline has passed (checked every 1024th call).
    bool tick() {
        if ((++calls_ & 0x3FF) != 0)
            return expired_;
        if (!expired_ && past(deadline_))
            expired_ = true;
        return expired_;
    }

private:
    std::chrono::steady_clock::time_point deadline_;
    uint64_t calls_ = 0;
    bool expired_ = false;
};

/// Builds the structured witness + byte-stable detail string for a
/// refuting (or possibly-refuting) candidate.
Witness make_witness(const EnumProblem& p, const Assignment& asg,
                     LevelId lhs_level, LevelId rhs_level);

} // namespace backend_detail

} // namespace svlc::solver
