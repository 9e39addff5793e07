// Shared plumbing of the repository benchmark: timing helpers, the
// metric table every run prints, the correctness tally, and the Flow
// interface the three workloads are assembled from.
#pragma once

#include "check/typecheck.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The one production backend every layer is pinned to.
inline constexpr svlc::solver::BackendKind kBackend =
    svlc::solver::BackendKind::Cdcl;

/// Checker options every flow uses: the pinned backend, all else default.
inline svlc::check::CheckOptions check_options() {
    svlc::check::CheckOptions o;
    o.solver.backend = kBackend;
    return o;
}

inline double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/// Host speed correction. The vCPUs the benchmark runs on share physical
/// cores with other tenants, and each one's speed swings by half or more
/// within seconds as its neighbours come and go. So the run pins its
/// threads (run_cpus), and every timed sample is bracketed by a fixed
/// reference kernel on the CPUs it runs on and scaled by kReferenceMs
/// over the kernel's mean time around it. A time then reads as it would
/// on a host where the kernel takes kReferenceMs (about its median time
/// on the 4-vCPU Xeon VM the benchmark was tuned on): the drift cancels,
/// the program's cost stays.
inline constexpr double kReferenceMs = 0.75;

/// The CPUs a run is pinned to, chosen once from the process's allowed
/// set. The benchmark thread, and the serve thread it starts, run on the
/// first; the two-worker batch runs on the first two. Empty when the
/// platform cannot pin.
const std::vector<int>& run_cpus();
/// Pins the calling thread, and the threads it starts from now on, to
/// the first `n` of run_cpus().
void pin_to_run_cpus(size_t n);
/// Runs the reference kernel once on each of the first `n` run CPUs and
/// returns the mean wall time in ms. Leaves the thread pinned to them.
double reference_ms(size_t n);

/// Runs `fn` with the calling thread pinned to the first `ncpus` run CPUs
/// and returns its duration in reference ms (see kReferenceMs). Leaves
/// the thread on the first run CPU.
template <typename F> double timed_ms(F&& fn, size_t ncpus = 1) {
    const double before = reference_ms(ncpus);
    Clock::time_point t0 = Clock::now();
    fn();
    const double ms = ms_since(t0);
    const double after = reference_ms(ncpus);
    pin_to_run_cpus(1);
    return ms * 2 * kReferenceMs / (before + after);
}

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);

/// Metric values by name; units live in the catalogue below.
class Metrics {
public:
    /// Non-finite values (an empty ratio) are stored as 0.
    void set(const std::string& name, double value);
    [[nodiscard]] bool has(const std::string& name) const {
        return values_.count(name) != 0;
    }
    [[nodiscard]] double get(const std::string& name) const;

private:
    std::map<std::string, double> values_;
};

struct MetricDef {
    std::string name;
    std::string unit;
};

/// End-to-end metrics, printed on every untraced run.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, printed on every traced run.
const std::vector<MetricDef>& per_layer_metrics();

/// Correctness bookkeeping shared by every flow: operations attempted,
/// operations that failed (error, timeout, transport failure), and
/// verdicts that disagree with the known answer.
struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t wrong = 0;
    std::vector<std::string> notes; // first few problems, for stderr

    /// Counts one operation; `ran` false marks it failed.
    void op(bool ran, const std::string& what);
    /// Records a verdict check against the known answer.
    void verdict(bool right, const std::string& what);
};

class Tracer;

/// One measured activity (the cold check, the serve edit loop, the
/// dynamic engines). A workload runs its own flow at full scale and the
/// other two as small probes, so every run reports every metric.
class Flow {
public:
    virtual ~Flow() = default;
    /// Builds the inputs, once before the measured rounds. Set-up is
    /// timed on fresh flows between rounds.
    virtual void setup() = 0;
    /// One measured round. `tr` is null when tracing is off.
    virtual void round(Tracer* tr, Tally& tally) = 0;
    /// Probes that only the traced run makes (timed from outside, never
    /// part of an end-to-end figure).
    virtual void traced_probes(Tracer& tr, Tally& tally) = 0;
    /// End-to-end figures over the rounds run so far.
    virtual void end_to_end(Metrics& out) const = 0;
};

enum class Scale { Full, Probe };

std::unique_ptr<Flow> make_check_flow(Scale scale, uint64_t seed);
std::unique_ptr<Flow> make_serve_flow(Scale scale, uint64_t seed,
                                      const std::string& work_dir);
std::unique_ptr<Flow> make_dynamic_flow(Scale scale, uint64_t seed);

/// Reads a repository hdl/ file; throws when missing.
std::string hdl_source(const std::string& file);

} // namespace perfbench
