// Backend differential harness: the self-check behind the production
// solver. The cdcl backend must produce verification verdicts identical
// to the enum reference on every design — status, per-obligation
// records, witnesses, everything in the stable report subset.
// `svlc diff-backends`, the fuzzer's backend-diff oracle and CI run this
// two-way (enum vs cdcl); any diff fails the build.
#include "driver/driver.hpp"

#include <string>

namespace svlc::driver {

namespace {

std::string witness_str(const pipeline::ObligationRecord& rec) {
    std::string out;
    for (const auto& b : rec.witness) {
        out += b.net;
        if (b.primed)
            out += '\'';
        out += '=';
        out += std::to_string(b.value);
        out += ' ';
    }
    return out;
}

void diff_job(const JobResult& e, const JobResult& o,
              const std::string& backend, std::vector<BackendDiff>& out) {
    auto add = [&](const std::string& field, std::string ev, std::string ov) {
        out.push_back({e.name, field, backend, std::move(ev), std::move(ov)});
    };
    if (e.status != o.status) {
        add("status", job_status_name(e.status), job_status_name(o.status));
        return; // per-obligation comparison is meaningless across statuses
    }
    if (e.obligations != o.obligations)
        add("obligations", std::to_string(e.obligations),
            std::to_string(o.obligations));
    if (e.failed != o.failed)
        add("failed", std::to_string(e.failed), std::to_string(o.failed));
    if (e.flagged.size() != o.flagged.size()) {
        add("flagged", std::to_string(e.flagged.size()),
            std::to_string(o.flagged.size()));
        return;
    }
    for (size_t i = 0; i < e.flagged.size(); ++i) {
        const auto& er = e.flagged[i];
        const auto& orr = o.flagged[i];
        if (er.id != orr.id) {
            add("flagged[" + std::to_string(i) + "].id", er.id, orr.id);
            continue;
        }
        if (er.status != orr.status)
            add(er.id, er.status, orr.status);
        if (er.detail != orr.detail)
            add(er.id + ".detail", er.detail, orr.detail);
        std::string ew = witness_str(er), ow = witness_str(orr);
        if (ew != ow)
            add(er.id + ".witness", ew, ow);
    }
}

} // namespace

std::vector<BackendDiff> diff_backends(const std::vector<JobSpec>& jobs,
                                       const DriverOptions& base) {
    DriverOptions opts = base;
    opts.store_dir.clear(); // never replay one backend's run as another's

    opts.check.solver.backend = solver::BackendKind::Enum;
    BatchReport enum_report = VerificationDriver(opts).run(jobs);
    opts.check.solver.backend = solver::BackendKind::Cdcl;
    BatchReport cdcl_report = VerificationDriver(opts).run(jobs);

    std::vector<BackendDiff> diffs;
    const std::string backend = solver::backend_id(opts.check.solver.backend);
    for (size_t i = 0; i < jobs.size(); ++i)
        diff_job(enum_report.results[i], cdcl_report.results[i], backend,
                 diffs);
    return diffs;
}

} // namespace svlc::driver
