#include "incr/fingerprint.hpp"

#include "support/hash.hpp"

#include <cstdio>

namespace svlc::incr {

std::string check_options_fingerprint(const check::CheckOptions& opts) {
    char buf[144];
    // The backend id is part of the fingerprint: backends are
    // verdict-equivalent by contract, but cached verdicts must never
    // cross backends, so switching --solver re-verifies.
    std::snprintf(buf, sizeof buf, "m%d,h%d|o:%u,%llu,%zu,%d,%d%d%d|b:%s",
                  static_cast<int>(opts.mode), opts.hold_obligations,
                  opts.solver.max_enum_width,
                  static_cast<unsigned long long>(opts.solver.max_candidates),
                  opts.solver.max_enum_vars, opts.solver.closure_depth,
                  opts.solver.use_equations, opts.solver.use_primed_equations,
                  opts.solver.use_com_equations,
                  solver::backend_id(opts.solver.backend));
    return buf;
}

std::string job_fingerprint(const std::string& name,
                            const std::string& source,
                            const std::string& top,
                            const check::CheckOptions& opts) {
    Sha256 h;
    // NUL separators make the encoding injective for the non-source
    // fields (none of them can contain NUL); the source goes last and
    // unframed so its bytes need no escaping.
    h.update(kToolVersion);
    h.update("\0", 1);
    h.update(name);
    h.update("\0", 1);
    h.update(top);
    h.update("\0", 1);
    h.update(check_options_fingerprint(opts));
    h.update("\0", 1);
    h.update(source);
    return h.hex_digest();
}

} // namespace svlc::incr
