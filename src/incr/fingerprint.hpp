// Job fingerprints for the persistent verification store.
//
// A fingerprint is a SHA-256 over everything the verification verdict of
// one job can depend on:
//
//   tool version ⊔ job name ⊔ top override ⊔ checker mode + hold flag
//   ⊔ enumeration budget ⊔ source bytes
//
// The security policy (lattice + label-function tables) is part of the
// .svlc source text, so hashing the source bytes covers its
// serialization without having to parse the design first — the whole
// point of a fingerprint hit is to skip the front end entirely. The job
// *name* participates because rendered diagnostics embed it; two
// identical sources under different names must not replay each other's
// rejection text. The per-job deadline deliberately does NOT participate:
// timed-out verdicts are never persisted, so a stored verdict is valid
// under any deadline.
#pragma once

#include "check/typecheck.hpp"

#include <string>

namespace svlc::incr {

/// Bumped whenever a behaviour change invalidates stored verdicts
/// (solver semantics, diagnostics rendering, fingerprint layout).
inline constexpr const char* kToolVersion = "svlc-0.6.0";

/// Canonical serialization of the checker configuration (mode, hold
/// obligations, full enumeration budget). Shared by the fingerprint and
/// by tests asserting invalidation behaviour.
std::string check_options_fingerprint(const check::CheckOptions& opts);

/// 64 lowercase hex chars; the verdict store's content address.
std::string job_fingerprint(const std::string& name,
                            const std::string& source,
                            const std::string& top,
                            const check::CheckOptions& opts);

} // namespace svlc::incr
