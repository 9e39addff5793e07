// Content-addressed on-disk artifact store (`svlc-store/v2`) — the
// persistence layer that makes verification incremental *across*
// processes, not just within one batch. It holds per-job verification
// verdicts, keyed by the job fingerprint (incr/fingerprint.hpp), so an
// unchanged job is answered without parsing a single byte of its
// source. An edited job is re-verified in full.
//
// Layout under the store root (all children of a `v2/` directory so a
// future format can live alongside without a migration):
//
//   <root>/v2/FORMAT               "svlc-store/v2\n" (sanity marker)
//   <root>/v2/verdicts/ab/<fp>     one job record per job fingerprint,
//                                  sharded by the first two hex chars
//
// Retired artifacts are detected by their path and discarded wholesale
// on open() — never misread, and never walked entry by entry as misses:
// a legacy `<root>/v1/` generation, the `<root>/v2/obligations/`
// per-obligation records, and the `<root>/v2/entail.cache` persisted
// entailment cache older builds wrote.
//
// Every file starts with a `svlc-store/v2 <kind>` header and ends with
// an FNV-1a 64 checksum over the preceding bytes. Readers that see a
// missing/short/mismatched header, a bad checksum, or a malformed field
// treat the file as absent: it is counted, deleted, and rebuilt by the
// next write — a corrupt store degrades to a cold one, it never yields
// a wrong verdict and never takes the batch down. All writes go through
// temp-file + atomic rename (support/fsutil.hpp), so a crash mid-flush
// leaves the previous generation intact.
//
// Thread safety: verdict loads/stores may be called concurrently from
// driver workers (distinct files; the shared counters are atomics).
#pragma once

#include "pipeline/compilation.hpp"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace svlc::incr {

inline constexpr const char* kStoreFormat = "svlc-store/v2";
/// The retired pre-obligation schema; rejected wholesale on open().
inline constexpr const char* kLegacyStoreFormat = "svlc-store/v1";

/// What a fingerprint hit replays: exactly the verdict-set fields of a
/// batch-report entry (everything BatchReport::to_json(false) emits),
/// including the per-obligation records of non-proven obligations so a
/// replayed job's report is indistinguishable from a fresh run (timing
/// fields excepted — they are zero on replay and never byte-compared).
struct StoredVerdict {
    bool secure = false; ///< false = rejected (errors/timeouts not stored)
    uint64_t obligations = 0;
    uint64_t failed = 0;
    uint64_t downgrades = 0;
    std::string diagnostics;
    /// Non-proven obligations (id, labels, witness, ...); empty for
    /// secure designs.
    std::vector<pipeline::ObligationRecord> flagged;
};

struct StoreOptions {
    std::string dir;
};

/// Canonical byte serialization of a StoredVerdict — the payload of a
/// verdict file (store header/checksum excluded). Deterministic: equal
/// verdicts encode to equal bytes.
std::string encode_stored_verdict(const StoredVerdict& v);
/// Inverse of encode_stored_verdict. False on any malformation, including
/// fields that contradict each other: a secure verdict with failures,
/// more failures than obligations, a flagged-record count other than
/// `failed`, or a record whose status is not refuted/unknown or whose
/// kind is not com/seq/hold (fails closed, like every other store reader).
bool decode_stored_verdict(const std::string& payload, StoredVerdict& out);

class ArtifactStore {
public:
    struct Stats {
        uint64_t verdict_hits = 0;
        uint64_t verdict_misses = 0;
        uint64_t verdict_stores = 0;
        /// Corrupt or version-mismatched files discarded (and deleted).
        uint64_t corrupt_discarded = 0;
        /// Retired artifacts (`v1/`, `v2/obligations/`,
        /// `v2/entail.cache`) discarded on open().
        uint64_t legacy_discarded = 0;
    };

    explicit ArtifactStore(StoreOptions opts);

    /// Creates the layout (and FORMAT marker) if needed; discards an
    /// incompatible existing store. False only for hard I/O failures
    /// (unwritable directory), with `error` set.
    bool open(std::string& error);

    /// nullopt on miss *or* on a corrupt record (which is deleted).
    std::optional<StoredVerdict> load_verdict(const std::string& fp);
    bool store_verdict(const std::string& fp, const StoredVerdict& v);

    [[nodiscard]] Stats stats() const;
    [[nodiscard]] const std::string& dir() const { return opts_.dir; }

private:
    std::string verdict_path(const std::string& fp) const;
    /// Reads a store file, validates header + checksum; empty optional →
    /// missing or discarded-as-corrupt (counted & deleted).
    std::optional<std::string> read_payload(const std::string& path,
                                            const char* kind);
    bool write_payload(const std::string& path, const char* kind,
                       const std::string& payload);
    void discard(const std::string& path);

    StoreOptions opts_;
    std::atomic<uint64_t> verdict_hits_{0};
    std::atomic<uint64_t> verdict_misses_{0};
    std::atomic<uint64_t> verdict_stores_{0};
    std::atomic<uint64_t> corrupt_discarded_{0};
    std::atomic<uint64_t> legacy_discarded_{0};
};

} // namespace svlc::incr
