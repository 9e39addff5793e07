// Content-addressed on-disk artifact store (`svlc-store/v2`) — the
// persistence layer that makes verification incremental *across*
// processes, not just within one batch:
//
//   (a) per-job verification verdicts, keyed by the job fingerprint
//       (incr/fingerprint.hpp), so an unchanged job is answered without
//       parsing a single byte of its source;
//   (b) the memoizing entailment cache (Proven entries only, the
//       existing canonical full-text keys), loaded at batch start and
//       merged/compacted at batch end.
//
// An edited job is re-verified in full; the entailment cache (b) still
// answers its unchanged Proven queries.
//
// Layout under the store root (all children of a `v2/` directory so a
// future format can live alongside without a migration):
//
//   <root>/v2/FORMAT               "svlc-store/v2\n" (sanity marker)
//   <root>/v2/verdicts/ab/<fp>     one job record per job fingerprint,
//                                  sharded by the first two hex chars
//   <root>/v2/entail.cache         serialized Proven entries, oldest first
//
// Retired trees are detected by their directory and discarded wholesale
// on open() — rebuilt, never misread, and never walked entry by entry as
// misses: a legacy `<root>/v1/` generation, and the `<root>/v2/obligations/`
// per-obligation records older builds wrote.
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
// driver workers (distinct files; the shared counters are atomics). load_entail/flush_entail are batch-scoped and must be
// called from one thread at a time.
#pragma once

#include "pipeline/compilation.hpp"
#include "solver/entail_cache.hpp"

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
    /// Maximum Proven entries kept in entail.cache after a flush; the
    /// oldest entries (earliest in file order) are evicted first.
    size_t entail_budget = size_t{1} << 16;
};

/// Canonical byte serialization of a StoredVerdict — the payload of a
/// verdict file (store header/checksum excluded). Deterministic: equal
/// verdicts encode to equal bytes.
std::string encode_stored_verdict(const StoredVerdict& v);
/// Inverse of encode_stored_verdict. False on any malformation (fails
/// closed, like every other store reader).
bool decode_stored_verdict(const std::string& payload, StoredVerdict& out);

class ArtifactStore {
public:
    struct Stats {
        uint64_t verdict_hits = 0;
        uint64_t verdict_misses = 0;
        uint64_t verdict_stores = 0;
        uint64_t entail_loaded = 0;
        uint64_t entail_flushed = 0;
        uint64_t entail_evicted = 0;
        /// Corrupt or version-mismatched files discarded (and deleted).
        uint64_t corrupt_discarded = 0;
        /// Whole retired trees (`v1/`, `v2/obligations/`) discarded on
        /// open().
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

    /// Inserts every persisted Proven entry into `cache`. Returns the
    /// number loaded; 0 (after discarding) when the file is corrupt.
    size_t load_entail(solver::EntailCache& cache);
    /// Merges `cache`'s current entries into the on-disk file: existing
    /// file order is preserved (oldest first), unseen keys append at the
    /// tail, and the front is dropped once past the entry budget.
    /// Returns the number of entries written.
    size_t flush_entail(const solver::EntailCache& cache);

    [[nodiscard]] Stats stats() const;
    [[nodiscard]] const std::string& dir() const { return opts_.dir; }

private:
    std::string verdict_path(const std::string& fp) const;
    std::string entail_path() const;
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
    std::atomic<uint64_t> entail_loaded_{0};
    std::atomic<uint64_t> entail_flushed_{0};
    std::atomic<uint64_t> entail_evicted_{0};
    std::atomic<uint64_t> corrupt_discarded_{0};
    std::atomic<uint64_t> legacy_discarded_{0};
};

} // namespace svlc::incr
