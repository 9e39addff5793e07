// Persistent incremental verification (src/incr): fingerprint
// definition, verdict round-trips, corruption recovery, retired-artifact
// discards, and the driver
// integration (fingerprint skips, single-job invalidation, byte-identical
// verdict sets).
#include "incr/fingerprint.hpp"
#include "incr/store.hpp"

#include "driver/driver.hpp"
#include "support/fsutil.hpp"
#include "support/hash.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

namespace svlc::test {
namespace {

namespace fs = std::filesystem;
using driver::BatchReport;
using driver::DriverOptions;
using driver::JobSpec;
using driver::JobStatus;
using driver::VerificationDriver;
using incr::ArtifactStore;
using incr::StoredVerdict;
using incr::StoreOptions;

const char* kSecure = R"(
lattice { level T; level U; flow T -> U; }
module ok(input com {T} a, output com {T} b);
  assign b = a;
endmodule
)";

const char* kRejected = R"(
lattice { level T; level U; flow T -> U; }
module bad(input com {U} dirty);
  reg seq {T} creg;
  always @(seq) begin
    creg <= dirty;
  end
endmodule
)";

// A design whose obligations hit the enumeration path, so Proven entries
// land in the entailment cache (domain >= 8).
const char* kModeSwitch = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module m(input com {T} rst,
         input com [15:0] {T} decode_out,
         input com [15:0] {U} epc_in);
  wire com {T} mode_switch;
  reg seq [15:0] {U} epc;
  reg seq {T} mode;
  reg seq [15:0] {mode_to_lb(mode)} pc;
  assign mode_switch = decode_out[4];
  always @(seq) begin
    if (rst) pc <= 16'b0;
    else if (mode_switch && (next(mode) == 1'b0)) pc <= 16'h8000;
    else if (mode_switch) pc <= epc;
  end
  always @(seq) begin
    if (mode_switch) mode <= ~mode;
  end
  always @(seq) begin
    epc <= epc_in;
  end
endmodule
)";

/// A rejected verdict whose failed obligations each have one flagged
/// record, as the driver stores them.
StoredVerdict rejected_verdict(uint64_t obligations, uint64_t failed) {
    StoredVerdict v;
    v.obligations = obligations;
    v.failed = failed;
    for (uint64_t i = 0; i < failed; ++i) {
        pipeline::ObligationRecord rec;
        rec.id = "m:r:seq:" + std::to_string(i);
        rec.kind = "seq";
        rec.status = "refuted";
        v.flagged.push_back(std::move(rec));
    }
    return v;
}

/// Verdicts whose fields contradict each other, each built from a
/// consistent one by changing one field, with what was changed.
std::vector<std::pair<StoredVerdict, std::string>> contradictory_verdicts() {
    std::vector<std::pair<StoredVerdict, std::string>> out;
    auto add = [&](const std::string& what, auto&& mutate) {
        StoredVerdict v = rejected_verdict(5, 1);
        mutate(v);
        out.emplace_back(std::move(v), what);
    };
    add("secure with a failure", [](StoredVerdict& v) { v.secure = true; });
    add("secure with a flagged record", [](StoredVerdict& v) {
        v.secure = true;
        v.failed = 0;
    });
    add("more failures than obligations", [](StoredVerdict& v) {
        v = rejected_verdict(5, 9);
    });
    add("fewer flagged records than failures",
        [](StoredVerdict& v) { v.failed = 2; });
    add("more flagged records than failures",
        [](StoredVerdict& v) { v.flagged.push_back(v.flagged.back()); });
    add("no flagged record", [](StoredVerdict& v) { v.flagged.clear(); });
    add("proven record", [](StoredVerdict& v) {
        v.flagged[0].status = "proven";
    });
    add("record without a status",
        [](StoredVerdict& v) { v.flagged[0].status.clear(); });
    add("record of an unknown kind",
        [](StoredVerdict& v) { v.flagged[0].kind = "wire"; });
    add("record without a kind",
        [](StoredVerdict& v) { v.flagged[0].kind.clear(); });
    return out;
}

class IncrTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Keyed by test name, not a counter: ctest runs each test in its
        // own process, where any per-process counter restarts at zero
        // and parallel tests would collide on the same directory.
        dir_ = fs::temp_directory_path() /
               (std::string("svlc_incr_test_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::error_code ec;
        fs::remove_all(dir_, ec);
        fs::create_directories(dir_);
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string store_dir() const { return (dir_ / "store").string(); }
    std::string write(const fs::path& rel, const std::string& text) {
        fs::path p = dir_ / rel;
        std::ofstream out(p);
        out << text;
        return p.string();
    }
    fs::path dir_;
};

// --- hashing / fingerprints ------------------------------------------------

TEST(IncrHash, Sha256KnownVectors) {
    EXPECT_EQ(sha256_hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855");
    EXPECT_EQ(sha256_hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
    // FIPS 180-4 multi-block vectors: 448 bits, 896 bits, one million 'a'.
    EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomn"
                         "opnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
              "19db06c1");
    EXPECT_EQ(sha256_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmgh"
                         "ijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnop"
                         "qrstnopqrstu"),
              "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac4503"
              "7afee9d1");
    const std::string million(1000000, 'a');
    const char* million_digest = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48"
                                 "a497200e046d39ccc7112cd0";
    EXPECT_EQ(sha256_hex(million), million_digest);
    // Uneven chunks straddle the 64-byte block boundary every way.
    Sha256 h;
    const size_t chunks[] = {1, 63, 64, 65, 1000};
    for (size_t at = 0, i = 0; at < million.size(); ++i) {
        size_t n = std::min(chunks[i % 5], million.size() - at);
        h.update(million.data() + at, n);
        at += n;
    }
    EXPECT_EQ(h.hex_digest(), million_digest);
}

TEST(IncrFingerprint, IsSha256OfTheDocumentedRecipe) {
    // docs/INCREMENTAL.md: SHA-256(tool_version \0 job_name \0 top_module
    // \0 check_options_fingerprint \0 source_bytes).
    check::CheckOptions opts;
    opts.mode = check::CheckerMode::ClassicSecVerilog;
    std::string recipe = std::string(incr::kToolVersion) + '\0' + "a.svlc" +
                         '\0' + "top" + '\0' +
                         incr::check_options_fingerprint(opts) + '\0' +
                         kSecure;
    EXPECT_EQ(incr::job_fingerprint("a.svlc", kSecure, "top", opts),
              sha256_hex(recipe));
}

TEST(IncrFingerprint, SensitiveToEveryVerdictInput) {
    check::CheckOptions opts;
    std::string base = incr::job_fingerprint("a.svlc", kSecure, "", opts);
    EXPECT_EQ(base.size(), 64u);

    EXPECT_EQ(base, incr::job_fingerprint("a.svlc", kSecure, "", opts));
    EXPECT_NE(base, incr::job_fingerprint("b.svlc", kSecure, "", opts));
    EXPECT_NE(base,
              incr::job_fingerprint("a.svlc", kRejected, "", opts));
    EXPECT_NE(base, incr::job_fingerprint("a.svlc", kSecure, "ok", opts));

    check::CheckOptions classic;
    classic.mode = check::CheckerMode::ClassicSecVerilog;
    EXPECT_NE(base, incr::job_fingerprint("a.svlc", kSecure, "", classic));

    check::CheckOptions budget;
    budget.solver.max_candidates = 42;
    EXPECT_NE(base, incr::job_fingerprint("a.svlc", kSecure, "", budget));

    // The deadline is NOT part of the fingerprint: stored verdicts are
    // deadline-independent (timeouts are never stored).
    check::CheckOptions deadline = opts;
    deadline.solver.deadline =
        std::chrono::steady_clock::now() + std::chrono::hours(1);
    EXPECT_EQ(base,
              incr::job_fingerprint("a.svlc", kSecure, "", deadline));
}

// --- verdict store ---------------------------------------------------------

TEST_F(IncrTest, VerdictRoundTrip) {
    ArtifactStore store({store_dir()});
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;

    std::string fp = sha256_hex("some job");
    EXPECT_FALSE(store.load_verdict(fp).has_value());

    StoredVerdict v = rejected_verdict(7, 2);
    v.downgrades = 1;
    v.diagnostics = "line one\nline \"two\" with bytes \x01\x02\n";
    ASSERT_TRUE(store.store_verdict(fp, v));

    auto got = store.load_verdict(fp);
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(got->secure);
    EXPECT_EQ(got->obligations, 7u);
    EXPECT_EQ(got->failed, 2u);
    EXPECT_EQ(got->downgrades, 1u);
    EXPECT_EQ(got->diagnostics, v.diagnostics);

    auto s = store.stats();
    EXPECT_EQ(s.verdict_hits, 1u);
    EXPECT_EQ(s.verdict_misses, 1u);
    EXPECT_EQ(s.verdict_stores, 1u);
    EXPECT_EQ(s.corrupt_discarded, 0u);

    // Reopening (fresh process) sees the same record.
    ArtifactStore reopened({store_dir()});
    ASSERT_TRUE(reopened.open(error)) << error;
    ASSERT_TRUE(reopened.load_verdict(fp).has_value());
}

TEST_F(IncrTest, CorruptVerdictIsDiscardedNotReplayed) {
    ArtifactStore store({store_dir()});
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;

    std::string fp = sha256_hex("doomed");
    fs::path file =
        fs::path(store_dir()) / "v2" / "verdicts" / fp.substr(0, 2) / fp;
    StoredVerdict v;
    v.secure = false;
    v.obligations = 3;
    v.failed = 1;
    v.diagnostics = "error: flow violation\n";
    pipeline::ObligationRecord rec;
    rec.id = "m.r#0";
    rec.kind = "seq";
    rec.status = "refuted";
    rec.witness.push_back({"mode", true, 1});
    v.flagged.push_back(rec);
    ASSERT_TRUE(store.store_verdict(fp, v));
    std::string valid;
    ASSERT_TRUE(read_file(file.string(), valid));
    ASSERT_FALSE(valid.empty());

    // Every damaged variant of a valid record — each proper prefix and
    // each single-byte flip — fails closed: a miss, one corrupt discard,
    // and the file is gone.
    auto expect_discarded = [&](const std::string& bytes,
                                const std::string& what) {
        ASSERT_TRUE(write_file_atomic(file.string(), bytes)) << what;
        uint64_t before = store.stats().corrupt_discarded;
        EXPECT_FALSE(store.load_verdict(fp).has_value()) << what;
        EXPECT_EQ(store.stats().corrupt_discarded, before + 1) << what;
        EXPECT_FALSE(fs::exists(file)) << what;
    };
    for (size_t len = 0; len < valid.size(); ++len)
        expect_discarded(valid.substr(0, len),
                         "truncated to " + std::to_string(len));
    for (size_t i = 0; i < valid.size(); ++i) {
        std::string flipped = valid;
        flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
        expect_discarded(flipped, "byte " + std::to_string(i) + " flipped");
    }

    // The intact record still replays.
    ASSERT_TRUE(write_file_atomic(file.string(), valid));
    auto got = store.load_verdict(fp);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(incr::encode_stored_verdict(*got),
              incr::encode_stored_verdict(v));
}

TEST_F(IncrTest, ContradictoryVerdictIsDiscardedAndTheJobVerifiesAgain) {
    std::string b = write("b.svlc", kRejected);
    std::vector<JobSpec> jobs = {{b, b, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();
    BatchReport cold = VerificationDriver(opts).run(jobs);
    ASSERT_EQ(cold.results.size(), 1u);
    ASSERT_EQ(cold.results[0].status, JobStatus::Rejected);
    std::string fp = cold.results[0].fingerprint;
    ASSERT_FALSE(fp.empty());
    fs::path file =
        fs::path(store_dir()) / "v2" / "verdicts" / fp.substr(0, 2) / fp;

    // Each contradictory record has a valid header and checksum, yet
    // loads as a miss, counts one discard and is deleted.
    ArtifactStore store({store_dir()});
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    auto valid = store.load_verdict(fp);
    ASSERT_TRUE(valid.has_value());
    uint64_t discarded = 0;
    for (const auto& [v, what] : contradictory_verdicts()) {
        ASSERT_TRUE(store.store_verdict(fp, v)) << what;
        EXPECT_FALSE(store.load_verdict(fp).has_value()) << what;
        EXPECT_EQ(store.stats().corrupt_discarded, ++discarded) << what;
        EXPECT_FALSE(fs::exists(file)) << what;
    }

    // The stored verdict of the rejected job, turned secure: the driver
    // discards it and verifies the job again, rejecting it as before.
    StoredVerdict forged = *valid;
    forged.secure = true;
    ASSERT_TRUE(store.store_verdict(fp, forged));
    BatchReport warm = VerificationDriver(opts).run(jobs);
    EXPECT_EQ(warm.skipped_count(), 0u);
    EXPECT_EQ(warm.store.corrupt_discarded, 1u);
    EXPECT_EQ(warm.results[0].status, JobStatus::Rejected);
    EXPECT_EQ(cold.to_json(false), warm.to_json(false));
    // Verifying again wrote a sound record, which the next run replays.
    BatchReport again = VerificationDriver(opts).run(jobs);
    EXPECT_EQ(again.skipped_count(), 1u);
    EXPECT_EQ(again.store.corrupt_discarded, 0u);
    EXPECT_EQ(cold.to_json(false), again.to_json(false));
}

TEST_F(IncrTest, VersionMismatchedStoreIsRebuilt) {
    ArtifactStore store({store_dir()});
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    std::string fp = sha256_hex("old generation");
    ASSERT_TRUE(store.store_verdict(fp, {}));

    ASSERT_TRUE(write_file_atomic(
        (fs::path(store_dir()) / "v2" / "FORMAT").string(),
        "svlc-store/v999\n"));

    ArtifactStore next({store_dir()});
    ASSERT_TRUE(next.open(error)) << error;
    EXPECT_EQ(next.stats().corrupt_discarded, 1u);
    EXPECT_FALSE(next.load_verdict(fp).has_value()); // wiped, not misread
    // And the store is usable again immediately.
    ASSERT_TRUE(next.store_verdict(fp, {}));
    EXPECT_TRUE(next.load_verdict(fp).has_value());
}

// --- store codec -----------------------------------------------------------

TEST(IncrCodec, StoredVerdictRoundTripsAndFailsClosed) {
    StoredVerdict v = rejected_verdict(11, 3);
    v.downgrades = 2;
    v.diagnostics = "multi\nline \x01 bytes";
    std::string payload = incr::encode_stored_verdict(v);

    StoredVerdict out;
    ASSERT_TRUE(incr::decode_stored_verdict(payload, out));
    EXPECT_EQ(out.secure, v.secure);
    EXPECT_EQ(out.obligations, v.obligations);
    EXPECT_EQ(out.failed, v.failed);
    EXPECT_EQ(out.downgrades, v.downgrades);
    EXPECT_EQ(out.diagnostics, v.diagnostics);
    // Equal verdicts encode to equal bytes.
    EXPECT_EQ(payload, incr::encode_stored_verdict(out));

    // Truncation and trailing garbage both fail closed.
    EXPECT_FALSE(incr::decode_stored_verdict(
        payload.substr(0, payload.size() / 2), out));
    EXPECT_FALSE(incr::decode_stored_verdict(payload + "extra", out));
    EXPECT_FALSE(incr::decode_stored_verdict("", out));
}

TEST(IncrCodec, ContradictoryFieldsFailClosed) {
    StoredVerdict out;
    for (StoredVerdict secure : {StoredVerdict{}, rejected_verdict(5, 0)}) {
        secure.secure = true;
        EXPECT_TRUE(incr::decode_stored_verdict(
            incr::encode_stored_verdict(secure), out));
    }
    for (const char* kind : {"com", "seq", "hold"})
        for (const char* status : {"refuted", "unknown"}) {
            StoredVerdict v = rejected_verdict(5, 1);
            v.flagged[0].kind = kind;
            v.flagged[0].status = status;
            EXPECT_TRUE(incr::decode_stored_verdict(
                incr::encode_stored_verdict(v), out))
                << kind << " " << status;
        }
    for (const auto& [v, what] : contradictory_verdicts()) {
        out = rejected_verdict(3, 3);
        EXPECT_FALSE(incr::decode_stored_verdict(
            incr::encode_stored_verdict(v), out))
            << what;
        // A failed decode leaves the output alone.
        EXPECT_EQ(out.failed, 3u) << what;
    }
}

TEST_F(IncrTest, LegacyV1StoreIsDiscardedWholesale) {
    // A committed v1-generation store (the pre-obligation schema): opening
    // it must discard the whole v1/ tree in one step — no entry is ever
    // read through the old framing — and rebuild under v2/.
    fs::path fixture = fs::path(SVLC_FIXTURE_DIR) / "store_v1";
    ASSERT_TRUE(fs::exists(fixture / "v1" / "FORMAT"));
    fs::copy(fixture, dir_ / "store", fs::copy_options::recursive);
    ASSERT_TRUE(fs::exists(fs::path(store_dir()) / "v1" / "FORMAT"));

    ArtifactStore store({store_dir()});
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    EXPECT_EQ(store.stats().legacy_discarded, 1u);
    EXPECT_FALSE(fs::exists(fs::path(store_dir()) / "v1"));
    EXPECT_TRUE(fs::exists(fs::path(store_dir()) / "v2" / "FORMAT"));

    // The rebuilt store is immediately usable, and nothing leaked from
    // the discarded generation.
    EXPECT_TRUE(fs::is_empty(fs::path(store_dir()) / "v2" / "verdicts"));
    std::string fp = sha256_hex("fresh");
    ASSERT_TRUE(store.store_verdict(fp, {}));
    EXPECT_TRUE(store.load_verdict(fp).has_value());

    // A second open is clean: no v1/ left, no second discard.
    ArtifactStore again({store_dir()});
    ASSERT_TRUE(again.open(error)) << error;
    EXPECT_EQ(again.stats().legacy_discarded, 0u);
}

TEST_F(IncrTest, RetiredObligationTreeIsDiscardedAndJobsStillWarmSkip) {
    // A store written by a build that also kept per-obligation records
    // under v2/obligations/: the job records are still valid, so every
    // job warm-skips, and the retired tree is removed wholesale on
    // open().
    std::string a = write("a.svlc", kSecure);
    std::string b = write("b.svlc", kRejected);
    std::vector<JobSpec> jobs = {{a, a, "", "", 0}, {b, b, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();
    BatchReport cold = VerificationDriver(opts).run(jobs);
    ASSERT_EQ(cold.skipped_count(), 0u);

    fs::path shard = fs::path(store_dir()) / "v2" / "obligations" / "ab";
    fs::create_directories(shard);
    std::ofstream(shard / sha256_hex("obligation")) << "svlc-store/v2 "
                                                       "obligation\n";

    VerificationDriver drv(opts);
    ASSERT_NE(drv.store(), nullptr);
    EXPECT_FALSE(fs::exists(fs::path(store_dir()) / "v2" / "obligations"));
    BatchReport warm = drv.run(jobs);
    EXPECT_EQ(warm.skipped_count(), jobs.size());
    EXPECT_EQ(warm.store.legacy_discarded, 1u);
    EXPECT_EQ(warm.store.corrupt_discarded, 0u);
    EXPECT_EQ(cold.to_json(false), warm.to_json(false));
}

TEST_F(IncrTest, RetiredEntailCacheIsRemovedAndJobsStillWarmSkip) {
    // Older builds also persisted the entailment cache as v2/entail.cache.
    // The store now holds job verdicts only: opening removes the file as
    // a retired artifact, and every job still warm-skips.
    std::string a = write("a.svlc", kSecure);
    std::string b = write("b.svlc", kRejected);
    std::vector<JobSpec> jobs = {{a, a, "", "", 0}, {b, b, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();
    BatchReport cold = VerificationDriver(opts).run(jobs);
    ASSERT_EQ(cold.skipped_count(), 0u);

    fs::path entail = fs::path(store_dir()) / "v2" / "entail.cache";
    std::ofstream(entail) << "svlc-store/v2 entail\ncount 1\n5 64\nkey-1\n"
                             "sum 0000000000000000\n";
    ASSERT_TRUE(fs::exists(entail));

    VerificationDriver drv(opts);
    ASSERT_NE(drv.store(), nullptr);
    EXPECT_FALSE(fs::exists(entail));
    BatchReport warm = drv.run(jobs);
    EXPECT_EQ(warm.skipped_count(), jobs.size());
    EXPECT_EQ(warm.store.legacy_discarded, 1u);
    EXPECT_EQ(warm.store.corrupt_discarded, 0u);
    EXPECT_EQ(cold.to_json(false), warm.to_json(false));
}

// --- edits against a populated store ---------------------------------------

/// Two-slice design: `who`'s obligations depend only on {handoff, who};
/// `count`'s read u_step.
const char* kSliced = R"(
lattice { level T; level U; flow T -> U; }
function owner(x:1) { 0 -> T; default -> U; }
module shared(input com {T} handoff,
              input com [7:0] {U} u_step,
              output com [7:0] {U} value);
  reg seq {T} who;
  reg seq [7:0] {owner(who)} count;
  assign value = count;
  always @(seq) begin
    if (handoff) who <= ~who;
  end
  always @(seq) begin
    if (handoff && (who == 1'b1) && (next(who) == 1'b0))
      count <= 8'h00;
    else if (who == 1'b1)
      count <= count + u_step;
    else
      count <= count + 8'h01;
  end
endmodule
)";

/// Runs `jobs` against the populated store and with no store at all, and
/// expects the edited job to be re-verified (not skipped) with a stable
/// report byte-identical to the storeless one.
BatchReport expect_store_matches_storeless(const DriverOptions& stored,
                                           const std::vector<JobSpec>& jobs) {
    BatchReport warm = VerificationDriver(stored).run(jobs);
    BatchReport fresh = VerificationDriver(DriverOptions{}).run(jobs);
    EXPECT_EQ(warm.skipped_count(), 0u);
    EXPECT_EQ(warm.to_json(false), fresh.to_json(false));
    EXPECT_EQ(warm.summary(), fresh.summary());
    return warm;
}

TEST_F(IncrTest, WhitespaceEditStoreReportMatchesStoreless) {
    std::string path = write("a.svlc", kSliced);
    std::vector<JobSpec> jobs = {{path, path, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();
    BatchReport cold = VerificationDriver(opts).run(jobs);
    ASSERT_EQ(cold.results[0].status, JobStatus::Secure);

    // Comment + whitespace edit: the job fingerprint misses (bytes
    // changed), so the job re-verifies to the same verdict.
    write("a.svlc", "// an explanatory comment\n\n" + std::string(kSliced) +
                        "\n\n");
    BatchReport warm = expect_store_matches_storeless(opts, jobs);
    EXPECT_EQ(warm.results[0].status, JobStatus::Secure);
    EXPECT_EQ(warm.results[0].obligations, cold.results[0].obligations);
}

TEST_F(IncrTest, OneNetLabelEditStoreReportMatchesStoreless) {
    std::string path = write("a.svlc", kSliced);
    std::vector<JobSpec> jobs = {{path, path, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();
    BatchReport cold = VerificationDriver(opts).run(jobs);
    ASSERT_GT(cold.results[0].obligations, 1u);

    // One-net label edit: u_step {U} -> {T} (T flows to U, still secure).
    std::string edited(kSliced);
    size_t pos = edited.find("{U} u_step");
    ASSERT_NE(pos, std::string::npos);
    edited.replace(pos, 3, "{T}");
    write("a.svlc", edited);

    BatchReport warm = expect_store_matches_storeless(opts, jobs);
    EXPECT_EQ(warm.results[0].status, JobStatus::Secure);
    EXPECT_EQ(warm.results[0].obligations, cold.results[0].obligations);
}

/// Rejected with a *bound* counterexample: U ⊑ lb(sel) is refuted at
/// sel=0, so the report carries a witness binding.
const char* kRejectedWitness = R"(
lattice { level T; level U; flow T -> U; }
function lb(x:1) { 0 -> T; default -> U; }
module bad(input com {U} dirty, input com {T} sel);
  reg seq {lb(sel)} creg;
  always @(seq) begin
    creg <= dirty;
  end
endmodule
)";

TEST_F(IncrTest, JobRenameStoreReportMatchesStoreless) {
    // The job fingerprint embeds the name (rendered diagnostics do), so a
    // rename re-verifies and renders diagnostics under the new name.
    std::string old_path = write("old.svlc", kRejectedWitness);
    DriverOptions opts;
    opts.store_dir = store_dir();
    BatchReport cold =
        VerificationDriver(opts).run({{old_path, old_path, "", "", 0}});
    ASSERT_EQ(cold.results[0].status, JobStatus::Rejected);
    ASSERT_GT(cold.results[0].failed, 0u);

    std::string new_path = write("renamed.svlc", kRejectedWitness);
    std::vector<JobSpec> renamed = {{new_path, new_path, "", "", 0}};
    BatchReport warm = expect_store_matches_storeless(opts, renamed);
    EXPECT_EQ(warm.results[0].status, JobStatus::Rejected);
    EXPECT_NE(warm.results[0].diagnostics.find("renamed.svlc"),
              std::string::npos);
    EXPECT_EQ(warm.results[0].diagnostics.find("old.svlc"),
              std::string::npos);
    ASSERT_FALSE(warm.results[0].flagged.empty());
    EXPECT_FALSE(warm.results[0].flagged[0].witness.empty());
}

// --- driver integration ----------------------------------------------------

TEST_F(IncrTest, SecondRunSkipsEverythingWithIdenticalVerdicts) {
    std::string a = write("a.svlc", kSecure);
    std::string b = write("b.svlc", kRejected);
    std::string c = write("c.svlc", kModeSwitch);
    std::vector<JobSpec> jobs = {{a, a, "", "", 0},
                                 {b, b, "", "", 0},
                                 {c, c, "", "", 0}};

    DriverOptions opts;
    opts.store_dir = store_dir();
    VerificationDriver cold(opts);
    BatchReport r1 = cold.run(jobs);
    EXPECT_EQ(r1.skipped_count(), 0u);
    EXPECT_TRUE(r1.store_enabled);
    EXPECT_EQ(r1.store.verdict_stores, 3u);
    ASSERT_EQ(r1.results.size(), 3u);
    EXPECT_EQ(r1.results[0].status, JobStatus::Secure);
    EXPECT_EQ(r1.results[1].status, JobStatus::Rejected);
    EXPECT_EQ(r1.results[2].status, JobStatus::Secure);
    EXPECT_EQ(r1.results[0].fingerprint.size(), 64u);

    // Fresh driver = fresh process: every job replays from the store.
    VerificationDriver warm(opts);
    BatchReport r2 = warm.run(jobs);
    EXPECT_EQ(r2.skipped_count(), 3u);
    EXPECT_EQ(r2.store.verdict_hits, 3u);
    for (const auto& r : r2.results) {
        EXPECT_TRUE(r.skipped);
        EXPECT_EQ(r.attempts, 0);
        EXPECT_EQ(r.solver.queries, 0u); // pipeline never ran
    }
    // The verdict set — the stable report — is byte-identical.
    EXPECT_EQ(r1.to_json(false), r2.to_json(false));
    EXPECT_EQ(r1.summary().substr(0, r1.summary().find("solver:")),
              r2.summary().substr(0, r2.summary().find("solver:")));
    // The full report says *why* each job was skipped.
    EXPECT_NE(r2.to_json(true).find("\"skipped\": \"fingerprint-hit\""),
              std::string::npos);
}

TEST_F(IncrTest, MutatingOneSourceReverifiesExactlyThatJob) {
    std::string a = write("a.svlc", kSecure);
    std::string c = write("c.svlc", kModeSwitch);
    std::vector<JobSpec> jobs = {{a, a, "", "", 0}, {c, c, "", "", 0}};

    DriverOptions opts;
    opts.store_dir = store_dir();
    VerificationDriver(opts).run(jobs);

    // Mutate a.svlc into a rejected design.
    write("a.svlc", kRejected);
    VerificationDriver drv(opts);
    BatchReport r = drv.run(jobs);
    ASSERT_EQ(r.results.size(), 2u);
    EXPECT_FALSE(r.results[0].skipped);
    EXPECT_EQ(r.results[0].status, JobStatus::Rejected);
    EXPECT_TRUE(r.results[1].skipped);
    EXPECT_EQ(r.results[1].status, JobStatus::Secure);
    EXPECT_EQ(r.skipped_count(), 1u);
}

TEST_F(IncrTest, CacheDisabledStillSkipsByFingerprint) {
    std::string a = write("a.svlc", kSecure);
    std::vector<JobSpec> jobs = {{a, a, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();
    opts.use_cache = false; // verdict store works without the entail cache
    VerificationDriver(opts).run(jobs);
    BatchReport r = VerificationDriver(opts).run(jobs);
    EXPECT_EQ(r.skipped_count(), 1u);
}

TEST_F(IncrTest, ErrorsAndTimeoutsAreNeverPersisted) {
    std::string missing = (dir_ / "missing.svlc").string();
    std::vector<JobSpec> jobs = {{missing, missing, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();
    VerificationDriver(opts).run(jobs);
    BatchReport r = VerificationDriver(opts).run(jobs);
    EXPECT_EQ(r.skipped_count(), 0u);
    EXPECT_EQ(r.results[0].status, JobStatus::Error);

    JobSpec slow;
    ASSERT_TRUE(driver::builtin_job("labeled", slow));
    slow.timeout_ms = 1; // guaranteed deadline expiry
    BatchReport t1 = VerificationDriver(opts).run({slow});
    ASSERT_EQ(t1.results[0].status, JobStatus::Timeout);
    BatchReport t2 = VerificationDriver(opts).run({slow});
    EXPECT_FALSE(t2.results[0].skipped); // timeout was not replayed
}

TEST_F(IncrTest, SameSizeRewriteWithPinnedMtimeIsReverified) {
    // A same-length rewrite within one timestamp tick leaves (mtime, size)
    // unchanged. The store keys on a content hash, never on stat, so the
    // next run must still see the edit. The two sources differ in one
    // byte: input `a` goes from T to U, so `assign b = a` now leaks.
    std::string leaky(kSecure);
    size_t pos = leaky.find("input com {T} a");
    ASSERT_NE(pos, std::string::npos);
    leaky[pos + std::string("input com {").size()] = 'U';
    ASSERT_EQ(leaky.size(), std::string(kSecure).size());

    std::string path = write("a.svlc", kSecure);
    fs::file_time_type mtime = fs::last_write_time(path);
    std::vector<JobSpec> jobs = {{path, path, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();
    BatchReport r1 = VerificationDriver(opts).run(jobs);
    ASSERT_EQ(r1.results[0].status, JobStatus::Secure);

    write("a.svlc", leaky);
    fs::last_write_time(path, mtime);
    ASSERT_EQ(fs::last_write_time(path), mtime);
    ASSERT_EQ(fs::file_size(path), std::string(kSecure).size());

    BatchReport r2 = VerificationDriver(opts).run(jobs);
    EXPECT_FALSE(r2.results[0].skipped);
    EXPECT_EQ(r2.results[0].status, JobStatus::Rejected);
}

} // namespace
} // namespace svlc::test
