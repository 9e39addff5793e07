#include "incr/store.hpp"

#include "support/fsutil.hpp"
#include "support/hash.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

namespace svlc::incr {

namespace fs = std::filesystem;

namespace {

// Fixed-width checksum trailer: "sum " + 16 hex + "\n".
constexpr size_t kTrailerLen = 4 + 16 + 1;

std::string header_for(const char* kind) {
    return std::string(kStoreFormat) + ' ' + kind + '\n';
}

std::string trailer_for(const std::string& content) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "sum %016llx\n",
                  static_cast<unsigned long long>(fnv1a64(content)));
    return buf;
}

/// Line-oriented cursor over a payload; every getter fails closed so a
/// truncated or tampered record parses to "corrupt", never to garbage.
struct Cursor {
    const std::string& s;
    size_t pos = 0;
    bool ok = true;

    std::string line() {
        if (!ok)
            return "";
        size_t nl = s.find('\n', pos);
        if (nl == std::string::npos) {
            ok = false;
            return "";
        }
        std::string out = s.substr(pos, nl - pos);
        pos = nl + 1;
        return out;
    }
    /// "<word> <uint>" line; fails unless the tag matches exactly.
    uint64_t tagged_uint(const char* tag) {
        std::string l = line();
        size_t sp = l.find(' ');
        if (!ok || sp == std::string::npos || l.substr(0, sp) != tag) {
            ok = false;
            return 0;
        }
        char* end = nullptr;
        uint64_t v = std::strtoull(l.c_str() + sp + 1, &end, 10);
        if (!end || *end) {
            ok = false;
            return 0;
        }
        return v;
    }
    std::string bytes(size_t n) {
        if (!ok || pos + n > s.size()) {
            ok = false;
            return "";
        }
        std::string out = s.substr(pos, n);
        pos += n;
        return out;
    }
};

} // namespace

ArtifactStore::ArtifactStore(StoreOptions opts) : opts_(std::move(opts)) {}

std::string ArtifactStore::verdict_path(const std::string& fp) const {
    return (fs::path(opts_.dir) / "v2" / "verdicts" / fp.substr(0, 2) / fp)
        .string();
}

bool ArtifactStore::open(std::string& error) {
    fs::path v2 = fs::path(opts_.dir) / "v2";
    fs::path format = v2 / "FORMAT";
    std::error_code ec;

    // Retired artifacts — the `v1/` generation, the per-obligation
    // records under `v2/obligations/`, and the persisted entailment cache
    // `v2/entail.cache` older builds kept — are discarded wholesale the
    // moment they are seen: one rm, one counter tick, never a walk that
    // surfaces thousands of entries as individual misses, and never a
    // read through the old framing. Job records are unchanged, so the
    // rest of v2/ stays valid.
    for (const fs::path& retired : {fs::path(opts_.dir) / "v1",
                                    v2 / "obligations", v2 / "entail.cache"}) {
        if (fs::exists(retired, ec)) {
            fs::remove_all(retired, ec);
            legacy_discarded_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    std::string marker;
    if (fs::exists(format, ec) && read_file(format.string(), marker) &&
        marker != std::string(kStoreFormat) + "\n") {
        // A future (or mangled) store generation: discard rather than
        // misread it. Verdicts are pure caches — rebuilding is always
        // safe, wrong reuse is not.
        fs::remove_all(v2, ec);
        corrupt_discarded_.fetch_add(1, std::memory_order_relaxed);
    }

    fs::create_directories(v2 / "verdicts", ec);
    if (ec) {
        error = "cannot create store '" + v2.string() + "': " + ec.message();
        return false;
    }
    if (!fs::exists(format, ec) &&
        !write_file_atomic(format.string(),
                           std::string(kStoreFormat) + "\n", &error))
        return false;
    return true;
}

std::optional<std::string> ArtifactStore::read_payload(const std::string& path,
                                                       const char* kind) {
    std::string content;
    if (!read_file(path, content))
        return std::nullopt;
    std::string header = header_for(kind);
    if (content.size() < header.size() + kTrailerLen ||
        content.compare(0, header.size(), header) != 0) {
        discard(path);
        return std::nullopt;
    }
    std::string body = content.substr(0, content.size() - kTrailerLen);
    if (content.substr(content.size() - kTrailerLen) != trailer_for(body)) {
        discard(path);
        return std::nullopt;
    }
    return body.substr(header.size());
}

bool ArtifactStore::write_payload(const std::string& path, const char* kind,
                                  const std::string& payload) {
    std::string content = header_for(kind) + payload;
    content += trailer_for(content);
    return write_file_atomic(path, content);
}

void ArtifactStore::discard(const std::string& path) {
    std::error_code ec;
    fs::remove(path, ec);
    corrupt_discarded_.fetch_add(1, std::memory_order_relaxed);
}

std::string encode_stored_verdict(const StoredVerdict& v) {
    char buf[128];
    std::string payload;
    payload += v.secure ? "status secure\n" : "status rejected\n";
    std::snprintf(buf, sizeof buf,
                  "obligations %llu\nfailed %llu\ndowngrades %llu\ndiag "
                  "%zu\n",
                  static_cast<unsigned long long>(v.obligations),
                  static_cast<unsigned long long>(v.failed),
                  static_cast<unsigned long long>(v.downgrades),
                  v.diagnostics.size());
    payload += buf;
    payload += v.diagnostics;
    // Flagged-obligation records: free text goes length-prefixed (same
    // `tag <len>\n<bytes>` idiom as `diag`), numerics as tagged uints.
    auto sized = [&payload](const char* tag, const std::string& s) {
        payload += tag;
        payload += ' ';
        payload += std::to_string(s.size());
        payload += '\n';
        payload += s;
    };
    payload += "flagged " + std::to_string(v.flagged.size()) + '\n';
    for (const auto& rec : v.flagged) {
        sized("id", rec.id);
        sized("kind", rec.kind);
        sized("target", rec.target);
        sized("loc", rec.loc);
        sized("lhs", rec.lhs);
        sized("rhs", rec.rhs);
        sized("status", rec.status);
        sized("detail", rec.detail);
        payload += "wit " + std::to_string(rec.witness.size()) + '\n';
        for (const auto& b : rec.witness) {
            sized("net", b.net);
            payload += b.primed ? "primed 1\n" : "primed 0\n";
            payload += "value " + std::to_string(b.value) + '\n';
        }
    }
    return payload;
}

bool decode_stored_verdict(const std::string& payload, StoredVerdict& out) {
    Cursor c{payload};
    StoredVerdict v;
    std::string status = c.line();
    if (status == "status secure")
        v.secure = true;
    else if (status != "status rejected")
        c.ok = false;
    v.obligations = c.tagged_uint("obligations");
    v.failed = c.tagged_uint("failed");
    v.downgrades = c.tagged_uint("downgrades");
    v.diagnostics = c.bytes(c.tagged_uint("diag"));
    uint64_t nflagged = c.tagged_uint("flagged");
    for (uint64_t i = 0; c.ok && i < nflagged; ++i) {
        pipeline::ObligationRecord rec;
        rec.id = c.bytes(c.tagged_uint("id"));
        rec.kind = c.bytes(c.tagged_uint("kind"));
        rec.target = c.bytes(c.tagged_uint("target"));
        rec.loc = c.bytes(c.tagged_uint("loc"));
        rec.lhs = c.bytes(c.tagged_uint("lhs"));
        rec.rhs = c.bytes(c.tagged_uint("rhs"));
        rec.status = c.bytes(c.tagged_uint("status"));
        rec.detail = c.bytes(c.tagged_uint("detail"));
        uint64_t nwit = c.tagged_uint("wit");
        for (uint64_t j = 0; c.ok && j < nwit; ++j) {
            pipeline::ObligationRecord::Binding b;
            b.net = c.bytes(c.tagged_uint("net"));
            b.primed = c.tagged_uint("primed") != 0;
            b.value = c.tagged_uint("value");
            rec.witness.push_back(std::move(b));
        }
        v.flagged.push_back(std::move(rec));
    }
    if (!c.ok || c.pos != payload.size())
        return false;
    // Fields that contradict each other fail closed too: a secure verdict
    // has no failures, and every failed obligation is one flagged record
    // with a kind and a non-proven status.
    if ((v.secure && v.failed != 0) || v.failed > v.obligations ||
        v.flagged.size() != v.failed)
        return false;
    for (const auto& rec : v.flagged)
        if ((rec.status != "refuted" && rec.status != "unknown") ||
            (rec.kind != "com" && rec.kind != "seq" && rec.kind != "hold"))
            return false;
    out = std::move(v);
    return true;
}

std::optional<StoredVerdict>
ArtifactStore::load_verdict(const std::string& fp) {
    auto payload = read_payload(verdict_path(fp), "verdict");
    if (!payload) {
        verdict_misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    StoredVerdict v;
    if (!decode_stored_verdict(*payload, v)) {
        discard(verdict_path(fp));
        verdict_misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    verdict_hits_.fetch_add(1, std::memory_order_relaxed);
    return v;
}

bool ArtifactStore::store_verdict(const std::string& fp,
                                  const StoredVerdict& v) {
    std::string path = verdict_path(fp);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (!write_payload(path, "verdict", encode_stored_verdict(v)))
        return false;
    verdict_stores_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

ArtifactStore::Stats ArtifactStore::stats() const {
    Stats s;
    s.verdict_hits = verdict_hits_.load(std::memory_order_relaxed);
    s.verdict_misses = verdict_misses_.load(std::memory_order_relaxed);
    s.verdict_stores = verdict_stores_.load(std::memory_order_relaxed);
    s.corrupt_discarded =
        corrupt_discarded_.load(std::memory_order_relaxed);
    s.legacy_discarded = legacy_discarded_.load(std::memory_order_relaxed);
    return s;
}

} // namespace svlc::incr
