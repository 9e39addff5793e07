// The `svlc serve` verification daemon: a single-threaded poll() loop on
// a Unix domain socket speaking framed JSON-RPC (serve/protocol.hpp),
// holding the expensive verification state hot in memory across
// requests:
//
//   * one shared solver::EntailCache (as a batch run would have),
//   * the persistent incr::ArtifactStore (verdicts written at verify
//     time, so a later cold `svlc batch --store` warm-skips unchanged
//     jobs),
//   * a server-wide LRU table of sessions, each owning an elaborated
//     pipeline::Compilation plus the rendered outcome of its last
//     verify, keyed by (buffer name, top, checker options).
//
// A verify of an unchanged job — same key, same job fingerprint — is a
// session hit: the response replays the cached outcome with zero
// re-elaboration and zero solver calls. The table is server-wide rather
// than per-connection precisely so that back-to-back `svlc check
// --remote` processes (each a fresh connection) hit it.
//
// Single-threaded by design: requests are handled to completion in
// arrival order and responses are written as whole frames, so
// concurrent clients can never observe interleaved frames; fairness
// across connections comes from draining one frame per readiness event.
#pragma once

#include "check/typecheck.hpp"
#include "driver/driver.hpp"
#include "incr/store.hpp"
#include "pipeline/compilation.hpp"
#include "serve/protocol.hpp"
#include "solver/entail_cache.hpp"
#include "support/net.hpp"

#include <cstdint>
#include <list>
#include <memory>
#include <string>

namespace svlc::serve {

struct ServeOptions {
    std::string socket_path;
    /// Persistent store directory (incr/store.hpp); empty disables
    /// persistence.
    std::string store_dir;
    /// Sessions kept hot; beyond this the least recently used session
    /// (Compilation and cached outcome) is evicted.
    size_t max_sessions = 16;
    /// Exit after this many seconds without a request; 0 = never.
    uint64_t idle_timeout_sec = 0;
    /// Default per-verify deadline in ms (requests may override); 0 =
    /// unlimited.
    uint64_t default_timeout_ms = 0;
    /// Checker configuration baseline; per-request options overlay it.
    check::CheckOptions default_check;
    /// SIGINT/SIGTERM trigger a graceful shutdown.
    /// Tests hosting the server on a thread turn this off.
    bool install_signal_handlers = true;
};

/// Monotonic counters surfaced by the `status` method.
struct ServeStats {
    uint64_t requests = 0;      ///< decoded JSON-RPC requests
    uint64_t verifies = 0;      ///< verify/didChange that ran the pipeline
    uint64_t session_hits = 0;  ///< verify answered from a session outcome
    uint64_t sessions_evicted = 0;
    uint64_t protocol_errors = 0;
    uint64_t connections = 0;
};

class Server {
public:
    explicit Server(ServeOptions opts);
    ~Server();

    /// Binds the socket (reclaiming a stale one, refusing a live one),
    /// opens the store, and preloads the entailment cache. False with
    /// `error` set on any failure; no partial state is left behind.
    bool start(std::string& error);

    /// Serves until shutdown (request, signal, idle timeout, or
    /// request_stop). Flushes the entailment cache to the store and
    /// unlinks the socket before returning. Returns a process exit code.
    int run();

    /// Thread-safe, async-signal-safe stop request; wakes the loop.
    void request_stop();

    [[nodiscard]] const std::string& socket_path() const {
        return opts_.socket_path;
    }
    [[nodiscard]] const ServeStats& stats() const { return stats_; }

private:
    struct Conn;
    struct Session;

    void handle_payload(Conn& conn, const std::string& payload);
    JsonValue do_initialize();
    JsonValue do_status();
    JsonValue do_invalidate(const JsonValue& params);
    /// verify and didChange share this; `push_to` receives the
    /// publishDiagnostics notification before the caller's response.
    bool do_verify(const JsonValue& params, Conn& push_to, JsonValue& result,
                   int& err_code, std::string& err_msg);

    Session* find_session(const std::string& key);
    Session& obtain_session(const std::string& key, const std::string& name,
                            const std::string& top,
                            const check::CheckOptions& copts);
    void touch(Session& s);

    ServeOptions opts_;
    solver::EntailCache cache_;
    std::unique_ptr<incr::ArtifactStore> store_;
    std::unique_ptr<net::UnixListener> listener_;
    std::list<std::unique_ptr<Conn>> conns_;
    /// LRU order: front = most recently used.
    std::list<std::unique_ptr<Session>> sessions_;
    ServeStats stats_;
    uint64_t lru_tick_ = 0;
    int wake_pipe_[2] = {-1, -1};
    bool stop_ = false;
    bool started_ = false;
};

} // namespace svlc::serve
