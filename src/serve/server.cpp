#include "serve/server.hpp"

#include "incr/fingerprint.hpp"
#include "pipeline/compilation.hpp"
#include "support/fsutil.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

namespace svlc::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Signal delivery must wake the poll loop without touching non-trivial
// state, so the handler just writes one byte to the server's wake pipe.
// One daemon per process is the deployment model; the test suite's
// in-process servers disable handler installation instead.
volatile sig_atomic_t g_stop_requested = 0;
int g_wake_fd = -1;

void on_stop_signal(int) {
    g_stop_requested = 1;
    if (g_wake_fd >= 0) {
        char b = 's';
        // The pipe is non-blocking; a full pipe already guarantees a
        // pending wake-up, so a failed write is fine.
        [[maybe_unused]] ssize_t n = ::write(g_wake_fd, &b, 1);
    }
}

/// LSP DiagnosticSeverity: Error=1, Warning=2, Information=3.
int64_t lsp_severity(Severity sev) {
    switch (sev) {
    case Severity::Error: return 1;
    case Severity::Warning: return 2;
    case Severity::Note: return 3;
    }
    return 1;
}

/// Converts collected diagnostics to an LSP-flavored array:
/// 0-based positions (SourceLoc is 1-based), zero-width ranges, stable
/// code strings. Location-less diagnostics anchor at 0:0.
JsonValue lsp_diagnostics(const DiagnosticEngine& diags) {
    JsonValue arr = JsonValue::array();
    for (const Diagnostic& d : diags.diagnostics()) {
        uint64_t line = d.loc.valid() ? d.loc.line - 1 : 0;
        uint64_t col = d.loc.valid() && d.loc.column ? d.loc.column - 1 : 0;
        JsonValue pos = JsonValue::object();
        pos.set("line", JsonValue(line));
        pos.set("character", JsonValue(col));
        JsonValue range = JsonValue::object();
        range.set("start", pos);
        range.set("end", pos);
        JsonValue item = JsonValue::object();
        item.set("range", std::move(range));
        item.set("severity", JsonValue(lsp_severity(d.severity)));
        item.set("code", JsonValue(diag_code_name(d.code)));
        item.set("message", JsonValue(d.message));
        arr.push_back(std::move(item));
    }
    return arr;
}

const char* outcome_status(driver::JobStatus s, bool have_result) {
    // Without a result the job never parsed or elaborated to a check.
    return have_result ? driver::job_status_name(s) : "error";
}

} // namespace

/// The rendered outcome of one verify, cached per session. Only
/// deterministic verdicts (secure/rejected) are replayable; timeout and
/// error outcomes always re-run.
struct Outcome {
    bool valid = false;
    std::string status; // secure | rejected | timeout | error
    std::string fingerprint;
    std::string diagnostics; // rendered with source snippets
    std::string report;      // check_report_json (empty on error)
    uint64_t obligations = 0;
    uint64_t failed = 0;
    uint64_t downgrades = 0;
    JsonValue lsp; // array for publishDiagnostics
};

struct Server::Conn {
    net::UnixStream stream;
    net::FrameBuffer fb;
    bool dead = false;

    explicit Conn(net::UnixStream s) : stream(std::move(s)) {}
};

struct Server::Session {
    std::string key;
    std::string name;
    std::string top;
    Outcome outcome;
};

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)) {}

Server::~Server() {
    if (g_wake_fd == wake_pipe_[1])
        g_wake_fd = -1;
    if (wake_pipe_[0] >= 0)
        ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0)
        ::close(wake_pipe_[1]);
}

bool Server::start(std::string& error) {
    if (opts_.socket_path.empty()) {
        error = "serve: --socket PATH is required";
        return false;
    }
    auto listener = net::UnixListener::bind(opts_.socket_path, error);
    if (!listener)
        return false;

    if (::pipe(wake_pipe_) < 0) {
        error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    for (int fd : wake_pipe_) {
        int flags = ::fcntl(fd, F_GETFL, 0);
        if (flags >= 0)
            ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }

    if (!opts_.store_dir.empty()) {
        incr::StoreOptions sopts;
        sopts.dir = opts_.store_dir;
        auto store = std::make_unique<incr::ArtifactStore>(sopts);
        std::string store_error;
        if (store->open(store_error)) {
            store_ = std::move(store);
        } else {
            // Same degradation policy as the batch driver: a broken
            // store means a cold daemon, not a dead one.
            std::fprintf(stderr, "svlc serve: store disabled: %s\n",
                         store_error.c_str());
        }
    }

    if (opts_.install_signal_handlers) {
        g_stop_requested = 0;
        g_wake_fd = wake_pipe_[1];
        struct sigaction sa {};
        sa.sa_handler = on_stop_signal;
        ::sigemptyset(&sa.sa_mask);
        ::sigaction(SIGINT, &sa, nullptr);
        ::sigaction(SIGTERM, &sa, nullptr);
    }

    listener_ = std::make_unique<net::UnixListener>(std::move(*listener));
    started_ = true;
    return true;
}

void Server::request_stop() {
    stop_ = true;
    if (wake_pipe_[1] >= 0) {
        char b = 'q';
        [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
    }
}

Server::Session* Server::find_session(const std::string& key) {
    for (auto& s : sessions_)
        if (s->key == key)
            return s.get();
    return nullptr;
}

void Server::touch(Session& s) {
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
        if (it->get() == &s) {
            sessions_.splice(sessions_.begin(), sessions_, it);
            return;
        }
    }
}

Server::Session& Server::obtain_session(const std::string& key,
                                        const std::string& name,
                                        const std::string& top) {
    if (Session* s = find_session(key)) {
        touch(*s);
        return *s;
    }
    sessions_.push_front(
        std::make_unique<Session>(Session{key, name, top, Outcome()}));
    while (sessions_.size() > opts_.max_sessions && sessions_.size() > 1) {
        sessions_.pop_back();
        ++stats_.sessions_evicted;
    }
    return *sessions_.front();
}

JsonValue Server::do_initialize() {
    JsonValue result = JsonValue::object();
    result.set("schema", JsonValue(kServeSchema));
    result.set("version", JsonValue(incr::kToolVersion));
    result.set("pid", JsonValue(static_cast<int64_t>(::getpid())));
    JsonValue methods = JsonValue::array();
    for (const char* m : {"initialize", "verify", "didChange", "status",
                          "invalidate", "shutdown"})
        methods.push_back(JsonValue(m));
    result.set("methods", std::move(methods));
    return result;
}

JsonValue Server::do_status() {
    JsonValue result = JsonValue::object();
    result.set("schema", JsonValue(kServeSchema));
    result.set("version", JsonValue(incr::kToolVersion));
    result.set("socket", JsonValue(opts_.socket_path));

    JsonValue sessions = JsonValue::array();
    for (const auto& s : sessions_) {
        JsonValue item = JsonValue::object();
        item.set("name", JsonValue(s->name));
        if (!s->top.empty())
            item.set("top", JsonValue(s->top));
        if (s->outcome.valid) {
            item.set("status", JsonValue(s->outcome.status));
            item.set("fingerprint", JsonValue(s->outcome.fingerprint));
        }
        sessions.push_back(std::move(item));
    }
    result.set("sessions", std::move(sessions));
    result.set("max_sessions",
               JsonValue(static_cast<uint64_t>(opts_.max_sessions)));

    solver::EntailCache::Stats cs = cache_.stats();
    JsonValue cache = JsonValue::object();
    cache.set("entries", JsonValue(cs.entries));
    cache.set("hits", JsonValue(cs.hits));
    cache.set("misses", JsonValue(cs.misses));
    result.set("cache", std::move(cache));

    JsonValue counters = JsonValue::object();
    counters.set("requests", JsonValue(stats_.requests));
    counters.set("verifies", JsonValue(stats_.verifies));
    counters.set("session_hits", JsonValue(stats_.session_hits));
    counters.set("sessions_evicted", JsonValue(stats_.sessions_evicted));
    counters.set("protocol_errors", JsonValue(stats_.protocol_errors));
    counters.set("connections", JsonValue(stats_.connections));
    result.set("stats", std::move(counters));

    if (store_) {
        incr::ArtifactStore::Stats ss = store_->stats();
        JsonValue store = JsonValue::object();
        store.set("dir", JsonValue(store_->dir()));
        store.set("verdict_stores", JsonValue(ss.verdict_stores));
        result.set("store", std::move(store));
    }
    return result;
}

JsonValue Server::do_invalidate(const JsonValue& params) {
    uint64_t dropped = 0;
    if (params.get_bool("all")) {
        dropped = sessions_.size();
        sessions_.clear();
    } else {
        std::string name = params.get_string("name");
        for (auto it = sessions_.begin(); it != sessions_.end();) {
            if ((*it)->name == name) {
                it = sessions_.erase(it);
                ++dropped;
            } else {
                ++it;
            }
        }
    }
    JsonValue result = JsonValue::object();
    result.set("dropped", JsonValue(dropped));
    return result;
}

bool Server::do_verify(const JsonValue& params, Conn& push_to,
                       JsonValue& result, int& err_code,
                       std::string& err_msg) {
    // Resolve the source text: an in-memory buffer ("source" + "name",
    // the didChange shape) or a server-side file read ("file").
    std::string source;
    std::string name;
    if (const JsonValue* src = params.find("source")) {
        if (!src->is_string()) {
            err_code = kErrInvalidParams;
            err_msg = "source must be a string";
            return false;
        }
        source = src->str();
        name = params.get_string("name", "<buffer>");
    } else {
        std::string file = params.get_string("file");
        if (file.empty()) {
            err_code = kErrInvalidParams;
            err_msg = "params require either source (+name) or file";
            return false;
        }
        if (!read_file(file, source)) {
            err_code = kErrServer;
            err_msg = "cannot open '" + file + "'";
            return false;
        }
        name = params.get_string("name", file);
    }
    std::string top = params.get_string("top");

    // Checker configuration: the daemon's baseline with the request's
    // overrides layered on top — exactly what `svlc check` flags do.
    check::CheckOptions copts = opts_.default_check;
    uint64_t timeout_ms = 0;
    if (const JsonValue* o = params.find("options")) {
        if (!o->is_object()) {
            err_code = kErrInvalidParams;
            err_msg = "options must be an object";
            return false;
        }
        if (const JsonValue* classic = o->find("classic"))
            copts.mode = classic->bool_val()
                             ? check::CheckerMode::ClassicSecVerilog
                             : check::CheckerMode::SecVerilogLC;
        if (const JsonValue* no_hold = o->find("no_hold"))
            copts.hold_obligations = !no_hold->bool_val();
        if (const JsonValue* backend = o->find("solver")) {
            auto kind = solver::parse_backend(backend->str());
            if (!kind) {
                err_code = kErrInvalidParams;
                err_msg = "unknown solver backend '" + backend->str() + "'";
                return false;
            }
            copts.solver.backend = *kind;
        }
        timeout_ms = o->get_uint("timeout_ms");
    }

    std::string key = name;
    key += '\x1f';
    key += top;
    key += '\x1f';
    key += incr::check_options_fingerprint(copts);
    std::string fp = incr::job_fingerprint(name, source, top, copts);

    Outcome& out = obtain_session(key, name, top).outcome;
    bool hit = out.valid && out.fingerprint == fp &&
               (out.status == "secure" || out.status == "rejected");
    if (!hit) {
        ++stats_.verifies;
        pipeline::CompilationOptions popts;
        popts.check = copts;
        pipeline::Compilation comp(std::move(popts));
        driver::JobSpec spec;
        spec.name = name;
        spec.top = top;
        spec.timeout_ms = timeout_ms;
        // With a store, verify_text persists the verdict under the same
        // fingerprint a batch run computes, so a later cold
        // `svlc batch --store` warm-skips jobs this daemon already decided.
        driver::JobResult res =
            driver::verify_text(comp, spec, source, opts_.default_timeout_ms,
                                &cache_, store_.get());
        const check::CheckResult* cres = comp.check();
        out = Outcome();
        out.valid = true;
        out.status = outcome_status(res.status, cres != nullptr);
        out.fingerprint = fp;
        out.diagnostics = res.diagnostics;
        out.obligations = res.obligations;
        out.failed = res.failed;
        out.downgrades = res.downgrades;
        out.lsp = lsp_diagnostics(comp.diags());
        if (cres)
            out.report = pipeline::check_report_json(comp, *cres, name);
    } else {
        ++stats_.session_hits;
    }

    // Push every diagnostic to the requester before the response,
    // LSP-style: publishDiagnostics replaces the client's set for `name`.
    JsonValue diag_params = JsonValue::object();
    diag_params.set("name", JsonValue(name));
    diag_params.set("diagnostics", out.lsp);
    std::string send_error;
    if (!net::write_frame(
            push_to.stream,
            make_notification("svlc/publishDiagnostics", diag_params),
            send_error))
        push_to.dead = true;

    result = JsonValue::object();
    result.set("schema", JsonValue(kServeSchema));
    result.set("status", JsonValue(out.status));
    result.set("cached", JsonValue(hit));
    result.set("fingerprint", JsonValue(out.fingerprint));
    result.set("obligations", JsonValue(out.obligations));
    result.set("failed", JsonValue(out.failed));
    result.set("downgrades", JsonValue(out.downgrades));
    result.set("diagnostics", JsonValue(out.diagnostics));
    result.set("report", JsonValue(out.report));
    return true;
}

void Server::handle_payload(Conn& conn, const std::string& payload) {
    RpcMessage msg;
    std::string error;
    std::string reply;
    if (!parse_rpc(payload, msg, error)) {
        ++stats_.protocol_errors;
        reply = make_error(JsonValue(), kErrParse, error);
    } else if (msg.is_response) {
        // Clients do not answer the server; drop silently.
        return;
    } else {
        ++stats_.requests;
        JsonValue id = msg.has_id ? msg.id : JsonValue();
        if (msg.method == "initialize") {
            reply = make_response(id, do_initialize());
        } else if (msg.method == "status") {
            reply = make_response(id, do_status());
        } else if (msg.method == "invalidate") {
            reply = make_response(id, do_invalidate(msg.params));
        } else if (msg.method == "verify" || msg.method == "didChange") {
            JsonValue result;
            int code = kErrServer;
            std::string message;
            if (do_verify(msg.params, conn, result, code, message))
                reply = make_response(id, result);
            else
                reply = make_error(id, code, message);
        } else if (msg.method == "shutdown") {
            JsonValue result = JsonValue::object();
            result.set("ok", JsonValue(true));
            reply = make_response(id, result);
            stop_ = true;
        } else {
            ++stats_.protocol_errors;
            reply = make_error(id, kErrMethodNotFound,
                               "unknown method '" + msg.method + "'");
        }
        if (!msg.has_id)
            return; // notification: never answered
    }
    std::string send_error;
    if (!net::write_frame(conn.stream, reply, send_error))
        conn.dead = true;
}

int Server::run() {
    if (!started_) {
        std::fprintf(stderr, "svlc serve: run() before start()\n");
        return 2;
    }
    Clock::time_point last_activity = Clock::now();

    while (!stop_ && !g_stop_requested) {
        std::vector<pollfd> fds;
        fds.push_back({listener_->fd(), POLLIN, 0});
        fds.push_back({wake_pipe_[0], POLLIN, 0});
        for (const auto& c : conns_)
            fds.push_back({c->stream.fd(), POLLIN, 0});

        int timeout = -1;
        if (opts_.idle_timeout_sec) {
            auto idle_ms = std::chrono::duration_cast<
                               std::chrono::milliseconds>(Clock::now() -
                                                          last_activity)
                               .count();
            long remaining =
                static_cast<long>(opts_.idle_timeout_sec) * 1000 -
                static_cast<long>(idle_ms);
            if (remaining <= 0)
                break;
            timeout = static_cast<int>(remaining);
        }

        int rc = ::poll(fds.data(), fds.size(), timeout);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "svlc serve: poll: %s\n",
                         std::strerror(errno));
            break;
        }
        if (rc == 0)
            break; // idle timeout expired

        if (fds[1].revents & POLLIN) {
            char buf[64];
            while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
            }
        }

        // fds[i + 2] maps to the i-th connection at poll time. Existing
        // connections are handled before accepting new ones so the
        // index alignment holds; freshly accepted connections are first
        // polled on the next cycle.
        size_t i = 0;
        for (auto it = conns_.begin();
             it != conns_.end() && i + 2 < fds.size(); ++it, ++i) {
            Conn& conn = **it;
            short revents = fds[i + 2].revents;
            if (revents & (POLLERR | POLLNVAL)) {
                conn.dead = true;
                continue;
            }
            if (!(revents & (POLLIN | POLLHUP)))
                continue;
            std::string chunk;
            long n = conn.stream.read_some(chunk);
            if (n <= 0) {
                conn.dead = true;
                continue;
            }
            last_activity = Clock::now();
            conn.fb.append(chunk);
            for (;;) {
                std::string payload;
                std::string frame_error;
                auto st = conn.fb.next(payload, frame_error);
                if (st == net::FrameBuffer::Status::Need)
                    break;
                if (st == net::FrameBuffer::Status::Error) {
                    ++stats_.protocol_errors;
                    std::string send_error;
                    net::write_frame(
                        conn.stream,
                        make_error(JsonValue(), kErrInvalidRequest,
                                   frame_error),
                        send_error);
                    conn.dead = true;
                    break;
                }
                handle_payload(conn, payload);
                if (conn.dead || stop_)
                    break;
            }
            if (stop_)
                break;
        }
        conns_.remove_if([](const std::unique_ptr<Conn>& c) {
            return c->dead || !c->stream.valid();
        });
        if (!stop_ && (fds[0].revents & POLLIN)) {
            for (;;) {
                std::string accept_error;
                auto stream = listener_->accept(accept_error);
                if (!stream)
                    break;
                ++stats_.connections;
                conns_.push_back(std::make_unique<Conn>(std::move(*stream)));
            }
        }
    }

    // Graceful exit: whatever stopped the loop (shutdown request,
    // SIGINT/SIGTERM, idle timeout), the socket is gone. Verdicts reached
    // the store at verify time.
    conns_.clear();
    listener_->close_and_unlink();
    return 0;
}

} // namespace svlc::serve
