// Client side of the `svlc serve` protocol: a blocking framed JSON-RPC
// caller (used by `svlc client` and the tests) plus the transparent
// `svlc check --remote` forwarder.
#pragma once

#include "check/typecheck.hpp"
#include "serve/protocol.hpp"
#include "support/net.hpp"

#include <optional>
#include <string>
#include <vector>

namespace svlc::serve {

class Client {
public:
    /// Connects to a live daemon; nullopt (with `error`) when nothing is
    /// listening at `socket_path`.
    static std::optional<Client> connect(const std::string& socket_path,
                                         std::string& error);

    /// connect with net::connect_with_retry semantics: keeps re-trying a
    /// not-yet-listening socket with jittered backoff (`svlc client
    /// --retry`, `check --remote` racing its daemon's bind).
    static std::optional<Client> connect(const std::string& socket_path,
                                         const net::RetryOptions& retry,
                                         std::string& error);

    /// Sends one request and blocks for its response. Server-pushed
    /// notifications arriving before the response are appended to
    /// `notifications` (dropped when null). False on transport or
    /// protocol failure; a JSON-RPC *error response* is a true return
    /// with `response.has_error` set.
    bool call(const std::string& method, const JsonValue& params,
              RpcMessage& response, std::string& error,
              std::vector<RpcMessage>* notifications = nullptr);

private:
    explicit Client(net::UnixStream stream) : stream_(std::move(stream)) {}

    net::UnixStream stream_;
    net::FrameBuffer fb_;
    uint64_t next_id_ = 1;
};

/// What `svlc check --remote` unpacks from a verify response: the
/// rendered outputs, verbatim, so the CLI byte-for-byte matches the
/// in-process path.
struct RemoteCheckResult {
    std::string status; // secure | rejected | timeout | error
    std::string human;
    std::string diagnostics;
    std::string report_json;
    std::string stats_line;
    bool cached = false;
};

/// Reads `file` locally (so the daemon labels diagnostics with the exact
/// path the user typed), forwards it as a verify request, and unpacks
/// the rendered outcome. Returns false — and touches nothing — when no
/// live daemon answers (after `retry` is exhausted) or the exchange
/// fails; callers silently fall back to the in-process path. An
/// unreadable file is also a false return: the in-process path renders
/// the canonical error.
bool remote_check(const std::string& socket_path, const std::string& file,
                  const std::string& top, const check::CheckOptions& copts,
                  RemoteCheckResult& out,
                  const net::RetryOptions& retry = {});

} // namespace svlc::serve
