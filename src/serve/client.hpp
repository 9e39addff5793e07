// Client side of the `svlc serve` protocol: a blocking framed JSON-RPC
// caller (used by `svlc client` and the tests).
#pragma once

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

} // namespace svlc::serve
