// JSON-RPC 2.0 message model for the `svlc serve` protocol
// (schema tag svlc-serve/v2), layered over the Content-Length framing in
// support/net.hpp.
//
// One frame carries exactly one JSON-RPC message:
//
//   request       {"jsonrpc":"2.0","id":N,"method":"verify","params":{...}}
//   response      {"jsonrpc":"2.0","id":N,"result":{...}}
//   error         {"jsonrpc":"2.0","id":N,"error":{"code":C,"message":M}}
//   notification  {"jsonrpc":"2.0","method":"svlc/publishDiagnostics",
//                  "params":{...}}            (no id; never answered)
//
// Methods: initialize, verify, didChange, status, invalidate, shutdown.
// The server pushes `svlc/publishDiagnostics` notifications to the
// requesting connection before the verify/didChange response, carrying
// LSP-flavored diagnostics (0-based positions) so an editor shim can
// relay them unchanged.
#pragma once

#include "support/json_reader.hpp"

#include <string>

namespace svlc::serve {

inline constexpr const char* kServeSchema = "svlc-serve/v2";

// JSON-RPC 2.0 error codes (plus the implementation-defined -32000 the
// server uses for verification-infrastructure failures).
inline constexpr int kErrParse = -32700;
inline constexpr int kErrInvalidRequest = -32600;
inline constexpr int kErrMethodNotFound = -32601;
inline constexpr int kErrInvalidParams = -32602;
inline constexpr int kErrServer = -32000;

/// One decoded JSON-RPC message. A message is either a request
/// (method set, has_id), a notification (method set, no id), or a
/// response (is_response; exactly one of has_result / has_error).
struct RpcMessage {
    bool has_id = false;
    JsonValue id; // number or string

    std::string method; // empty for responses
    JsonValue params;   // object or null when absent

    bool is_response = false;
    bool has_result = false;
    JsonValue result;
    bool has_error = false;
    int error_code = 0;
    std::string error_message;
};

/// Decodes one frame payload. False (with `error`) on malformed JSON or
/// an envelope that is neither request, notification, nor response.
bool parse_rpc(const std::string& payload, RpcMessage& out,
               std::string& error);

// Builders return the serialized payload (compact, no trailing newline).
std::string make_request(uint64_t id, const std::string& method,
                         const JsonValue& params);
std::string make_notification(const std::string& method,
                              const JsonValue& params);
std::string make_response(const JsonValue& id, const JsonValue& result);
/// `id` may be null (parse errors where the request id never decoded).
std::string make_error(const JsonValue& id, int code,
                       const std::string& message);

} // namespace svlc::serve
