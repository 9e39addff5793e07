#include "serve/client.hpp"

namespace svlc::serve {

std::optional<Client> Client::connect(const std::string& socket_path,
                                      std::string& error) {
    auto stream = net::UnixStream::connect(socket_path, error);
    if (!stream)
        return std::nullopt;
    return Client(std::move(*stream));
}

bool Client::call(const std::string& method, const JsonValue& params,
                  RpcMessage& response, std::string& error,
                  std::vector<RpcMessage>* notifications) {
    uint64_t id = next_id_++;
    if (!net::write_frame(stream_, make_request(id, method, params), error))
        return false;
    for (;;) {
        std::string payload;
        if (!net::read_frame(stream_, fb_, payload, error))
            return false;
        RpcMessage msg;
        if (!parse_rpc(payload, msg, error))
            return false;
        if (!msg.is_response) {
            if (notifications)
                notifications->push_back(std::move(msg));
            continue;
        }
        if (!(msg.id == JsonValue(id))) {
            // Single in-flight request per client; a stray id is a
            // server bug, not something to wait out.
            error = "response id does not match request";
            return false;
        }
        response = std::move(msg);
        return true;
    }
}

} // namespace svlc::serve
