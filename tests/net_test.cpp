// support/net: Content-Length framing (incremental extraction, malformed
// headers, oversized payloads, and a seeded property: how a byte stream
// is split never changes what comes out) and Unix-socket lifecycle — in
// particular the stale-socket startup rules: a dead daemon's socket is
// reclaimed, a live daemon's socket is refused, and a non-socket path is
// never touched.
#include "serve/protocol.hpp"
#include "support/net.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace svlc::test {
namespace {

namespace fs = std::filesystem;
using net::FrameBuffer;
using net::UnixListener;
using net::UnixStream;

std::string tmp_path(const char* name) {
    return (fs::temp_directory_path() /
            (std::string("svlc_net_test_") + name + "_" +
             std::to_string(::getpid()) + ".sock"))
        .string();
}

TEST(Framing, RoundTripSingleFrame) {
    std::string frame = net::make_frame("{\"x\":1}");
    EXPECT_EQ(frame, "Content-Length: 7\r\n\r\n{\"x\":1}");

    FrameBuffer fb;
    fb.append(frame);
    std::string payload, error;
    ASSERT_EQ(fb.next(payload, error), FrameBuffer::Status::Frame);
    EXPECT_EQ(payload, "{\"x\":1}");
    EXPECT_EQ(fb.next(payload, error), FrameBuffer::Status::Need);
}

TEST(Framing, ByteAtATime) {
    std::string frame = net::make_frame("hello world");
    FrameBuffer fb;
    std::string payload, error;
    for (size_t i = 0; i + 1 < frame.size(); ++i) {
        fb.append(std::string_view(&frame[i], 1));
        ASSERT_EQ(fb.next(payload, error), FrameBuffer::Status::Need)
            << "at byte " << i;
    }
    fb.append(std::string_view(&frame.back(), 1));
    ASSERT_EQ(fb.next(payload, error), FrameBuffer::Status::Frame);
    EXPECT_EQ(payload, "hello world");
}

TEST(Framing, TwoFramesOneAppend) {
    FrameBuffer fb;
    fb.append(net::make_frame("first") + net::make_frame("second"));
    std::string payload, error;
    ASSERT_EQ(fb.next(payload, error), FrameBuffer::Status::Frame);
    EXPECT_EQ(payload, "first");
    ASSERT_EQ(fb.next(payload, error), FrameBuffer::Status::Frame);
    EXPECT_EQ(payload, "second");
    EXPECT_EQ(fb.next(payload, error), FrameBuffer::Status::Need);
}

TEST(Framing, UnknownHeadersIgnored) {
    FrameBuffer fb;
    fb.append("Content-Type: application/json\r\n"
              "Content-Length: 2\r\n"
              "X-Custom: y\r\n\r\nok");
    std::string payload, error;
    ASSERT_EQ(fb.next(payload, error), FrameBuffer::Status::Frame);
    EXPECT_EQ(payload, "ok");
}

TEST(Framing, MalformedHeaders) {
    std::string payload, error;
    {
        FrameBuffer fb;
        fb.append("X-Only: 1\r\n\r\nbody");
        EXPECT_EQ(fb.next(payload, error), FrameBuffer::Status::Error);
        EXPECT_NE(error.find("Content-Length"), std::string::npos);
    }
    {
        FrameBuffer fb;
        fb.append("Content-Length: 12abc\r\n\r\n");
        EXPECT_EQ(fb.next(payload, error), FrameBuffer::Status::Error);
    }
    {
        // Oversized declared payload is rejected before buffering it.
        FrameBuffer fb;
        fb.append("Content-Length: 99999999999999999999\r\n\r\n");
        EXPECT_EQ(fb.next(payload, error), FrameBuffer::Status::Error);
    }
    {
        // A header section that never terminates errors at 16 KiB.
        FrameBuffer fb;
        fb.append(std::string(17 * 1024, 'a'));
        EXPECT_EQ(fb.next(payload, error), FrameBuffer::Status::Error);
    }
}

TEST(Framing, HeaderCapDoesNotDependOnArrival) {
    // A 20 KiB header section that does terminate is over the cap whether
    // it arrives in one piece or in two.
    std::string stream = "X-Pad: " + std::string(20 * 1024, 'p') +
                         "\r\nContent-Length: 2\r\n\r\n{}";
    std::string payload, error;
    FrameBuffer whole;
    whole.append(stream);
    EXPECT_EQ(whole.next(payload, error), FrameBuffer::Status::Error);
    FrameBuffer split;
    split.append(std::string_view(stream).substr(0, 17 * 1024));
    EXPECT_EQ(split.next(payload, error), FrameBuffer::Status::Error);
}

/// Everything a FrameBuffer yields for `stream` fed in the pieces that
/// `cuts` (sorted offsets) mark: one line per Frame (its payload and how
/// parse_rpc decoded it) and a final line for an Error. While a header
/// is still incomplete, at most kMaxFrameHeader bytes may be buffered.
std::string frame_events(const std::string& stream,
                         const std::vector<size_t>& cuts) {
    FrameBuffer fb;
    std::string out;
    size_t appended = 0;
    std::vector<size_t> ends = cuts;
    ends.push_back(stream.size());
    for (size_t end : ends) {
        fb.append(std::string_view(stream).substr(appended, end - appended));
        appended = end;
        for (;;) {
            std::string payload, error;
            FrameBuffer::Status st = fb.next(payload, error);
            if (st == FrameBuffer::Status::Error)
                return out + "error: " + error + "\n";
            if (st == FrameBuffer::Status::Need) {
                size_t start = appended - fb.buffered();
                bool header_done =
                    stream.substr(start, appended - start).find("\r\n\r\n") !=
                    std::string::npos;
                if (!header_done) {
                    EXPECT_LE(fb.buffered(), net::kMaxFrameHeader);
                }
                break;
            }
            serve::RpcMessage msg;
            std::string rpc_error;
            bool ok = serve::parse_rpc(payload, msg, rpc_error);
            out += "frame " + std::to_string(payload.size()) + " " + payload +
                   (ok ? " rpc " + msg.method : " not-rpc " + rpc_error) +
                   "\n";
        }
    }
    return out;
}

TEST(Framing, SplitIndependentProperty) {
    std::mt19937_64 rng(20261017);
    auto below = [&](size_t n) { return static_cast<size_t>(rng() % n); };
    auto valid_stream = [&] {
        std::string s;
        for (size_t f = 0, n = 1 + below(3); f < n; ++f) {
            std::string payload =
                below(4) == 0
                    ? std::string(below(64), static_cast<char>('a' + below(26)))
                    : "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(f) +
                          ",\"method\":\"status\",\"params\":{}}";
            std::string headers;
            if (below(3) == 0)
                headers += "Content-Type: application/json\r\n";
            if (below(4) == 0) // around the header cap
                headers += "X-Pad: " +
                           std::string(15 * 1024 + below(5 * 1024), 'p') +
                           "\r\n";
            s += headers + "Content-Length: " +
                 std::to_string(payload.size()) + "\r\n\r\n" + payload;
        }
        return s;
    };
    const std::string alphabet = "\r\n:{}\" 0123456789Content-Length";
    for (int i = 0; i < 300; ++i) {
        std::string stream = valid_stream();
        if (i % 3 == 1) { // mutated: flip, insert or drop a few bytes
            for (size_t m = 1 + below(4); m > 0 && !stream.empty(); --m) {
                size_t at = below(stream.size());
                char c = alphabet[below(alphabet.size())];
                switch (below(3)) {
                case 0: stream[at] = c; break;
                case 1: stream.insert(at, 1, c); break;
                default: stream.erase(at, 1); break;
                }
            }
        } else if (i % 3 == 2) { // random bytes, biased to header tokens
            stream.clear();
            for (size_t b = 0, n = below(2048); b < n; ++b)
                stream += below(2) ? alphabet[below(alphabet.size())]
                                   : static_cast<char>(rng());
        }
        std::string whole = frame_events(stream, {});
        for (int split = 0; split < 8; ++split) {
            std::vector<size_t> cuts;
            for (size_t c = 0, n = 1 + below(6); c < n && !stream.empty(); ++c)
                cuts.push_back(below(stream.size()));
            std::sort(cuts.begin(), cuts.end());
            ASSERT_EQ(frame_events(stream, cuts), whole)
                << "stream " << i << ", split " << split;
        }
        if (stream.size() <= 2048) {
            std::vector<size_t> every;
            for (size_t c = 1; c < stream.size(); ++c)
                every.push_back(c);
            ASSERT_EQ(frame_events(stream, every), whole)
                << "stream " << i << ", byte at a time";
        }
    }
}

TEST(Sockets, ConnectRefusedWhenNothingListens) {
    std::string path = tmp_path("nobody");
    std::string error;
    EXPECT_FALSE(UnixStream::connect(path, error).has_value());
    EXPECT_FALSE(net::socket_alive(path));
}

TEST(Sockets, BindAcceptEcho) {
    std::string path = tmp_path("echo");
    std::string error;
    auto listener = UnixListener::bind(path, error);
    ASSERT_TRUE(listener.has_value()) << error;
    EXPECT_TRUE(net::socket_alive(path));

    // socket_alive's connect-probe above left a (closed) pending
    // connection in the backlog; drain it before the real client.
    auto probe = listener->accept(error);
    ASSERT_TRUE(probe.has_value()) << error;

    auto client = UnixStream::connect(path, error);
    ASSERT_TRUE(client.has_value()) << error;
    auto served = listener->accept(error);
    ASSERT_TRUE(served.has_value()) << error;

    ASSERT_TRUE(net::write_frame(*client, "ping", error)) << error;
    net::FrameBuffer fb;
    std::string payload;
    ASSERT_TRUE(net::read_frame(*served, fb, payload, error)) << error;
    EXPECT_EQ(payload, "ping");

    listener->close_and_unlink();
    EXPECT_FALSE(fs::exists(path));
}

TEST(Sockets, LiveSocketRefused) {
    std::string path = tmp_path("live");
    std::string error;
    auto first = UnixListener::bind(path, error);
    ASSERT_TRUE(first.has_value()) << error;

    std::string second_error;
    EXPECT_FALSE(UnixListener::bind(path, second_error).has_value());
    EXPECT_NE(second_error.find("already listening"), std::string::npos)
        << second_error;
    // The loser must not have unlinked the winner's socket.
    EXPECT_TRUE(net::socket_alive(path));
}

TEST(Sockets, StaleSocketReclaimed) {
    std::string path = tmp_path("stale");
    // Simulate a daemon that died without cleanup: bind a raw socket,
    // close the fd, leave the filesystem entry behind.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    ::unlink(path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ::close(fd);
    ASSERT_TRUE(fs::exists(path));
    EXPECT_FALSE(net::socket_alive(path));

    // A new listener reclaims the dead path and serves on it.
    std::string error;
    auto listener = UnixListener::bind(path, error);
    ASSERT_TRUE(listener.has_value()) << error;
    EXPECT_TRUE(net::socket_alive(path));
}

TEST(Sockets, SendToHalfClosedPeerFailsWithoutSigpipe) {
    // Regression: writing to a peer that already closed its end must
    // surface as a false return from send_all, not kill the process
    // with SIGPIPE. No handler is installed here on purpose — if the
    // MSG_NOSIGNAL/SO_NOSIGPIPE plumbing regresses, this whole test
    // binary dies, which is exactly the failure being pinned.
    std::string path = tmp_path("sigpipe");
    std::string error;
    auto listener = UnixListener::bind(path, error);
    ASSERT_TRUE(listener.has_value()) << error;
    auto probe = listener->accept(error); // drain socket_alive's probe
    auto client = UnixStream::connect(path, error);
    ASSERT_TRUE(client.has_value()) << error;
    auto served = listener->accept(error);
    ASSERT_TRUE(served.has_value()) << error;

    served->close(); // half-close: client's fd is now a dead letter

    // The first send may land in the (already doomed) buffer; keep
    // writing until the kernel reports the broken pipe.
    std::string blob(256 * 1024, 'x');
    bool failed = false;
    for (int i = 0; i < 64 && !failed; ++i)
        failed = !client->send_all(blob, error);
    EXPECT_TRUE(failed);
    EXPECT_FALSE(error.empty());
}

TEST(Sockets, ConnectWithRetryWaitsForLateServer) {
    std::string path = tmp_path("late");
    ::unlink(path.c_str());

    // Server binds ~200 ms after the client starts dialing — a client
    // started alongside its daemon.
    std::thread server([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        std::string error;
        auto listener = UnixListener::bind(path, error);
        ASSERT_TRUE(listener.has_value()) << error;
        std::string accept_error;
        // Serve long enough for the client's winning attempt.
        for (int i = 0; i < 100; ++i) {
            if (auto conn = listener->accept(accept_error)) {
                std::string payload;
                net::FrameBuffer fb;
                std::string err;
                if (net::read_frame(*conn, fb, payload, err)) {
                    EXPECT_EQ(payload, "hello");
                }
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        FAIL() << "client never connected";
    });

    net::RetryOptions retry;
    retry.attempts = 40;
    retry.backoff_ms = 25;
    std::string error;
    auto stream = net::connect_with_retry(path, retry, error);
    ASSERT_TRUE(stream.has_value()) << error;
    EXPECT_TRUE(net::write_frame(*stream, "hello", error)) << error;
    server.join();
}

TEST(Sockets, ConnectWithRetryZeroAttemptsFailsFast) {
    std::string path = tmp_path("noretry");
    ::unlink(path.c_str());
    net::RetryOptions retry; // attempts = 0: single try
    std::string error;
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(net::connect_with_retry(path, retry, error).has_value());
    auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(1));
    EXPECT_FALSE(error.empty());
}

TEST(Sockets, NonSocketPathNeverTouched) {
    std::string path = tmp_path("regular");
    ::unlink(path.c_str());
    {
        std::ofstream f(path);
        f << "precious data\n";
    }
    std::string error;
    EXPECT_FALSE(UnixListener::bind(path, error).has_value());
    EXPECT_NE(error.find("not a socket"), std::string::npos) << error;
    // The file survives, contents intact.
    std::ifstream f(path);
    std::string line;
    std::getline(f, line);
    EXPECT_EQ(line, "precious data");
    ::unlink(path.c_str());
}

} // namespace
} // namespace svlc::test
