// support/net: Content-Length framing (incremental extraction, malformed
// headers, oversized payloads) and Unix-socket lifecycle — in particular
// the stale-socket startup rules: a dead daemon's socket is reclaimed, a
// live daemon's socket is refused, and a non-socket path is never
// touched.
#include "support/net.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <filesystem>
#include <string>
#include <thread>

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
