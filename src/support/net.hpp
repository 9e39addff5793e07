// Unix-domain socket helpers and length framing for the `svlc serve`
// daemon and its clients (POSIX only, like the rest of the service
// layer).
//
// Framing is LSP-flavored so an editor shim is a header rewrite away:
//
//   Content-Length: <decimal byte count>\r\n
//   \r\n
//   <payload bytes>
//
// Unknown headers before the blank line are ignored; header sections
// longer than kMaxFrameHeader and payloads larger than kMaxFramePayload
// are a protocol error (the reader reports it instead of buffering
// without bound). FrameBuffer is incremental: feed it whatever read()
// returned and pull complete frames out, so a slow writer can never
// wedge the server mid-frame.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace svlc::net {

/// Upper bound on one frame's payload (64 MiB) — far above any real
/// request, small enough that a corrupt length cannot OOM the daemon.
inline constexpr size_t kMaxFramePayload = size_t{64} << 20;
/// Upper bound on one frame's header section, blank line included
/// (16 KiB). A longer header is an error however its bytes arrive.
inline constexpr size_t kMaxFrameHeader = size_t{16} << 10;

/// RAII connected stream socket. Movable, not copyable.
class UnixStream {
public:
    UnixStream() = default;
    explicit UnixStream(int fd) : fd_(fd) {}
    UnixStream(UnixStream&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    UnixStream& operator=(UnixStream&& o) noexcept;
    UnixStream(const UnixStream&) = delete;
    UnixStream& operator=(const UnixStream&) = delete;
    ~UnixStream() { close(); }

    /// Connects to a listening unix socket. nullopt (with `error` set)
    /// when nothing is listening or the path is unusable.
    static std::optional<UnixStream> connect(const std::string& path,
                                             std::string& error);

    [[nodiscard]] bool valid() const { return fd_ >= 0; }
    [[nodiscard]] int fd() const { return fd_; }

    /// Writes all of `data` (retrying short writes and EINTR). SIGPIPE is
    /// suppressed; a vanished peer is a false return, not a signal.
    bool send_all(std::string_view data, std::string& error);

    /// One read() of up to `cap` bytes into `out` (appended). Returns the
    /// byte count, 0 on orderly EOF, -1 on error. Blocks only as long as
    /// one read() does — pair with poll() for readiness.
    long read_some(std::string& out, size_t cap = 64 * 1024);

    void close();

private:
    int fd_ = -1;
};

/// RAII listening socket. Binding handles the stale-socket case: a path
/// whose previous daemon died (connect() refused) is unlinked and
/// reclaimed; a path with a live listener is refused with a clear error;
/// a path that is not a socket at all is never touched.
class UnixListener {
public:
    UnixListener(UnixListener&& o) noexcept;
    UnixListener(const UnixListener&) = delete;
    UnixListener& operator=(const UnixListener&) = delete;
    ~UnixListener();

    static std::optional<UnixListener> bind(const std::string& path,
                                            std::string& error);

    /// Accepts one pending connection; nullopt when none is pending
    /// (EAGAIN) or on error. Accepted streams are blocking.
    std::optional<UnixStream> accept(std::string& error);

    [[nodiscard]] int fd() const { return fd_; }
    [[nodiscard]] const std::string& path() const { return path_; }

    /// Closes the socket and removes the filesystem entry (also done by
    /// the destructor).
    void close_and_unlink();

private:
    UnixListener(int fd, std::string path)
        : fd_(fd), path_(std::move(path)) {}

    int fd_ = -1;
    std::string path_;
};

/// True when a unix socket at `path` accepts connections — i.e. a live
/// server owns it. False for dead sockets, missing paths, non-sockets.
bool socket_alive(const std::string& path);

/// Bounded reconnect policy for clients racing a server's startup (a
/// client launched alongside its daemon, `svlc client --retry`).
struct RetryOptions {
    /// Re-attempts after the first failed connect; 0 = single try.
    int attempts = 0;
    /// Base delay between attempts; attempt k sleeps ~k*backoff_ms
    /// (capped at 2 s) plus deterministic jitter so a fleet of workers
    /// does not reconnect in lockstep.
    uint64_t backoff_ms = 100;
};

/// UnixStream::connect with RetryOptions applied. Only "nothing is
/// listening yet" outcomes are retried — ECONNREFUSED (stale or
/// not-yet-listening socket) and ENOENT (path not created yet); every
/// other error (permission, path too long) fails immediately.
std::optional<UnixStream> connect_with_retry(const std::string& path,
                                             const RetryOptions& retry,
                                             std::string& error);

// --- length framing --------------------------------------------------------

/// Wraps `payload` in a Content-Length frame.
std::string make_frame(std::string_view payload);

/// make_frame + send_all.
bool write_frame(UnixStream& s, std::string_view payload,
                 std::string& error);

/// Incremental frame extractor: append() raw bytes as they arrive, then
/// drain complete frames with next().
class FrameBuffer {
public:
    void append(std::string_view data) { buf_.append(data); }

    /// Result of one extraction attempt.
    enum class Status {
        Frame, ///< `payload` holds one complete frame
        Need,  ///< no complete frame buffered yet
        Error, ///< malformed header or oversized frame (`error` set)
    };
    Status next(std::string& payload, std::string& error);

    [[nodiscard]] size_t buffered() const { return buf_.size(); }

private:
    std::string buf_;
};

/// Blocking helper for clients: reads from `s` into `fb` until one
/// complete frame is available. False on EOF, transport, or framing
/// error.
bool read_frame(UnixStream& s, FrameBuffer& fb, std::string& payload,
                std::string& error);

} // namespace svlc::net
