#include "support/net.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace svlc::net {

namespace {

std::string errno_str(const char* what) {
    return std::string(what) + ": " + std::strerror(errno);
}

/// Fills a sockaddr_un; false when the path exceeds sun_path.
bool make_addr(const std::string& path, sockaddr_un& addr,
               std::string& error) {
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        error = "socket path '" + path + "' is empty or longer than " +
                std::to_string(sizeof(addr.sun_path) - 1) + " bytes";
        return false;
    }
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

/// Platforms without MSG_NOSIGNAL (macOS/BSD) suppress SIGPIPE per
/// socket instead; on Linux this is a no-op and send_all's MSG_NOSIGNAL
/// does the suppressing. Between the two, no peer disconnect can ever
/// raise SIGPIPE out of this module — a vanished client must be a false
/// return from send_all, never a dead daemon.
void set_nosigpipe(int fd) {
#ifdef SO_NOSIGPIPE
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#else
    (void)fd;
#endif
}

int cloexec_socket() {
#ifdef SOCK_CLOEXEC
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
#else
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0)
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
#endif
    if (fd >= 0)
        set_nosigpipe(fd);
    return fd;
}

} // namespace

UnixStream& UnixStream::operator=(UnixStream&& o) noexcept {
    if (this != &o) {
        close();
        fd_ = o.fd_;
        o.fd_ = -1;
    }
    return *this;
}

std::optional<UnixStream> UnixStream::connect(const std::string& path,
                                              std::string& error) {
    sockaddr_un addr;
    if (!make_addr(path, addr, error))
        return std::nullopt;
    int fd = cloexec_socket();
    if (fd < 0) {
        error = errno_str("socket");
        return std::nullopt;
    }
    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
        error = errno_str(("connect to '" + path + "'").c_str());
        ::close(fd);
        return std::nullopt;
    }
    return UnixStream(fd);
}

bool UnixStream::send_all(std::string_view data, std::string& error) {
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                           MSG_NOSIGNAL
#else
                           0
#endif
        );
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = errno_str("send");
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

long UnixStream::read_some(std::string& out, size_t cap) {
    char buf[64 * 1024];
    if (cap > sizeof buf)
        cap = sizeof buf;
    ssize_t n;
    do {
        n = ::read(fd_, buf, cap);
    } while (n < 0 && errno == EINTR);
    if (n > 0)
        out.append(buf, static_cast<size_t>(n));
    return static_cast<long>(n);
}

void UnixStream::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

UnixListener::UnixListener(UnixListener&& o) noexcept
    : fd_(o.fd_), path_(std::move(o.path_)) {
    o.fd_ = -1;
    o.path_.clear();
}

UnixListener::~UnixListener() { close_and_unlink(); }

void UnixListener::close_and_unlink() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (!path_.empty()) {
        ::unlink(path_.c_str());
        path_.clear();
    }
}

bool socket_alive(const std::string& path) {
    std::string ignored;
    return UnixStream::connect(path, ignored).has_value();
}

std::optional<UnixListener> UnixListener::bind(const std::string& path,
                                               std::string& error) {
    sockaddr_un addr;
    if (!make_addr(path, addr, error))
        return std::nullopt;

    struct stat st;
    if (::lstat(path.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode)) {
            error = "'" + path + "' exists and is not a socket; refusing "
                    "to replace it";
            return std::nullopt;
        }
        if (socket_alive(path)) {
            error = "a server is already listening on '" + path + "'";
            return std::nullopt;
        }
        // Stale socket from a daemon that died without cleanup: reclaim.
        if (::unlink(path.c_str()) < 0 && errno != ENOENT) {
            error = errno_str(("cannot remove stale socket '" + path + "'")
                                  .c_str());
            return std::nullopt;
        }
    }

    int fd = cloexec_socket();
    if (fd < 0) {
        error = errno_str("socket");
        return std::nullopt;
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
        error = errno_str(("bind '" + path + "'").c_str());
        ::close(fd);
        return std::nullopt;
    }
    if (::listen(fd, 64) < 0) {
        error = errno_str("listen");
        ::close(fd);
        ::unlink(path.c_str());
        return std::nullopt;
    }
    // Non-blocking accept: the serve loop polls, and a connection that
    // vanishes between poll() and accept() must not block the daemon.
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    return UnixListener(fd, path);
}

std::optional<UnixStream> UnixListener::accept(std::string& error) {
    int cfd;
    do {
        cfd = ::accept(fd_, nullptr, nullptr);
    } while (cfd < 0 && errno == EINTR);
    if (cfd < 0) {
        error = (errno == EAGAIN || errno == EWOULDBLOCK)
                    ? ""
                    : errno_str("accept");
        return std::nullopt;
    }
    ::fcntl(cfd, F_SETFD, FD_CLOEXEC);
    set_nosigpipe(cfd);
    return UnixStream(cfd);
}

// --- length framing --------------------------------------------------------

std::string make_frame(std::string_view payload) {
    std::string out = "Content-Length: " + std::to_string(payload.size()) +
                      "\r\n\r\n";
    out.append(payload);
    return out;
}

bool write_frame(UnixStream& s, std::string_view payload,
                 std::string& error) {
    return s.send_all(make_frame(payload), error);
}

FrameBuffer::Status FrameBuffer::next(std::string& payload,
                                      std::string& error) {
    // A header section, terminator included, longer than kMaxFrameHeader
    // is an attack or a protocol mismatch, not a slow writer. The cap is
    // on the header's length, so the verdict does not depend on how the
    // bytes arrived: an unterminated header errors as soon as no
    // terminator can end within the cap, a terminated one when it ends
    // past it.
    size_t header_end = buf_.find("\r\n\r\n");
    size_t header_len =
        header_end == std::string::npos ? buf_.size() + 1 : header_end + 4;
    if (header_len > kMaxFrameHeader) {
        error = "frame header exceeds " + std::to_string(kMaxFrameHeader) +
                " bytes";
        return Status::Error;
    }
    if (header_end == std::string::npos)
        return Status::Need;

    // Scan the header lines for Content-Length; ignore everything else
    // (Content-Type etc.), like an LSP endpoint.
    bool have_len = false;
    size_t len = 0;
    size_t line_start = 0;
    while (line_start < header_end) {
        size_t line_end = buf_.find("\r\n", line_start);
        if (line_end == std::string::npos || line_end > header_end)
            line_end = header_end;
        std::string_view line =
            std::string_view(buf_).substr(line_start, line_end - line_start);
        constexpr std::string_view kKey = "Content-Length:";
        if (line.size() > kKey.size() &&
            line.substr(0, kKey.size()) == kKey) {
            std::string_view v = line.substr(kKey.size());
            while (!v.empty() && v.front() == ' ')
                v.remove_prefix(1);
            if (v.empty()) {
                error = "empty Content-Length";
                return Status::Error;
            }
            size_t parsed = 0;
            for (char c : v) {
                if (c < '0' || c > '9') {
                    error = "malformed Content-Length value";
                    return Status::Error;
                }
                parsed = parsed * 10 + static_cast<size_t>(c - '0');
                if (parsed > kMaxFramePayload) {
                    error = "frame payload exceeds " +
                            std::to_string(kMaxFramePayload) + " bytes";
                    return Status::Error;
                }
            }
            have_len = true;
            len = parsed;
        }
        line_start = line_end + 2;
    }
    if (!have_len) {
        error = "frame header missing Content-Length";
        return Status::Error;
    }

    size_t body_start = header_end + 4;
    if (buf_.size() - body_start < len)
        return Status::Need;
    payload.assign(buf_, body_start, len);
    buf_.erase(0, body_start + len);
    return Status::Frame;
}

bool read_frame(UnixStream& s, FrameBuffer& fb, std::string& payload,
                std::string& error) {
    for (;;) {
        switch (fb.next(payload, error)) {
        case FrameBuffer::Status::Frame: return true;
        case FrameBuffer::Status::Error: return false;
        case FrameBuffer::Status::Need: break;
        }
        std::string chunk;
        long n = s.read_some(chunk);
        if (n < 0) {
            error = "read: " + std::string(std::strerror(errno));
            return false;
        }
        if (n == 0) {
            error = "connection closed";
            return false;
        }
        fb.append(chunk);
    }
}

} // namespace svlc::net
