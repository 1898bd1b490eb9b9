/**
 * @file
 * Shared blocking client for the loopback server tests: one TCP
 * connection to 127.0.0.1 with a 10 s receive timeout. Every call
 * returns status and none asserts, so client threads stay gtest-safe
 * (tests EXPECT on the main thread only).
 *
 * Reads go through one buffer, so raw reads (recvN, recvUntilClose)
 * and framed reads (readLine, readN) can be mixed on a connection.
 */

#ifndef HICAMP_TESTS_LOOPBACK_CLIENT_HH
#define HICAMP_TESTS_LOOPBACK_CLIENT_HH

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

namespace hicamp {

class LoopbackClient
{
  public:
    explicit LoopbackClient(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return;
        timeval tv{10, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~LoopbackClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    LoopbackClient(const LoopbackClient &) = delete;
    LoopbackClient &operator=(const LoopbackClient &) = delete;

    bool ok() const { return fd_ >= 0; }

    bool
    send(std::string_view bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n =
                ::write(fd_, bytes.data() + off, bytes.size() - off);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Up to @p n bytes: fewer only on close or receive timeout. */
    std::string
    recvN(std::size_t n)
    {
        while (buf_.size() < n && fill()) {
        }
        return take(std::min(n, buf_.size()));
    }

    /** Everything until the server closes the connection. */
    std::string
    recvUntilClose()
    {
        while (fill()) {
        }
        return take(buf_.size());
    }

    /** One CRLF-terminated line, without the terminator. */
    bool
    readLine(std::string &line)
    {
        std::size_t from = 0;
        for (;;) {
            const std::size_t nl = buf_.find("\r\n", from);
            if (nl != std::string::npos) {
                line = take(nl + 2);
                line.resize(nl);
                return true;
            }
            from = buf_.empty() ? 0 : buf_.size() - 1;
            if (!fill())
                return false;
        }
    }

    /** Exactly @p n bytes (e.g. a data block and its CRLF). */
    bool
    readN(std::size_t n, std::string &out)
    {
        out = recvN(n);
        return out.size() == n;
    }

  private:
    bool
    fill()
    {
        char tmp[8192];
        const ssize_t n = ::read(fd_, tmp, sizeof tmp);
        if (n <= 0)
            return false;
        buf_.append(tmp, static_cast<std::size_t>(n));
        return true;
    }

    std::string
    take(std::size_t n)
    {
        std::string out = buf_.substr(0, n);
        buf_.erase(0, n);
        return out;
    }

    int fd_ = -1;
    std::string buf_;
};

} // namespace hicamp

#endif // HICAMP_TESTS_LOOPBACK_CLIENT_HH
