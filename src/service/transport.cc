#include "service/transport.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace icfp {
namespace service {

Endpoint
parseEndpoint(const std::string &spec)
{
    Endpoint ep;
    ep.spec = spec;
    const size_t colon = spec.rfind(':');
    if (colon != std::string::npos && colon > 0 &&
        spec.find('/') == std::string::npos) {
        const std::string port = spec.substr(colon + 1);
        const bool numeric =
            !port.empty() && port.size() <= 5 &&
            port.find_first_not_of("0123456789") == std::string::npos;
        if (numeric) {
            ep.kind = Endpoint::Kind::Tcp;
            ep.host = spec.substr(0, colon);
            ep.port = port;
            return ep;
        }
    }
    ep.kind = Endpoint::Kind::Unix;
    ep.path = spec;
    return ep;
}

namespace {

int
connectUnix(const Endpoint &ep)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.empty() || ep.path.size() >= sizeof(addr.sun_path))
        throw ProtocolError("socket path '" + ep.path +
                            "' is empty or too long");
    std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw ProtocolError(std::string("socket() failed: ") +
                            std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw ConnectError("cannot connect to " + ep.path + ": " + why +
                           " (is the daemon running?)");
    }
    return fd;
}

int
connectTcp(const Endpoint &ep)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *list = nullptr;
    const int gai =
        ::getaddrinfo(ep.host.c_str(), ep.port.c_str(), &hints, &list);
    if (gai != 0) {
        // Unresolvable is retryable on purpose: mid-restart DNS blips
        // and not-yet-registered container names look exactly like a
        // daemon that is not up yet.
        throw ConnectError("cannot resolve " + ep.spec + ": " +
                           ::gai_strerror(gai));
    }
    std::string why = "no addresses";
    int fd = -1;
    for (const addrinfo *ai = list; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            why = std::strerror(errno);
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        why = std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(list);
    if (fd < 0) {
        throw ConnectError("cannot connect to " + ep.spec + ": " + why +
                           " (is the daemon running?)");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

} // namespace

int
connectEndpoint(const Endpoint &endpoint)
{
    return endpoint.kind == Endpoint::Kind::Tcp ? connectTcp(endpoint)
                                                : connectUnix(endpoint);
}

int
connectSpec(const std::string &spec)
{
    return connectEndpoint(parseEndpoint(spec));
}

Listener::Listener(Listener &&other) noexcept
    : fd_(other.fd_), boundSpec_(std::move(other.boundSpec_))
{
    other.fd_ = -1;
}

Listener &
Listener::operator=(Listener &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        boundSpec_ = std::move(other.boundSpec_);
        other.fd_ = -1;
    }
    return *this;
}

void
Listener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Listener
Listener::listenUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("socket path '" + path +
                                 "' is empty or too long");
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error(std::string("socket() failed: ") +
                                 std::strerror(errno));
    }
    // A stale socket file from a dead daemon would make bind() fail —
    // but only ever remove an actual socket (a typo'd --socket naming a
    // regular file must not delete it), and only after proving no live
    // daemon still answers on it, or a second `serve` on the same path
    // would silently steal the first one's clients (and its shutdown
    // would delete the live daemon's socket file).
    struct stat existing{};
    const bool stale = ::lstat(path.c_str(), &existing) == 0;
    if (stale && !S_ISSOCK(existing.st_mode)) {
        ::close(fd);
        throw std::runtime_error(path + " exists and is not a socket");
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
        const bool live =
            ::connect(probe, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) == 0;
        ::close(probe);
        if (live) {
            ::close(fd);
            throw std::runtime_error("a daemon is already serving " +
                                     path);
        }
    }
    if (stale) {
        // A socket file nobody answers on: the previous daemon died
        // without its drain epilogue (SIGKILL, OOM, power loss).
        std::fprintf(stderr,
                     "icfp-sim serve: reclaimed stale socket %s\n",
                     path.c_str());
    }
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(fd, 64) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("cannot listen on " + path + ": " + why);
    }
    Listener listener;
    listener.fd_ = fd;
    listener.boundSpec_ = path;
    return listener;
}

Listener
Listener::listenTcp(const std::string &host_port)
{
    const Endpoint ep = parseEndpoint(host_port);
    if (ep.kind != Endpoint::Kind::Tcp) {
        throw std::runtime_error("'" + host_port +
                                 "' is not a host:port TCP endpoint");
    }
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo *list = nullptr;
    const int gai =
        ::getaddrinfo(ep.host.c_str(), ep.port.c_str(), &hints, &list);
    if (gai != 0) {
        throw std::runtime_error("cannot resolve " + host_port + ": " +
                                 ::gai_strerror(gai));
    }
    std::string why = "no addresses";
    int fd = -1;
    for (const addrinfo *ai = list; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            why = std::strerror(errno);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, 64) == 0) {
            break;
        }
        why = std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(list);
    if (fd < 0) {
        throw std::runtime_error("cannot listen on " + host_port + ": " +
                                 why);
    }
    // Report the actual port (":0" asks the kernel for an ephemeral
    // one — the test and single-host CI idiom).
    sockaddr_storage bound{};
    socklen_t len = sizeof bound;
    uint16_t port = 0;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) ==
        0) {
        if (bound.ss_family == AF_INET) {
            port = ntohs(
                reinterpret_cast<const sockaddr_in *>(&bound)->sin_port);
        } else if (bound.ss_family == AF_INET6) {
            port = ntohs(reinterpret_cast<const sockaddr_in6 *>(&bound)
                             ->sin6_port);
        }
    }
    Listener listener;
    listener.fd_ = fd;
    listener.boundSpec_ =
        ep.host + ":" + (port ? std::to_string(port) : ep.port);
    return listener;
}

} // namespace service
} // namespace icfp
