#include "service/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "service/transport.hh"

namespace icfp {
namespace service {

ServiceClient::ServiceClient(const std::string &socket_path,
                             const ClientOptions &options)
    : options_(options)
{
    // Connection retry loop: only ConnectError (refused, missing
    // socket, peer death mid-handshake) re-attempts — those are what a
    // daemon mid-restart looks like and resolve by waiting. Everything
    // else (version mismatch, read timeout) is not transient and
    // propagates immediately.
    unsigned attempt = 0;
    while (true) {
        try {
            connectOnce(socket_path);
            return;
        } catch (const ConnectError &e) {
            if (attempt >= options_.retries)
                throw;
            const std::chrono::milliseconds backoff(
                attempt >= 5 ? 2000LL
                             : std::min<long long>(100LL << attempt, 2000));
            ++attempt;
            std::fprintf(stderr,
                         "icfp-sim: connect attempt %u/%u failed (%s), "
                         "retrying in %lldms\n",
                         attempt, options_.retries + 1, e.what(),
                         (long long)backoff.count());
            std::this_thread::sleep_for(backoff);
        }
    }
}

void
ServiceClient::connectOnce(const std::string &socket_path)
{
    // The spec names either transport (service/transport.hh): a Unix
    // path or a TCP host:port — the frame protocol is identical on both.
    fd_ = connectSpec(socket_path);

    try {
        hello_ = readFrame();
    } catch (const ProtocolError &e) {
        ::close(fd_);
        fd_ = -1;
        buffer_.clear();
        // EOF or torn bytes before the hello: the daemon died under us
        // (e.g. drained between accept and handshake) — retryable. A
        // timeout stays a plain ProtocolError: the daemon is alive but
        // stalled, and reconnecting would just hang again.
        const std::string what = e.what();
        if (what.find("timed out") != std::string::npos)
            throw;
        throw ConnectError("daemon hung up during handshake (" + what +
                           ")");
    }
    if (hello_.type() != "hello") {
        throw ProtocolError("expected a hello handshake, got '" +
                            hello_.type() + "'");
    }
    const uint64_t proto = hello_.uintField("proto", 0);
    if (proto != kProtocolVersion) {
        throw ProtocolError(
            "protocol version mismatch: daemon speaks v" +
            std::to_string(proto) + ", this client speaks v" +
            std::to_string(kProtocolVersion));
    }
}

ServiceClient::~ServiceClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Frame
ServiceClient::request(const Frame &request)
{
    send(request);
    return readFrame();
}

Frame
ServiceClient::readFrame()
{
    const int timeout_ms =
        options_.timeoutSec ? static_cast<int>(options_.timeoutSec) * 1000
                            : -1;
    std::optional<Frame> frame =
        service::readFrame(fd_, &buffer_, timeout_ms);
    if (!frame)
        throw ProtocolError("server closed the connection");
    return std::move(*frame);
}

void
ServiceClient::send(const Frame &frame)
{
    writeFrame(fd_, frame);
}

void
ServiceClient::sendRaw(const std::string &bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd_, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("write failed: ") +
                                std::strerror(errno));
        }
        sent += static_cast<size_t>(n);
    }
}

} // namespace service
} // namespace icfp
