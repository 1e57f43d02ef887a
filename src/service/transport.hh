/**
 * @file
 * Transport abstraction for the frame protocol: the same NDJSON frames
 * (service/protocol.hh) run over Unix-domain stream sockets (the local
 * daemon case) and TCP (clients on other hosts).
 *
 * An endpoint spec is one string, classified by shape:
 *
 *   "/run/icfp.sock"    → Unix-domain path (anything that is not
 *   "./svc.sock"          host:port — the historical --socket form)
 *   "127.0.0.1:7101"    → TCP host:port (last ':' followed by an
 *   "host-3:7101"         all-digit port, no '/' in the spec)
 *
 * Both sides use it: `serve --listen-tcp host:port` opens a TCP
 * Listener next to the Unix one, and every client verb's --socket
 * accepts either form. Frame framing is transport-agnostic by
 * construction — readFrame()/writeFrame() only see an fd — so the
 * poll-based whole-frame deadlines, the 16MB bound, and the strict
 * parser apply identically over TCP, partial reads and torn frames
 * included.
 *
 * Connect-level failures throw ConnectError (the retryable subset of
 * ProtocolError: refused, unreachable, unresolvable, daemon died during
 * the handshake); everything else stays a plain ProtocolError.
 */

#ifndef ICFP_SERVICE_TRANSPORT_HH
#define ICFP_SERVICE_TRANSPORT_HH

#include <cstdint>
#include <string>

#include "service/protocol.hh"

namespace icfp {
namespace service {

/** Connection-level failure: refused, socket missing, host unreachable,
 *  or the daemon hung up before completing the handshake. The retryable
 *  subset of ProtocolError — a daemon mid-restart shows exactly these. */
class ConnectError : public ProtocolError
{
  public:
    using ProtocolError::ProtocolError;
};

/** One parsed endpoint spec. */
struct Endpoint
{
    enum class Kind { Unix, Tcp };
    Kind kind = Kind::Unix;
    std::string path; ///< Unix: the socket path
    std::string host; ///< TCP: host name or address
    std::string port; ///< TCP: decimal port
    std::string spec; ///< the original text, for error messages
};

/**
 * Classify @p spec as TCP ("host:port" — the last ':' is followed by
 * 1-5 digits, the host part is non-empty, and the spec contains no
 * '/') or a Unix-domain socket path (everything else).
 */
Endpoint parseEndpoint(const std::string &spec);

/**
 * Connect a stream socket to @p endpoint (TCP_NODELAY on TCP — frames
 * are request/response sized and must not sit in Nagle's buffer).
 * @throws ConnectError if nothing answers at the endpoint
 * @throws ProtocolError on malformed specs (empty/overlong paths)
 */
int connectEndpoint(const Endpoint &endpoint);

/** parseEndpoint() + connectEndpoint(). */
int connectSpec(const std::string &spec);

/**
 * A bound, listening server socket over either transport. Move-only;
 * closes its fd on destruction. The owner removes Unix socket *files*
 * itself (the daemon's drain epilogue already does), so a Listener can
 * be closed without yanking the path from under a successor.
 */
class Listener
{
  public:
    Listener() = default;
    ~Listener() { close(); }
    Listener(Listener &&other) noexcept;
    Listener &operator=(Listener &&other) noexcept;
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Bind + listen on a Unix path, with the daemon's safety guards:
     * refuse a non-socket file at the path, refuse a path a live daemon
     * still answers on, and reclaim (with a stderr notice) a stale
     * socket file left by a daemon that died without its drain.
     * @throws std::runtime_error on any refusal or syscall failure
     */
    static Listener listenUnix(const std::string &path);

    /**
     * Bind + listen on "host:port" (SO_REUSEADDR; port 0 picks an
     * ephemeral port — boundSpec() reports the actual one).
     * @throws std::runtime_error on resolve/bind/listen failure
     */
    static Listener listenTcp(const std::string &host_port);

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** A spec a client could connect to ("path" or "host:actual-port"). */
    const std::string &boundSpec() const { return boundSpec_; }

    void close();

  private:
    int fd_ = -1;
    std::string boundSpec_;
};

} // namespace service
} // namespace icfp

#endif // ICFP_SERVICE_TRANSPORT_HH
