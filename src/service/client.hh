/**
 * @file
 * Client side of the simulation service: connect to a daemon's endpoint
 * (a Unix socket path or a TCP host:port — see service/transport.hh for
 * the spec grammar), verify the versioned handshake, and exchange
 * frames. Wraps the blocking socket plumbing so the CLI verbs
 * (`icfp-sim submit / status / result / ping / cancel`) and the tests
 * are one-liners over frames.
 *
 * @code
 *   ServiceClient client("/run/icfp.sock");   // connects + checks hello
 *   Frame submit("submit");
 *   submit.addString("benches", "mcf,equake");
 *   submit.addUint("wait", 1);
 *   Frame ack = client.request(submit);       // "submitted" (or busy)
 *   Frame result = client.readFrame();        // blocks until done
 * @endcode
 *
 * Resilience against a flapping daemon (ClientOptions):
 *
 *  - timeoutSec puts a whole-frame deadline on every read, the
 *    handshake included, so a daemon that accepts then stalls degrades
 *    to a clean ProtocolError instead of wedging the client forever.
 *  - retries re-attempts the *connection* with exponential backoff
 *    (100ms doubling, capped at 2s) on the retryable failures: connect
 *    refused / socket missing (ConnectError) and the peer vanishing
 *    mid-handshake. A read timeout is deliberately NOT retryable —
 *    against a daemon that accepts and stalls, retrying would multiply
 *    the hang by the retry count instead of surfacing it.
 *
 * All failures — no daemon, handshake mismatch, malformed frames,
 * expired deadlines — throw ProtocolError (ConnectError for the
 * couldn't-even-connect subset) with a message fit for the CLI.
 */

#ifndef ICFP_SERVICE_CLIENT_HH
#define ICFP_SERVICE_CLIENT_HH

#include <string>

#include "service/transport.hh" // ConnectError, endpoint specs
#include "service/protocol.hh"

namespace icfp {
namespace service {

struct ClientOptions
{
    /** Whole-frame read deadline in seconds; 0 = wait forever. For a
     *  wait-submit this must exceed the expected job time — the result
     *  frame arrives only when the job finishes. */
    unsigned timeoutSec = 0;
    /** Connection retries after the first attempt (exponential
     *  backoff); 0 = fail on the first ConnectError. */
    unsigned retries = 0;
};

class ServiceClient
{
  public:
    /**
     * Connect to @p socket_path (retrying per @p options) and consume
     * the server's hello.
     * @throws ConnectError if the daemon stays unreachable through
     *         every retry
     * @throws ProtocolError on handshake mismatch or read timeout
     */
    explicit ServiceClient(const std::string &socket_path,
                           const ClientOptions &options = {});

    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /** The server's handshake frame (sim version + registry fp). */
    const Frame &hello() const { return hello_; }

    /** Send @p request and read the next response frame. */
    Frame request(const Frame &request);

    /** Read the next frame (e.g. the result after a wait-submit).
     *  @throws ProtocolError on EOF — the server never just hangs up
     *  mid-session — or on an expired read deadline */
    Frame readFrame();

    void send(const Frame &frame);

    /** Ship raw bytes (tests exercise malformed-frame handling). */
    void sendRaw(const std::string &bytes);

  private:
    /** One connect + handshake attempt; throws ConnectError on the
     *  retryable failures. */
    void connectOnce(const std::string &socket_path);

    ClientOptions options_;
    int fd_ = -1;
    std::string buffer_;
    Frame hello_;
};

} // namespace service
} // namespace icfp

#endif // ICFP_SERVICE_CLIENT_HH
