/**
 * @file
 * The simulation service wire protocol: newline-delimited JSON frames
 * over a Unix-domain stream socket.
 *
 * A frame is exactly one line of JSON — a *flat* object whose values
 * are strings or unsigned integers, nothing nested — terminated by a
 * single '\n'. Flat frames keep the codec small enough to be obviously
 * correct and strict (anything else is a ProtocolError, never a guess),
 * while string escaping lets one field carry an arbitrary embedded
 * artifact (a multi-line sweep CSV/JSON report travels as the escaped
 * "payload" string of a result frame, byte-preserved end to end).
 *
 * Session shape: on connect the SERVER speaks first with a versioned
 * handshake, then the client sends request frames and reads one or more
 * response frames per request:
 *
 *   server → {"type":"hello","proto":1,"sim":1,"fp":"<16-hex>"}
 *   client → {"type":"ping"}
 *   server → {"type":"pong","proto":1,"fp":"<16-hex>"}
 *
 * The handshake carries kProtocolVersion, kSimSemanticsVersion, and the
 * registry fingerprint (sim/version_info.hh) — the same identity blob
 * `icfp-sim version` prints and the ResultCache keys on — so a client
 * can tell immediately that a daemon was built from different simulator
 * semantics or workload definitions.
 *
 * Frame vocabulary (field lists in sim/service/server.cc, the one
 * producer):
 *   requests:  ping | submit | status | result | stats | cancel |
 *              metrics
 *   responses: hello | pong | submitted | busy | status | result |
 *              stats | cancelled | metrics | error
 *
 * `metrics` (additive, still v1) scrapes the daemon's metrics registry
 * (common/metrics.hh). The request may carry format ("text", the
 * Prometheus exposition, or "json", the flat JSON object) and scope
 * ("fleet", the default, or "local"; any other value is rejected).
 * Both scopes answer with this daemon's own exposition. The response
 * carries the exposition in payload plus uptime_sec.
 *
 * `cancel` names a job id; queued jobs are removed immediately, running
 * jobs are cancelled cooperatively at the engine's next row boundary.
 * `submit` may carry deadline_sec (a wall-clock limit enforced by the
 * server's watchdog; an expired job answers a deadline_exceeded error).
 * Both are additive — an old client simply never sends them — so the
 * protocol version stays 1.
 *
 * Two more v1-additive fields:
 *
 *  - `submit` may carry shard ("i/N", 1-based): the daemon runs only
 *    that round-robin slice of the grid and answers a shard-framed
 *    artifact (sim/merge.hh) instead of the plain report; `submitted`
 *    echoes shard and adds grid_rows (the full grid's row count).
 *    Malformed shard values are rejected with an error frame.
 *  - `status` WITHOUT a job id answers for the daemon itself: proto,
 *    fp, queue_depth, active, queued, draining, completed, failed,
 *    running_job (present only while a job runs).
 *
 * `submit` carries a sweep request (suite, benches, cores, insts, seed,
 * format) and an optional wait flag; the server answers `submitted`
 * (job id + grid fingerprint) or `busy` (bounded-queue backpressure —
 * an explicit refusal, never a silent drop), and, when wait was set, a
 * `result` frame on the same connection once the job completes.
 */

#ifndef ICFP_SERVICE_PROTOCOL_HH
#define ICFP_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace icfp {
namespace service {

/** Wire-protocol version, bumped on any frame-format change. Carried
 *  in the handshake; a mismatch is a clean client-side error. */
constexpr unsigned kProtocolVersion = 1;

/** A malformed frame or a violated session contract. */
class ProtocolError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** JSON string escaping for frame values ("..\n.." → "..\\n.."). */
std::string jsonEscape(const std::string &text);

/**
 * One wire frame: an ordered flat JSON object. Order is preserved so
 * serialization is deterministic (and tests can compare bytes).
 */
class Frame
{
  public:
    Frame() = default;

    /** Convenience: a frame with its "type" field already set. */
    explicit Frame(const std::string &type) { addString("type", type); }

    /** Append a string-valued field. */
    void addString(const std::string &key, const std::string &value);

    /** Append an unsigned-integer-valued field. */
    void addUint(const std::string &key, uint64_t value);

    /** The "type" field; "" if absent. */
    const std::string &type() const;

    bool has(const std::string &key) const;

    /** String value of @p key; @p fallback if absent. Returned by value
     *  so a temporary fallback can never dangle.
     *  @throws ProtocolError if present but not a string */
    std::string stringField(const std::string &key,
                            const std::string &fallback = "") const;

    /** Integer value of @p key, or nullopt if absent.
     *  @throws ProtocolError if present but not an unsigned integer */
    std::optional<uint64_t> uintField(const std::string &key) const;

    /** Integer value of @p key; @p fallback if absent. */
    uint64_t uintField(const std::string &key, uint64_t fallback) const;

    /** One JSON line, no trailing newline. */
    std::string serialize() const;

    /**
     * Parse one frame line (without its trailing newline). Strict: the
     * line must be exactly one flat JSON object with string keys and
     * string / unsigned-integer values — no nesting, no arrays, no
     * floats, no trailing text.
     * @throws ProtocolError on any malformed input
     */
    static Frame parse(const std::string &line);

    struct Field
    {
        std::string key;
        std::string value; ///< decoded string, or decimal digits
        bool isString = false;
    };

    const std::vector<Field> &fields() const { return fields_; }

  private:
    const Field *find(const std::string &key) const;

    std::vector<Field> fields_;
};

/** The server's opening handshake frame. */
Frame helloFrame();

/** An error response carrying a human-readable message. */
Frame errorFrame(const std::string &message);

/**
 * Read one '\n'-terminated frame line from @p fd, buffering leftover
 * bytes in @p buffer across calls. Returns nullopt on clean EOF at a
 * frame boundary.
 *
 * @param timeout_ms whole-frame read deadline in milliseconds; < 0
 *        waits forever (the server's choice — an idle session parked
 *        in read costs nothing and ends at drain via shutdown()).
 *        Clients pass a deadline so a daemon that accepts then stalls
 *        degrades to a clean error, never a hang.
 * @throws ProtocolError on mid-frame EOF, oversized frames, read
 *         errors, or an expired deadline
 */
std::optional<Frame> readFrame(int fd, std::string *buffer,
                               int timeout_ms = -1);

/** Write @p frame plus its '\n' terminator to @p fd (full write).
 *  @throws ProtocolError on write errors */
void writeFrame(int fd, const Frame &frame);

/** Frame lines are bounded (a full-suite sweep artifact is ~100KB;
 *  this leaves two orders of magnitude of headroom while still
 *  refusing a runaway or hostile peer). */
constexpr size_t kMaxFrameBytes = 16 * 1024 * 1024;

} // namespace service
} // namespace icfp

#endif // ICFP_SERVICE_PROTOCOL_HH
