/**
 * @file
 * Process-wide observability registry: named counters, gauges, and
 * fixed-bucket histograms with lock-cheap atomic hot paths, plus the
 * span log that backs per-job Chrome-trace export.
 *
 * Design:
 *
 *  - Registration (name -> instrument) takes a mutex once; the returned
 *    reference is stable for the process lifetime, so hot paths hold a
 *    `Counter &` (usually via a function-local static) and pay exactly
 *    one relaxed atomic RMW per event.
 *  - Series names carry Prometheus-style labels inline:
 *    `icfp_replay_duration_us{bench="mcf",core="icfp"}`. The base name
 *    is everything before `{`.
 *  - Exposition is deterministic: families sorted by base name, series
 *    sorted by label set, values rendered as integers. Two formats
 *    share one code path — the Prometheus text format (`# TYPE` +
 *    samples) and a flat JSON object (sample name -> value) that
 *    stdlib `json.loads` and the frame-protocol ethos both like.
 *  - The JSON form is derived from the text format (parseExposition()
 *    -> renderExpositionJson()), so there is no second wire format.
 *  - Everything here is out-of-band by construction: instruments are
 *    observed, never read back into simulation or report code, so all
 *    artifacts stay byte-identical with metrics enabled.
 *
 * Timestamps (spans, ledger lines, uptime) share one steady-clock
 * epoch, processEpoch(), captured at first use — a trace span's `ts`
 * and a ledger line's `[t=12.345s]` prefix are directly comparable.
 */

#ifndef ICFP_COMMON_METRICS_HH
#define ICFP_COMMON_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace icfp {
namespace metrics {

/** The steady-clock instant all metric timestamps are relative to
 *  (captured on first call; thread-safe). */
std::chrono::steady_clock::time_point processEpoch();

/** Microseconds elapsed since processEpoch(). */
uint64_t nowMicros();

/** Whole seconds elapsed since processEpoch(). */
uint64_t uptimeSeconds();

/** Monotonic counter. */
class Counter
{
  public:
    void inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    Counter() = default;
    std::atomic<uint64_t> value_{0};
};

/** Instantaneous level (queue depth, cache bytes, ...). */
class Gauge
{
  public:
    void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
    void sub(int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }
    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    Gauge() = default;
    std::atomic<int64_t> value_{0};
};

/**
 * Fixed-bucket histogram over uint64 observations (we measure in
 * integer microseconds — exact under concurrency, unlike a float sum).
 * Bucket semantics match Prometheus: an observation lands in the first
 * bucket whose upper bound is >= the value (`le` is inclusive), values
 * above every bound land in the implicit +Inf overflow bucket, and the
 * text exposition renders cumulative counts.
 */
class Histogram
{
  public:
    void observe(uint64_t v);

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }
    const std::vector<uint64_t> &bounds() const { return bounds_; }
    /** Non-cumulative count of bucket @p i; i == bounds().size() is the
     *  +Inf overflow bucket. */
    uint64_t bucketCount(size_t i) const;

  private:
    friend class Registry;
    explicit Histogram(std::vector<uint64_t> bounds);
    std::vector<uint64_t> bounds_; ///< ascending upper bounds
    std::unique_ptr<std::atomic<uint64_t>[]> buckets_; ///< size()+1
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> count_{0};
};

/** Default duration buckets (microseconds): 100us .. 60s, roughly
 *  half-decade spacing — spans replay cells (~ms) through whole
 *  federated jobs (~minutes in the overflow bucket). */
const std::vector<uint64_t> &latencyBucketsUs();

/**
 * The process-wide instrument registry. `instance()` is a leaked
 * singleton so instruments outlive every thread that might still
 * observe into them during shutdown.
 *
 * A name must keep one kind (and, for histograms, one bound set) for
 * the process lifetime; re-registering differently is a fatal
 * programmer error, not a runtime condition.
 */
class Registry
{
  public:
    static Registry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name,
                         const std::vector<uint64_t> &bounds);

    /** Prometheus text exposition, deterministically ordered. */
    std::string textExposition() const;
    /** Flat JSON object (sample name -> integer), same order. */
    std::string jsonExposition() const;

    /** Number of registered series (not expanded samples). */
    size_t seriesCount() const;

    /** Zero every instrument's value (registrations survive). Tests
     *  only — production counters are monotonic by contract. */
    void resetForTest();

  private:
    Registry() = default;

    struct Entry
    {
        char kind = 0; ///< 'c' | 'g' | 'h'
        std::string base;   ///< name before '{'
        std::string labels; ///< inside the braces ("" if none)
        std::unique_ptr<Counter> c;
        std::unique_ptr<Gauge> g;
        std::unique_ptr<Histogram> h;
    };

    Entry &entryLocked(const std::string &name, char kind);

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
};

/** Convenience accessors on Registry::instance(). */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name,
                     const std::vector<uint64_t> &bounds);

/** Escape a value for use inside a label (`\` and `"` and newline). */
std::string escapeLabelValue(const std::string &value);

// ------------------------------------------------------------------
// Exposition plumbing (parse / render) — what the --json renderer is
// built from.

/** One exposition family: a `# TYPE` line plus its sample lines
 *  (sample name with labels, integer value), in emission order. */
struct ExpositionFamily
{
    std::string base;
    std::string kind; ///< "counter" | "gauge" | "histogram" | "untyped"
    std::vector<std::pair<std::string, int64_t>> samples;
};

/** Parse a text exposition produced by textExposition(). Unknown/blank
 *  lines are skipped; samples seen before any `# TYPE` become their own
 *  untyped family. */
std::vector<ExpositionFamily> parseExposition(const std::string &text);

/** Render families back to the text format (family order preserved). */
std::string renderExpositionText(const std::vector<ExpositionFamily> &families);

/** Render families as the flat JSON object form. */
std::string renderExpositionJson(const std::vector<ExpositionFamily> &families);

/** Text exposition -> the flat JSON object form. */
std::string expositionTextToJson(const std::string &text);

// ------------------------------------------------------------------
// Per-job phase spans -> Chrome trace-event JSON.

/** One closed phase span, timestamps in microseconds since
 *  processEpoch(). */
struct Span
{
    std::string name;
    uint64_t startUs = 0;
    uint64_t durUs = 0;
    std::vector<std::pair<std::string, std::string>> args;
};

/** Thread-safe append-only span collector; one per traced job. */
class SpanLog
{
  public:
    void add(std::string name, uint64_t start_us, uint64_t end_us,
             std::vector<std::pair<std::string, std::string>> args = {});
    std::vector<Span> snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * Render spans as a Chrome trace-event-format JSON document (complete
 * "X" events, microsecond timestamps) that loads directly in
 * chrome://tracing and Perfetto. @p job_id becomes the pid so traces
 * from several jobs can be viewed side by side; @p outcome is carried
 * in the process-name metadata event.
 */
std::string chromeTraceJson(const std::vector<Span> &spans, uint64_t job_id,
                            const std::string &outcome);

} // namespace metrics
} // namespace icfp

#endif // ICFP_COMMON_METRICS_HH
