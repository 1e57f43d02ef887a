#include "common/metrics.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace icfp {
namespace metrics {

namespace {

/** Minimal JSON string escape for exposition keys / trace args (the
 *  full frame protocol has its own; this keeps common/ dependency-free). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Split "base{labels}" -> (base, labels-without-braces). */
void
splitName(const std::string &name, std::string *base, std::string *labels)
{
    const size_t brace = name.find('{');
    if (brace == std::string::npos) {
        *base = name;
        labels->clear();
        return;
    }
    ICFP_ASSERT(name.size() >= brace + 2 && name.back() == '}');
    *base = name.substr(0, brace);
    *labels = name.substr(brace + 1, name.size() - brace - 2);
}

/** Rebuild a sample name from base + label text ("" -> no braces). */
std::string
joinName(const std::string &base, const std::string &labels)
{
    if (labels.empty())
        return base;
    return base + "{" + labels + "}";
}

} // namespace

std::chrono::steady_clock::time_point
processEpoch()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return epoch;
}

uint64_t
nowMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - processEpoch())
        .count();
}

uint64_t
uptimeSeconds()
{
    return nowMicros() / 1000000;
}

// ------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds))
{
    ICFP_ASSERT(!bounds_.empty());
    ICFP_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()));
    buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(uint64_t v)
{
    // le is inclusive (Prometheus): the first bound >= v takes it.
    const size_t bucket =
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin();
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t
Histogram::bucketCount(size_t i) const
{
    ICFP_ASSERT(i <= bounds_.size());
    return buckets_[i].load(std::memory_order_relaxed);
}

const std::vector<uint64_t> &
latencyBucketsUs()
{
    static const std::vector<uint64_t> buckets = {
        100,     500,     1000,    5000,     10000,    50000,
        100000,  500000,  1000000, 5000000,  10000000, 60000000,
    };
    return buckets;
}

// ------------------------------------------------------------------
// Registry

Registry &
Registry::instance()
{
    // Leaked on purpose: instruments must outlive any thread that may
    // still observe into them during process teardown.
    static Registry *registry = new Registry;
    return *registry;
}

Registry::Entry &
Registry::entryLocked(const std::string &name, char kind)
{
    ICFP_ASSERT(!name.empty() && name[0] != '{');
    auto [it, inserted] = entries_.try_emplace(name);
    Entry &entry = it->second;
    if (inserted) {
        entry.kind = kind;
        splitName(name, &entry.base, &entry.labels);
    } else if (entry.kind != kind) {
        ICFP_FATAL("metric '%s' registered as two kinds ('%c' vs '%c')",
                   name.c_str(), entry.kind, kind);
    }
    return entry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = entryLocked(name, 'c');
    if (!entry.c)
        entry.c.reset(new Counter);
    return *entry.c;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = entryLocked(name, 'g');
    if (!entry.g)
        entry.g.reset(new Gauge);
    return *entry.g;
}

Histogram &
Registry::histogram(const std::string &name,
                    const std::vector<uint64_t> &bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = entryLocked(name, 'h');
    if (!entry.h) {
        entry.h.reset(new Histogram(bounds));
    } else if (entry.h->bounds() != bounds) {
        ICFP_FATAL("histogram '%s' re-registered with different buckets",
                   name.c_str());
    }
    return *entry.h;
}

size_t
Registry::seriesCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
Registry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, entry] : entries_) {
        if (entry.c)
            entry.c->value_.store(0, std::memory_order_relaxed);
        if (entry.g)
            entry.g->value_.store(0, std::memory_order_relaxed);
        if (entry.h) {
            Histogram &h = *entry.h;
            for (size_t i = 0; i <= h.bounds_.size(); ++i)
                h.buckets_[i].store(0, std::memory_order_relaxed);
            h.sum_.store(0, std::memory_order_relaxed);
            h.count_.store(0, std::memory_order_relaxed);
        }
    }
}

namespace {

const char *
kindName(char kind)
{
    switch (kind) {
      case 'c': return "counter";
      case 'g': return "gauge";
      case 'h': return "histogram";
    }
    return "untyped";
}

} // namespace

std::string
Registry::textExposition() const
{
    std::vector<ExpositionFamily> families;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // entries_ iterates sorted by full name, but a labelled series
        // and a longer base sharing a prefix can interleave ('{' sorts
        // after '_'); group by base explicitly so each family is
        // contiguous, then keep series sorted by label set within it.
        std::map<std::string, ExpositionFamily> by_base;
        for (const auto &[name, entry] : entries_) {
            ExpositionFamily &family = by_base[entry.base];
            if (family.base.empty()) {
                family.base = entry.base;
                family.kind = kindName(entry.kind);
            }
            if (entry.kind == 'h') {
                const Histogram &h = *entry.h;
                uint64_t cumulative = 0;
                std::string labels = entry.labels;
                if (!labels.empty())
                    labels += ",";
                for (size_t i = 0; i < h.bounds().size(); ++i) {
                    cumulative += h.bucketCount(i);
                    family.samples.emplace_back(
                        entry.base + "_bucket{" + labels + "le=\"" +
                            std::to_string(h.bounds()[i]) + "\"}",
                        static_cast<int64_t>(cumulative));
                }
                family.samples.emplace_back(
                    entry.base + "_bucket{" + labels + "le=\"+Inf\"}",
                    static_cast<int64_t>(h.count()));
                family.samples.emplace_back(
                    joinName(entry.base + "_sum", entry.labels),
                    static_cast<int64_t>(h.sum()));
                family.samples.emplace_back(
                    joinName(entry.base + "_count", entry.labels),
                    static_cast<int64_t>(h.count()));
            } else if (entry.kind == 'c') {
                family.samples.emplace_back(
                    joinName(entry.base, entry.labels),
                    static_cast<int64_t>(entry.c->value()));
            } else {
                family.samples.emplace_back(
                    joinName(entry.base, entry.labels),
                    entry.g->value());
            }
        }
        families.reserve(by_base.size());
        for (auto &[base, family] : by_base)
            families.push_back(std::move(family));
    }
    return renderExpositionText(families);
}

std::string
Registry::jsonExposition() const
{
    return expositionTextToJson(textExposition());
}

Counter &
counter(const std::string &name)
{
    return Registry::instance().counter(name);
}

Gauge &
gauge(const std::string &name)
{
    return Registry::instance().gauge(name);
}

Histogram &
histogram(const std::string &name, const std::vector<uint64_t> &bounds)
{
    return Registry::instance().histogram(name, bounds);
}

std::string
escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

// ------------------------------------------------------------------
// Exposition parse / render

std::vector<ExpositionFamily>
parseExposition(const std::string &text)
{
    std::vector<ExpositionFamily> families;
    size_t at = 0;
    while (at < text.size()) {
        const size_t nl = text.find('\n', at);
        const std::string line =
            text.substr(at, nl == std::string::npos ? std::string::npos
                                                    : nl - at);
        at = nl == std::string::npos ? text.size() : nl + 1;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            // "# TYPE <base> <kind>" opens a family; other comments are
            // dropped (we never emit any).
            if (line.rfind("# TYPE ", 0) != 0)
                continue;
            const std::string rest = line.substr(7);
            const size_t space = rest.find(' ');
            if (space == std::string::npos)
                continue;
            ExpositionFamily family;
            family.base = rest.substr(0, space);
            family.kind = rest.substr(space + 1);
            families.push_back(std::move(family));
            continue;
        }
        // Sample: "<name>[{labels}] <value>". The value is the text
        // after the LAST space — label values may themselves contain
        // spaces, but never a bare integer at end of line.
        const size_t space = line.rfind(' ');
        if (space == std::string::npos || space + 1 >= line.size())
            continue;
        const std::string name = line.substr(0, space);
        const int64_t value =
            std::strtoll(line.c_str() + space + 1, nullptr, 10);
        if (families.empty()) {
            // A sample with no preceding TYPE: its own untyped family.
            std::string base, labels;
            splitName(name, &base, &labels);
            ExpositionFamily family;
            family.base = base;
            family.kind = "untyped";
            families.push_back(std::move(family));
        }
        families.back().samples.emplace_back(name, value);
    }
    return families;
}

std::string
renderExpositionText(const std::vector<ExpositionFamily> &families)
{
    std::string out;
    for (const ExpositionFamily &family : families) {
        out += "# TYPE " + family.base + " " + family.kind + "\n";
        for (const auto &[name, value] : family.samples)
            out += name + " " + std::to_string(value) + "\n";
    }
    return out;
}

std::string
renderExpositionJson(const std::vector<ExpositionFamily> &families)
{
    std::string out = "{";
    bool first = true;
    for (const ExpositionFamily &family : families) {
        for (const auto &[name, value] : family.samples) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "  \"" + jsonEscape(name) + "\": " +
                   std::to_string(value);
        }
    }
    out += first ? "}" : "\n}";
    return out;
}

std::string
expositionTextToJson(const std::string &text)
{
    return renderExpositionJson(parseExposition(text));
}

// ------------------------------------------------------------------
// Span log -> Chrome trace

void
SpanLog::add(std::string name, uint64_t start_us, uint64_t end_us,
             std::vector<std::pair<std::string, std::string>> args)
{
    Span span;
    span.name = std::move(name);
    span.startUs = start_us;
    span.durUs = end_us > start_us ? end_us - start_us : 0;
    span.args = std::move(args);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::string
chromeTraceJson(const std::vector<Span> &spans, uint64_t job_id,
                const std::string &outcome)
{
    // Spans sorted by start time (ties: insertion order kept) so the
    // document is deterministic even when phases land from racing
    // worker threads.
    std::vector<Span> ordered = spans;
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Span &a, const Span &b) {
                         return a.startUs < b.startUs;
                     });

    const std::string pid = std::to_string(job_id);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + pid +
           ",\"tid\":0,\"args\":{\"name\":\"icfp-sim job " + pid +
           "\",\"outcome\":\"" + jsonEscape(outcome) + "\"}}";
    for (const Span &span : ordered) {
        out += ",\n{\"name\":\"" + jsonEscape(span.name) +
               "\",\"ph\":\"X\",\"ts\":" + std::to_string(span.startUs) +
               ",\"dur\":" + std::to_string(span.durUs) + ",\"pid\":" +
               pid + ",\"tid\":0,\"args\":{";
        bool first = true;
        for (const auto &[key, value] : span.args) {
            if (!first)
                out += ",";
            first = false;
            out += "\"" + jsonEscape(key) + "\":\"" + jsonEscape(value) +
                   "\"";
        }
        out += "}}";
    }
    out += "\n]}\n";
    return out;
}

} // namespace metrics
} // namespace icfp
