#include "sim/trace_store.hh"

#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "isa/trace_io.hh"

namespace icfp {

namespace {

constexpr const char *kStoreSuffix = ".trc";

/** The blob key: u64(length) + keyString(). */
std::string
blobKey(const TraceId &id)
{
    const std::string text = id.keyString();
    std::string key;
    putU64(&key, text.size());
    return key + text;
}

} // namespace

std::string
TraceId::keyString() const
{
    // fmt guards against trace_io encoding changes (an old-format file
    // would pass the content hash yet be fatal to parse); gen guards
    // against generator semantic changes the hash cannot see; wl guards
    // against a single benchmark's definition changing
    // (BenchmarkSpec::defVersion).
    std::string key = "fmt=" + std::to_string(kTraceIoFormatVersion) +
                      " gen=" + std::to_string(kTraceGenVersion) +
                      " wl=" + std::to_string(defVersion) +
                      " bench=" + bench +
                      " insts=" + std::to_string(insts);
    key += seed ? " seed=" + std::to_string(*seed) : " seed=-";
    return key;
}

std::string
TraceId::fileName() const
{
    std::string name;
    for (const char c : bench) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        name += ok ? c : '_';
    }
    name += "-i" + std::to_string(insts);
    if (seed)
        name += "-s" + std::to_string(*seed);
    return name + kStoreSuffix;
}

TraceStore::TraceStore(std::string dir, uint64_t max_bytes)
    : blobs_(std::move(dir), "ICFPSTR1", kStoreSuffix, "trace_store",
             "icfp_trace_store_", max_bytes)
{
}

std::shared_ptr<TraceStore>
TraceStore::fromEnv()
{
    const char *dir = std::getenv("ICFP_TRACE_DIR");
    if (!dir || !*dir)
        return nullptr;
    return std::make_shared<TraceStore>(dir, maxBytesFromEnv());
}

uint64_t
TraceStore::maxBytesFromEnv()
{
    const char *mb = std::getenv("ICFP_TRACE_DIR_MAX_MB");
    if (!mb)
        return 0;
    const long long v = std::atoll(mb);
    return v > 0 ? static_cast<uint64_t>(v) * 1024 * 1024 : 0;
}

std::optional<Trace>
TraceStore::load(const TraceId &id)
{
    std::optional<std::string> payload =
        blobs_.get(id.fileName(), blobKey(id));
    if (!payload)
        return std::nullopt;
    // Move the payload into the stream (no copy).
    std::istringstream is(std::move(*payload));
    return readTrace(is);
}

void
TraceStore::store(const TraceId &id, const Trace &trace)
{
    std::ostringstream payload;
    writeTrace(payload, trace);
    // The store stays an optimization, so a failed write only warns.
    std::string err;
    if (!blobs_.put(id.fileName(), blobKey(id), std::move(payload).str(),
                    &err)) {
        ICFP_WARN("trace store: %s", err.c_str());
    }
}

} // namespace icfp
