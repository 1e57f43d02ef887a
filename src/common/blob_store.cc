#include "common/blob_store.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/durable_file.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace fs = std::filesystem;

namespace icfp {

namespace {

uint64_t
getU64(const std::string &s, size_t at)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(s[at + i]))
             << (8 * i);
    return v;
}

void
removeQuietly(const fs::path &path)
{
    std::error_code ec;
    fs::remove(path, ec);
}

} // namespace

uint64_t
fnv1a64(const void *data, size_t size)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    uint64_t hash = 14695981039346656037ull;
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

void
putU64(std::string *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out->push_back(static_cast<char>(v >> (8 * i)));
}

BlobStore::BlobStore(std::string dir, std::string magic, std::string suffix,
                     std::string fault_prefix, std::string metric_prefix,
                     uint64_t max_bytes)
    : dir_(std::move(dir)), magic_(std::move(magic)),
      suffix_(std::move(suffix)), fault_prefix_(std::move(fault_prefix)),
      metric_prefix_(std::move(metric_prefix)), max_bytes_(max_bytes)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        ICFP_WARN("%s: cannot create %s: %s", fault_prefix_.c_str(),
                  dir_.c_str(), ec.message().c_str());
        return;
    }
    ok_ = true;

    // Reclaim temp files orphaned by killed writers. They are invisible
    // to the byte cap (which scans *<suffix> only), so without this a
    // crash-looping writer would grow the directory past any cap. The
    // age threshold keeps live writers (ms between write and rename)
    // safe even with modest clock skew on shared filesystems.
    const std::string tmp_marker = suffix_ + ".tmp.";
    const auto stale_before =
        fs::file_time_type::clock::now() - std::chrono::minutes(15);
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        if (de.path().filename().string().find(tmp_marker) ==
            std::string::npos) {
            continue;
        }
        std::error_code fe;
        const fs::file_time_type mtime = de.last_write_time(fe);
        if (!fe && mtime < stale_before)
            removeQuietly(de.path());
    }
}

std::optional<std::string>
BlobStore::get(const std::string &file, const std::string &key)
{
    const fs::path path = fs::path(dir_) / file;
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    const std::streamoff end = is ? static_cast<std::streamoff>(is.tellg())
                                  : -1;
    if (end < 0) {
        count(&Stats::misses, "misses");
        return std::nullopt;
    }

    // Read the header, check it, then read the payload straight into
    // the returned string (no whole-file buffer, no payload copy).
    const uint64_t file_size = static_cast<uint64_t>(end);
    const size_t header = magic_.size() + key.size() + 16;
    std::string head(header, '\0');
    std::string payload;
    bool ok = file_size >= header && is.seekg(0) &&
              is.read(head.data(), header) &&
              head.compare(0, magic_.size(), magic_) == 0 &&
              head.compare(magic_.size(), key.size(), key) == 0 &&
              getU64(head, header - 8) == file_size - header;
    if (ok) {
        payload.resize(file_size - header);
        ok = is.read(payload.data(), payload.size()) &&
             fnv1a64(payload.data(), payload.size()) ==
                 getU64(head, header - 16);
    }
    if (!ok) {
        // Truncated, bit-flipped, stale or a colliding/renamed file:
        // drop it so the recomputed payload can be stored cleanly.
        removeQuietly(path);
        ICFP_WARN("%s: corrupt entry %s removed, will recompute",
                  fault_prefix_.c_str(), path.c_str());
        count(&Stats::corrupt, "corrupt");
        count(&Stats::misses, "misses");
        return std::nullopt;
    }

    // LRU touch (best effort): a hit makes this file newest.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    count(&Stats::hits, "hits");
    return payload;
}

bool
BlobStore::put(const std::string &file, const std::string &key,
               const std::string &payload, std::string *error)
{
    std::string blob;
    blob.reserve(magic_.size() + key.size() + 16 + payload.size());
    blob += magic_;
    blob += key;
    putU64(&blob, fnv1a64(payload.data(), payload.size()));
    putU64(&blob, payload.size());
    blob += payload;

    // Concurrent writers of the same file race benignly through unique
    // temps (the key is the full identity, so both candidates carry the
    // same bytes).
    const std::string path = (fs::path(dir_) / file).string();
    if (!writeFileDurable(path, blob, fault_prefix_.c_str(), error)) {
        count(&Stats::write_failures, "write_failures");
        return false;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    countLocked(&Stats::writes, "writes");
    if (max_bytes_ > 0)
        evictLocked(file);
    return true;
}

void
BlobStore::evictLocked(const std::string &keep_file)
{
    struct Entry
    {
        fs::path path;
        uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;
    uint64_t total = 0;
    std::error_code ec;
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        const fs::path &p = de.path();
        if (p.extension() != suffix_)
            continue;
        // Separate error codes: a successful second stat must not mask
        // a failed first one (a concurrently-replaced file could
        // otherwise contribute a garbage size to the running total).
        std::error_code size_ec, time_ec;
        const uint64_t size = de.file_size(size_ec);
        const fs::file_time_type mtime = de.last_write_time(time_ec);
        if (size_ec || time_ec)
            continue;
        entries.push_back({p, size, mtime});
        total += size;
    }
    if (ec || total <= max_bytes_)
        return;

    // Oldest first; ties broken by name for determinism. The file just
    // published is never evicted (it is what the caller is about to use).
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path.filename() < b.path.filename();
              });
    for (const Entry &e : entries) {
        if (total <= max_bytes_)
            break;
        if (e.path.filename() == keep_file)
            continue;
        removeQuietly(e.path);
        total -= e.size;
        countLocked(&Stats::evictions, "evictions");
    }
}

void
BlobStore::count(uint64_t Stats::*field, const char *name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    countLocked(field, name);
}

void
BlobStore::countLocked(uint64_t Stats::*field, const char *name)
{
    ++(stats_.*field);
    metrics::counter(metric_prefix_ + name).inc();
}

BlobStore::Stats
BlobStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace icfp
