#include "service/result_cache.hh"

#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/merge.hh"
#include "sim/version_info.hh"

namespace icfp {
namespace service {

namespace {

/** Registry mirror of stats_ (the scrape surface; stats_ stays the
 *  per-cache accessor). */
void
countCacheEvent(const char *name)
{
    metrics::counter(std::string("icfp_result_cache_") + name).inc();
}

std::string
diskFile(uint64_t key)
{
    return fingerprintHex(key) + ".res";
}

std::string
diskKey(uint64_t key)
{
    std::string bytes;
    putU64(&bytes, key);
    return bytes;
}

} // namespace

const char *
cacheTierName(CacheTier tier)
{
    switch (tier) {
      case CacheTier::None: return "none";
      case CacheTier::Memory: return "memory";
      case CacheTier::Disk: return "disk";
    }
    return "?";
}

uint64_t
resultCacheKey(const std::vector<SweepJob> &grid, uint64_t insts,
               std::optional<uint64_t> seed, const std::string &suite,
               const std::string &format, uint64_t registry_fp,
               const std::string &shard_identity)
{
    // gridFingerprint already covers benches, variant labels, cores,
    // insts, seed, sim-semantics + trace-gen versions, and the report
    // schema; the extra identity adds what a *service* request also
    // varies on (suite namespace, output format, shard slice) and the
    // registry fingerprint (per-bench defVersions, registry contents).
    std::string extra = "suite=" + suite + " format=" + format +
                        " rfp=" + fingerprintHex(registry_fp);
    if (!shard_identity.empty())
        extra += " " + shard_identity;
    return gridFingerprint(grid, insts, seed, extra);
}

ResultCache::ResultCache(uint64_t max_bytes, std::string dir)
    : max_bytes_(max_bytes)
{
    if (dir.empty())
        return;
    disk_.emplace(std::move(dir), "ICFPRES1", ".res", "result_cache",
                  "icfp_result_cache_disk_", max_bytes);
    if (!disk_->ok()) {
        ICFP_WARN("result cache: disk tier off");
        disk_.reset();
    }
}

std::optional<std::string>
ResultCache::lookup(uint64_t key, CacheTier *tier)
{
    if (tier)
        *tier = CacheTier::None;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second); // refresh: now newest
        ++stats_.hits;
        countCacheEvent("hits");
        if (tier)
            *tier = CacheTier::Memory;
        return it->second->artifact;
    }

    if (disk_) {
        std::optional<std::string> artifact =
            disk_->get(diskFile(key), diskKey(key));
        if (artifact) {
            // Promote to the memory tier so the next repeat skips the
            // disk read and checksum.
            if (max_bytes_ == 0 || artifact->size() <= max_bytes_)
                pushLocked(key, *artifact);
            ++stats_.hits;
            countCacheEvent("hits");
            if (tier)
                *tier = CacheTier::Disk;
            return artifact;
        }
    }

    ++stats_.misses;
    countCacheEvent("misses");
    return std::nullopt;
}

void
ResultCache::insert(uint64_t key, std::string artifact)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        bytes_ -= it->second->artifact.size();
        bytes_ += artifact.size();
        it->second->artifact = std::move(artifact);
        lru_.splice(lru_.begin(), lru_, it->second);
        diskPutLocked(key, lru_.front().artifact);
        return;
    }
    if (max_bytes_ > 0 && artifact.size() > max_bytes_)
        return; // would evict everything else and still not fit

    ++stats_.insertions;
    countCacheEvent("insertions");
    diskPutLocked(key, artifact);
    pushLocked(key, std::move(artifact));
}

void
ResultCache::pushLocked(uint64_t key, std::string artifact)
{
    bytes_ += artifact.size();
    lru_.push_front({key, std::move(artifact)});
    index_[key] = lru_.begin();
    while (max_bytes_ > 0 && bytes_ > max_bytes_ && lru_.size() > 1) {
        const Entry &victim = lru_.back();
        bytes_ -= victim.artifact.size();
        index_.erase(victim.key);
        lru_.pop_back();
        ++stats_.evictions;
        countCacheEvent("evictions");
    }
}

void
ResultCache::diskPutLocked(uint64_t key, const std::string &artifact)
{
    // A failed disk write degrades to memory-only (the cache is an
    // optimization — the daemon keeps answering correctly).
    std::string err;
    if (disk_ && !disk_->put(diskFile(key), diskKey(key), artifact, &err)) {
        ICFP_WARN("result cache: %s — entry kept in memory only",
                  err.c_str());
    }
}

BlobStore::Stats
ResultCache::diskStats() const
{
    return disk_ ? disk_->stats() : BlobStore::Stats{};
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

uint64_t
ResultCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

size_t
ResultCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

} // namespace service
} // namespace icfp
