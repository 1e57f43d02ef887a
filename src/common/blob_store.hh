/**
 * @file
 * One on-disk blob store: a cache directory of integrity-checked,
 * size-capped files, shared by the trace store (sim/trace_store.hh) and
 * the service result cache's disk tier (service/result_cache.hh).
 *
 * File format (all integers little-endian u64):
 *
 *   magic (8 bytes) | key (opaque bytes) | FNV-1a(payload) | size | payload
 *
 * The key is whatever bytes the caller identifies an entry by; it is
 * stored verbatim and compared exactly on load, so a renamed, colliding
 * or stale file can never serve the wrong payload.
 *
 * Durability properties:
 *  - a file whose magic, key, hash or size does not match is deleted
 *    and counted as corrupt; the caller recomputes, so corruption can
 *    cost time, never correctness;
 *  - put() publishes through writeFileDurable (common/durable_file.hh):
 *    fsync-then-atomic-rename, so concurrent readers never observe a
 *    partial file and a crash cannot leave a zero-filled one;
 *  - an optional byte cap is enforced by mtime-LRU eviction (a hit
 *    refreshes the file's mtime); the file just written is never
 *    evicted;
 *  - temp files orphaned by killed writers are reclaimed on
 *    construction once they are 15 minutes old.
 *
 * Every I/O failure degrades to a miss or a skipped write: the store is
 * an optimization and must never take its caller down.
 */

#ifndef ICFP_COMMON_BLOB_STORE_HH
#define ICFP_COMMON_BLOB_STORE_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace icfp {

/** 64-bit FNV-1a over @p size bytes (the store's content hash). */
uint64_t fnv1a64(const void *data, size_t size);

/** Append @p v to @p out as 8 little-endian bytes. */
void putU64(std::string *out, uint64_t v);

/** A persistent, integrity-checked, size-capped blob directory. */
class BlobStore
{
  public:
    struct Stats
    {
        uint64_t hits = 0;           ///< get() served a verified payload
        uint64_t misses = 0;         ///< get() found nothing usable
        uint64_t writes = 0;         ///< put() published a file
        uint64_t write_failures = 0; ///< put() could not publish
        uint64_t corrupt = 0;        ///< bad file detected (and removed)
        uint64_t evictions = 0;      ///< files removed by the byte cap
    };

    /**
     * Create @p dir if absent and reclaim stale `*<suffix>.tmp.*` files.
     * @param magic 8-byte file magic
     * @param suffix file extension of entries (e.g. ".trc"); only these
     *        files count toward the byte cap
     * @param fault_prefix durable_file fault-point prefix; also prefixes
     *        this store's warnings
     * @param metric_prefix each Stats field is mirrored to
     *        metrics::counter(metric_prefix + field name)
     * @param max_bytes byte cap over all entries; 0 = unlimited
     */
    BlobStore(std::string dir, std::string magic, std::string suffix,
              std::string fault_prefix, std::string metric_prefix,
              uint64_t max_bytes = 0);

    /** Whether the directory exists (creation failed otherwise). */
    bool ok() const { return ok_; }

    /**
     * The verified payload of `<dir>/<file>` stored under @p key, or
     * std::nullopt on a miss. A file that fails verification is deleted.
     */
    std::optional<std::string> get(const std::string &file,
                                   const std::string &key);

    /**
     * Durably publish @p payload under @p key as `<dir>/<file>`, then
     * enforce the byte cap. @return false (with *error filled, if
     * given) when the file could not be published
     */
    bool put(const std::string &file, const std::string &key,
             const std::string &payload, std::string *error = nullptr);

    Stats stats() const;
    const std::string &dir() const { return dir_; }

  private:
    /** Bump one Stats field and its registry mirror. */
    void count(uint64_t Stats::*field, const char *name);
    void countLocked(uint64_t Stats::*field, const char *name);
    void evictLocked(const std::string &keep_file);

    std::string dir_;
    std::string magic_;
    std::string suffix_;
    std::string fault_prefix_;
    std::string metric_prefix_;
    uint64_t max_bytes_;
    bool ok_ = false;
    mutable std::mutex mutex_; ///< guards stats_ and eviction scans
    Stats stats_;
};

} // namespace icfp

#endif // ICFP_COMMON_BLOB_STORE_HH
