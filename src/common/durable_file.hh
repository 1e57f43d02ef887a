/**
 * @file
 * Crash-durable atomic file publication, the write path of
 * common/blob_store.hh (and so of the trace store and the persistent
 * result cache). An atomic rename alone is not crash safe: after a
 * power loss the rename may survive while the data blocks it points at
 * do not, leaving a correctly-named file full of zeros or garbage. The
 * durable sequence is
 *
 *   write temp -> fsync(temp) -> close -> rename -> fsync(directory)
 *
 * so the bytes are on stable storage before the name appears, and the
 * name itself is on stable storage before we report success.
 *
 * Every step carries a fault point named "<prefix>.<step>" so tests
 * and CI can force the failure modes a healthy machine never shows:
 *
 *   <prefix>.write.short  write() persists only half the bytes and the
 *                         call reports failure (ENOSPC mid-file)
 *   <prefix>.write.torn   write() persists only half the bytes but the
 *                         call reports SUCCESS — an undetected torn
 *                         write, exercising the reader's checksum path
 *   <prefix>.fsync        fsync() reports failure
 *   <prefix>.rename       rename() reports failure
 *
 * On any reported failure the temp file is removed; the destination is
 * either the complete new content or untouched (except under
 * write.torn, which deliberately publishes a truncated file).
 */

#ifndef ICFP_COMMON_DURABLE_FILE_HH
#define ICFP_COMMON_DURABLE_FILE_HH

#include <string>

namespace icfp {

/**
 * Durably publish @p bytes at @p path via a unique temp file in the
 * same directory. @p fault_prefix names the fault points (above).
 * @return true on success; false with *error filled (if given)
 */
bool writeFileDurable(const std::string &path, const std::string &bytes,
                      const char *fault_prefix, std::string *error = nullptr);

} // namespace icfp

#endif // ICFP_COMMON_DURABLE_FILE_HH
