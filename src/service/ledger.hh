/**
 * @file
 * The one formatter behind every service stderr ledger line.
 *
 * Every line is prefixed
 *
 *   icfp-sim serve: [t=12.345s job=7] ...
 *   icfp-sim serve: [t=12.345s] ...          (no job in scope)
 *
 * where t is seconds since metrics::processEpoch() — the same epoch
 * job-trace spans use, so a ledger line and a Perfetto span correlate
 * by timestamp. Each line is rendered into one buffer and written with
 * a single fprintf, so concurrent handler threads cannot interleave
 * fragments.
 */

#ifndef ICFP_SERVICE_LEDGER_HH
#define ICFP_SERVICE_LEDGER_HH

#include <cstdint>

namespace icfp {
namespace service {

/** Ledger line scoped to a job: "icfp-sim serve: [t=…s job=N] <msg>". */
void ledgerLine(uint64_t job_id, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** Ledger line with no job in scope: "icfp-sim serve: [t=…s] <msg>". */
void ledgerLine(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace service
} // namespace icfp

#endif // ICFP_SERVICE_LEDGER_HH
