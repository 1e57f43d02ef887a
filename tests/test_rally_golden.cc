/**
 * @file
 * Checked-in behavioural golden for the slice-buffer rally paths.
 *
 * One small sweep CSV covers every way a deferred slice re-executes:
 * the perfbench icfp-tail grid (art, mcf, graph.bfs, graph.chase,
 * kv.cold × in-order/iCFP: non-blocking multithreaded rallies), the
 * Figure 7 build (SLTP's blocking in-order rally, blocking and
 * non-multithreaded iCFP rallies, single-bit poison) and the Figure 8
 * store-buffer modes (indexed-limited rally stalls). The test fails on
 * any byte of difference.
 *
 * The golden records the kSimSemanticsVersion it was made under. A
 * change that is meant to move simulated behaviour bumps that version,
 * says why in CHANGES.md, and regenerates the file with
 *
 *   ICFP_UPDATE_GOLDEN=1 ./test_rally_golden
 *
 * which refuses to overwrite a golden of the current version.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/figure_specs.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"

namespace icfp {
namespace {

constexpr uint64_t kGoldenInsts = 20000;
const char *const kGoldenPath = ICFP_TESTS_DIR "/golden/rally_paths.csv";

/** The perfbench icfp-tail grid at the golden budget. */
SweepSpec
tailSpec()
{
    SweepSpec spec;
    spec.benches = {"art", "mcf", "graph.bfs", "graph.chase", "kv.cold"};
    for (const CoreKind kind : {CoreKind::InOrder, CoreKind::ICfp})
        spec.variants.push_back({coreKindName(kind), kind, SimConfig{}});
    spec.insts = kGoldenInsts;
    return spec;
}

std::string
versionLine()
{
    return "# simv=" + std::to_string(kSimSemanticsVersion) +
           " insts=" + std::to_string(kGoldenInsts) + "\n";
}

/** The golden's full text: version line, then one sweep CSV. */
std::string
goldenText()
{
    SweepEngine engine(2);
    std::vector<SweepResult> all;
    for (const SweepSpec &spec : {tailSpec(), bench::fig7Spec(kGoldenInsts),
                                  bench::fig8Spec(kGoldenInsts)}) {
        const std::vector<SweepResult> part = engine.run(spec);
        all.insert(all.end(), part.begin(), part.end());
    }
    return versionLine() + sweepCsv(all);
}

std::string
readFile(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(RallyGolden, SweepMatchesCheckedInGolden)
{
    const std::string want = readFile(kGoldenPath);
    const std::string got = goldenText();

    if (std::getenv("ICFP_UPDATE_GOLDEN") != nullptr) {
        ASSERT_TRUE(want.rfind(versionLine(), 0) != 0 || want == got)
            << "the golden already records simv=" << kSimSemanticsVersion
            << "; bump kSimSemanticsVersion before regenerating it";
        std::ofstream(kGoldenPath, std::ios::binary) << got;
        GTEST_SKIP() << "rewrote " << kGoldenPath;
    }

    ASSERT_FALSE(want.empty()) << "missing golden " << kGoldenPath;
    ASSERT_EQ(want.substr(0, want.find('\n') + 1), versionLine())
        << "kSimSemanticsVersion changed: regenerate the golden";
    // Report the first differing line rather than two 100-row blobs.
    std::istringstream want_lines(want), got_lines(got);
    std::string w, g;
    for (int line = 1; std::getline(want_lines, w); ++line) {
        ASSERT_TRUE(std::getline(got_lines, g)) << "golden line " << line
                                                << " missing from the run";
        ASSERT_EQ(w, g) << "first difference at golden line " << line;
    }
    EXPECT_FALSE(std::getline(got_lines, g)) << "run has extra lines";
    EXPECT_EQ(want, got);
}

} // namespace
} // namespace icfp
