/**
 * @file
 * Fault-injection framework + durable-file helper tests: the spec
 * grammar (trigger/count/'*', malformed rejection, previous arming
 * preserved on a bad spec), the firing semantics shouldFire() promises,
 * and writeFileDurable()'s guarantees under every injected failure —
 * reported failures leave no temp and no destination change; the one
 * deliberate liar (write.torn) publishes a truncated file so reader
 * checksums must catch it.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/durable_file.hh"
#include "common/fault_inject.hh"

namespace fs = std::filesystem;
using namespace icfp;

namespace {

std::string
makeTempDir()
{
    std::string templ = "/tmp/icfp_fault_test_XXXXXX";
    const char *dir = mkdtemp(templ.data());
    EXPECT_NE(dir, nullptr);
    return dir;
}

std::string
readAll(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good());
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

size_t
countTempFiles(const fs::path &dir)
{
    size_t n = 0;
    for (const fs::directory_entry &de : fs::directory_iterator(dir))
        if (de.path().filename().string().find(".tmp.") != std::string::npos)
            ++n;
    return n;
}

class FaultInjectTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::disarmAll(); }
    void TearDown() override { fault::disarmAll(); }
};

TEST_F(FaultInjectTest, DisarmedPointNeverFires)
{
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(ICFP_FAULT_POINT("test.never_armed"));
    // Unarmed hits are not even counted (the fast path skips the map).
    EXPECT_EQ(fault::hitCount("test.never_armed"), 0u);
}

TEST_F(FaultInjectTest, TriggerSelectsTheNthHit)
{
    ASSERT_TRUE(fault::armSpec("test.point:3"));
    EXPECT_FALSE(ICFP_FAULT_POINT("test.point")); // hit 1
    EXPECT_FALSE(ICFP_FAULT_POINT("test.point")); // hit 2
    EXPECT_TRUE(ICFP_FAULT_POINT("test.point"));  // hit 3 fires
    EXPECT_FALSE(ICFP_FAULT_POINT("test.point")); // default count=1: done
    EXPECT_EQ(fault::hitCount("test.point"), 4u);
    EXPECT_EQ(fault::firedCount("test.point"), 1u);
}

TEST_F(FaultInjectTest, CountFiresConsecutively)
{
    ASSERT_TRUE(fault::armSpec("test.point:2:3"));
    const std::vector<bool> expect = {false, true, true, true, false};
    for (const bool want : expect)
        EXPECT_EQ(ICFP_FAULT_POINT("test.point"), want);
    EXPECT_EQ(fault::firedCount("test.point"), 3u);
}

TEST_F(FaultInjectTest, StarCountFiresForever)
{
    ASSERT_TRUE(fault::armSpec("test.point:2:*"));
    EXPECT_FALSE(ICFP_FAULT_POINT("test.point"));
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(ICFP_FAULT_POINT("test.point"));
}

TEST_F(FaultInjectTest, MultiplePointsInOneSpec)
{
    ASSERT_TRUE(fault::armSpec("a.one:1,b.two:2"));
    const std::vector<std::string> armed = fault::armedPoints();
    ASSERT_EQ(armed.size(), 2u);
    EXPECT_EQ(armed[0], "a.one");
    EXPECT_EQ(armed[1], "b.two");
    EXPECT_TRUE(ICFP_FAULT_POINT("a.one"));
    EXPECT_FALSE(ICFP_FAULT_POINT("b.two"));
    EXPECT_TRUE(ICFP_FAULT_POINT("b.two"));
}

TEST_F(FaultInjectTest, MalformedSpecsRejectedWithMessage)
{
    const std::vector<std::string> bad = {
        "noseparator",      // no trigger
        ":1",               // empty point name
        "p:",               // empty trigger
        "p:0",              // trigger must be >= 1
        "p:abc",            // non-numeric trigger
        "p:1:",             // empty count
        "p:1:0",            // count must be >= 1
        "p:1:x",            // non-numeric count
        "p:99999999999999999999", // trigger overflows uint64
    };
    for (const std::string &spec : bad) {
        std::string error;
        EXPECT_FALSE(fault::armSpec(spec, &error)) << spec;
        EXPECT_FALSE(error.empty()) << spec;
    }
}

TEST_F(FaultInjectTest, BadSpecLeavesPreviousArmingIntact)
{
    ASSERT_TRUE(fault::armSpec("test.point:1"));
    EXPECT_FALSE(fault::armSpec("good.point:1,bad:"));
    // The good clause of the bad spec must NOT have been armed either
    // (all-or-nothing), and the old arming still fires.
    EXPECT_EQ(fault::armedPoints(), std::vector<std::string>{"test.point"});
    EXPECT_TRUE(ICFP_FAULT_POINT("test.point"));
}

TEST_F(FaultInjectTest, DisarmAllResetsCounters)
{
    ASSERT_TRUE(fault::armSpec("test.point:1:*"));
    EXPECT_TRUE(ICFP_FAULT_POINT("test.point"));
    fault::disarmAll();
    EXPECT_EQ(fault::hitCount("test.point"), 0u);
    EXPECT_EQ(fault::firedCount("test.point"), 0u);
    EXPECT_FALSE(ICFP_FAULT_POINT("test.point"));
    EXPECT_TRUE(fault::armedPoints().empty());
}

// ---------------------------------------------------------- durable_file

class DurableFileTest : public FaultInjectTest
{
  protected:
    void SetUp() override
    {
        FaultInjectTest::SetUp();
        dir_ = makeTempDir();
    }
    void TearDown() override
    {
        fs::remove_all(dir_);
        FaultInjectTest::TearDown();
    }

    std::string dir_;
};

TEST_F(DurableFileTest, PublishesBytesAtomically)
{
    const std::string path = dir_ + "/out.bin";
    const std::string bytes = "hello durable world\n";
    std::string error;
    ASSERT_TRUE(writeFileDurable(path, bytes, "test", &error)) << error;
    EXPECT_EQ(readAll(path), bytes);
    EXPECT_EQ(countTempFiles(dir_), 0u);
}

TEST_F(DurableFileTest, OverwritesExistingDestination)
{
    const std::string path = dir_ + "/out.bin";
    ASSERT_TRUE(writeFileDurable(path, "old", "test"));
    ASSERT_TRUE(writeFileDurable(path, "new content", "test"));
    EXPECT_EQ(readAll(path), "new content");
}

TEST_F(DurableFileTest, ShortWriteFailsAndCleansUp)
{
    ASSERT_TRUE(fault::armSpec("test.write.short:1"));
    const std::string path = dir_ + "/out.bin";
    std::string error;
    EXPECT_FALSE(writeFileDurable(path, "0123456789", "test", &error));
    EXPECT_NE(error.find("write"), std::string::npos);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_EQ(countTempFiles(dir_), 0u);
    // Disarmed after its one shot: the retry succeeds.
    ASSERT_TRUE(fault::armSpec("test.write.short:99"));
    EXPECT_TRUE(writeFileDurable(path, "0123456789", "test"));
    EXPECT_EQ(readAll(path), "0123456789");
}

TEST_F(DurableFileTest, FsyncFailureFailsAndCleansUp)
{
    ASSERT_TRUE(fault::armSpec("test.fsync:1"));
    const std::string path = dir_ + "/out.bin";
    std::string error;
    // A stale errno must not leak into the report: an injected fault
    // is an I/O error.
    errno = ENOENT;
    EXPECT_FALSE(writeFileDurable(path, "payload", "test", &error));
    EXPECT_NE(error.find("fsync"), std::string::npos);
    EXPECT_NE(error.find(std::strerror(EIO)), std::string::npos) << error;
    EXPECT_FALSE(fs::exists(path));
    EXPECT_EQ(countTempFiles(dir_), 0u);
}

TEST_F(DurableFileTest, RenameFailureFailsAndCleansUp)
{
    const std::string path = dir_ + "/out.bin";
    ASSERT_TRUE(writeFileDurable(path, "original", "test"));
    ASSERT_TRUE(fault::armSpec("test.rename:1"));
    std::string error;
    errno = ENOENT;
    EXPECT_FALSE(writeFileDurable(path, "replacement", "test", &error));
    EXPECT_NE(error.find("rename"), std::string::npos);
    EXPECT_NE(error.find(std::strerror(EIO)), std::string::npos) << error;
    // The destination keeps its previous content untouched.
    EXPECT_EQ(readAll(path), "original");
    EXPECT_EQ(countTempFiles(dir_), 0u);
}

TEST_F(DurableFileTest, TornWriteLiesAndPublishesTruncatedFile)
{
    ASSERT_TRUE(fault::armSpec("test.write.torn:1"));
    const std::string path = dir_ + "/out.bin";
    const std::string bytes = "0123456789";
    std::string error;
    // The torn write REPORTS success — that is the point: it simulates
    // a crash the writer never observed, and only the reader's checksum
    // can catch the damage.
    EXPECT_TRUE(writeFileDurable(path, bytes, "test", &error)) << error;
    EXPECT_EQ(readAll(path), bytes.substr(0, bytes.size() / 2));
    EXPECT_EQ(fault::firedCount("test.write.torn"), 1u);
}

} // namespace
