/**
 * @file
 * Fleet worker transport tests: how an attempt's work and artifacts
 * move — the forked worker process, the heartbeat CSV tail reader,
 * and the tmp+rename writes that commit artifacts.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "fleet/worker.hh"

namespace vip
{
namespace fleet
{
namespace
{

namespace fs = std::filesystem;

class TransportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _dir = fs::temp_directory_path() /
               ("vip-transport-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(_dir);
        fs::create_directories(_dir);
    }

    void TearDown() override { fs::remove_all(_dir); }

    std::string
    path(const std::string &name) const
    {
        return (_dir / name).string();
    }

    std::string
    write(const std::string &name, const std::string &content) const
    {
        const std::string p = path(name);
        fs::create_directories(fs::path(p).parent_path());
        std::ofstream(p, std::ios::binary) << content;
        return p;
    }

    fs::path _dir;
};

std::string
readFile(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST_F(TransportTest, AtomicWriteLeavesNoTmpAndOverwrites)
{
    const std::string p = path("report.json");
    std::string err;
    ASSERT_TRUE(writeFileAtomic(p, "first", &err)) << err;
    EXPECT_EQ(readFile(p), "first");
    ASSERT_TRUE(writeFileAtomic(p, "second", &err)) << err;
    EXPECT_EQ(readFile(p), "second");
    EXPECT_FALSE(fs::exists(p + ".tmp"));
    // Unwritable target directory fails cleanly instead of tearing.
    EXPECT_FALSE(writeFileAtomic(path("no/such/dir/f"), "x", &err));
    EXPECT_FALSE(err.empty());

    // An artifact commit is the same tmp+rename, from a file.
    const std::string dst = path("committed");
    ASSERT_TRUE(copyFileAtomic(write("src", "payload"), dst, &err))
        << err;
    EXPECT_EQ(readFile(dst), "payload");
    EXPECT_FALSE(fs::exists(dst + ".tmp"));
    err.clear();
    EXPECT_FALSE(copyFileAtomic(path("missing"), dst, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(readFile(dst), "payload"); // the old commit stands
}

TEST_F(TransportTest, LocalWorkerPathMayBeRelative)
{
    // Workers run inside their attempt directory, so a worker binary
    // named relative to the supervisor's working directory (as
    // `vip_fleet --vip-sim ./build/tools/vip_sim` does) must still be
    // found after the chdir.
    const std::string script = write("worker.sh", "#!/bin/sh\nexit 0\n");
    fs::permissions(script, fs::perms::owner_all);
    WorkerProcess w;
    std::string err;
    ASSERT_TRUE(w.start(fs::relative(script).string(), path("a1"), {},
                        &err))
        << err;
    EXPECT_TRUE(fs::is_directory(path("a1/") + attempt_files::kPmDir));
    WorkerExit ex;
    bool gone = false;
    for (int i = 0; i < 500 && !gone; ++i) {
        gone = w.reap(&ex);
        if (!gone)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(gone);
    EXPECT_TRUE(ex.ok) << readFile(path("a1/") + attempt_files::kLog);
}

TEST_F(TransportTest, HeartbeatTailReadsOnlyTheLastCompleteRow)
{
    const std::string header = "# vip-metrics v2\n# git=abc\n"
                               "# intervalMs=1\ntick_ms,a,b\n";
    // A multi-MB stream: the newest complete row wins, wherever the
    // file's tail window starts.
    std::string big = header;
    int n = 0;
    while (big.size() < (std::size_t{3} << 20)) {
        ++n;
        big += std::to_string(n) + ".000000,12345678,0.25\n";
    }
    const std::string csv = write("big.csv", big);
    EXPECT_EQ(readLastTickMs(csv), static_cast<double>(n));

    // A row still being written (no newline yet) is ignored, and so
    // are comment lines after the last row (a resume stamp).
    write("partial.csv", header + "1.000000,1,2\n2.000000,3,4\n"
                                  "# resumed-at-tick=2000000000\n"
                                  "3.0000");
    EXPECT_EQ(readLastTickMs(path("partial.csv")), 2.0);

    // A row wider than the first tail window still parses.
    std::string wide = header + "7.500000";
    for (int i = 0; i < 3000; ++i)
        wide += ",123456789";
    write("wide.csv", wide + "\n");
    EXPECT_EQ(readLastTickMs(path("wide.csv")), 7.5);

    // No data row yet, an empty file, or no file at all: -1.
    write("header.csv", header);
    EXPECT_EQ(readLastTickMs(path("header.csv")), -1.0);
    write("empty.csv", "");
    EXPECT_EQ(readLastTickMs(path("empty.csv")), -1.0);
    EXPECT_EQ(readLastTickMs(path("missing.csv")), -1.0);
}

} // namespace
} // namespace fleet
} // namespace vip
