/**
 * @file
 * Fleet transport tests: artifact integrity helpers (FNV-1a, atomic
 * writes, checksum-verified copies, local manifests), the heartbeat
 * CSV tail reader, bounded
 * subprocess capture, the FaultSpec grammar, deterministic fault
 * injection through FaultyTransport, the host health state machine,
 * the --hosts roster parser, and a hermetic RemoteTransport probe
 * through a fake-ssh stub.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "fleet/health.hh"
#include "fleet/hosts.hh"
#include "fleet/transport/artifact.hh"
#include "fleet/transport/faulty_transport.hh"
#include "fleet/transport/local_transport.hh"
#include "fleet/transport/remote_transport.hh"
#include "fleet/transport/subprocess.hh"

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

// ---------------------------------------------------------------
// FNV-1a and atomic publication.
// ---------------------------------------------------------------

TEST(ArtifactFnv, MatchesKnownVectors)
{
    EXPECT_EQ(fnv1aBytes("", 0), kFnvOffsetBasis);
    EXPECT_EQ(fnv1aBytes("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1aBytes("foobar", 6), 0x85944171f73967e8ull);
    // Incremental hashing equals one-shot hashing.
    std::uint64_t h = kFnvOffsetBasis;
    h = fnv1aAccum(h, "foo", 3);
    h = fnv1aAccum(h, "bar", 3);
    EXPECT_EQ(h, fnv1aBytes("foobar", 6));
}

TEST(ArtifactFnv, HexRoundTripsAndRejectsGarbage)
{
    const std::uint64_t h = 0x85944171f73967e8ull;
    EXPECT_EQ(fnvHex(h), "85944171f73967e8");
    std::uint64_t back = 0;
    ASSERT_TRUE(parseFnvHex(fnvHex(h), &back));
    EXPECT_EQ(back, h);
    EXPECT_TRUE(parseFnvHex("0000000000000000", &back));
    EXPECT_FALSE(parseFnvHex("", &back));
    EXPECT_FALSE(parseFnvHex("85944171f73967e", &back));   // short
    EXPECT_FALSE(parseFnvHex("85944171f73967e8a", &back)); // long
    EXPECT_FALSE(parseFnvHex("8594417_f73967e8", &back));  // bad char
}

TEST_F(TransportTest, FnvFileReportsUnreadable)
{
    bool ok = true;
    EXPECT_EQ(fnv1aFile(path("nope"), &ok), kFnvOffsetBasis);
    EXPECT_FALSE(ok);
    const std::string p = write("x", "foobar");
    EXPECT_EQ(fnv1aFile(p, &ok), fnv1aBytes("foobar", 6));
    EXPECT_TRUE(ok);
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
}

TEST_F(TransportTest, VerifiedCopyRefusesChecksumMismatch)
{
    const std::string src = write("src", "payload");
    const std::string dst = path("dst");
    std::string err;
    ASSERT_TRUE(copyFileAtomicVerified(src, dst,
                                       fnv1aBytes("payload", 7),
                                       &err))
        << err;
    EXPECT_EQ(readFile(dst), "payload");

    // A manifest lie (corruption in transit) must not publish.
    const std::string dst2 = path("dst2");
    EXPECT_FALSE(copyFileAtomicVerified(src, dst2, 0xdeadbeefull,
                                        &err));
    EXPECT_FALSE(fs::exists(dst2));
    EXPECT_NE(err.find("checksum"), std::string::npos);
}

TEST_F(TransportTest, LocalManifestChecksumsPresentArtifacts)
{
    write("a1/stats.json", "{}");
    write("a1/pm/checkpoint.vips", "ring");
    ArtifactManifest m;
    std::string err;
    ASSERT_TRUE(localManifest(path("a1"), &m, &err)) << err;

    const Artifact *stats = findArtifact(m, attempt_files::kStats);
    ASSERT_NE(stats, nullptr);
    EXPECT_TRUE(stats->present);
    EXPECT_EQ(stats->fnv, fnv1aBytes("{}", 2));
    EXPECT_EQ(stats->localPath, path("a1") + "/stats.json");

    const Artifact *ckpt =
        findArtifact(m, attempt_files::kCheckpoint);
    ASSERT_NE(ckpt, nullptr);
    EXPECT_TRUE(ckpt->present);

    const Artifact *digest = findArtifact(m, attempt_files::kDigest);
    ASSERT_NE(digest, nullptr);
    EXPECT_FALSE(digest->present); // never produced

    EXPECT_EQ(findArtifact(m, "no-such-artifact"), nullptr);
}

TEST_F(TransportTest, LocalWorkerPathMayBeRelative)
{
    // Workers run inside their attempt directory, so a worker binary
    // named relative to the supervisor's working directory (as
    // `vip_fleet --vip-sim ./build/tools/vip_sim` does) must still be
    // found after the chdir.
    const std::string script = write("worker.sh", "#!/bin/sh\nexit 0\n");
    fs::permissions(script, fs::perms::owner_all);
    LocalTransport t(fs::relative(script).string());
    LaunchRequest req;
    req.jobId = "job";
    req.attemptDir = path("a1");
    std::string err;
    auto h = t.launch(req, &err);
    ASSERT_NE(h, nullptr) << err;
    PollResult r;
    for (int i = 0; i < 500 && r.state != WorkerState::Exited; ++i) {
        r = t.poll(*h);
        if (r.state != WorkerState::Exited)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(r.state, WorkerState::Exited);
    EXPECT_TRUE(r.ok) << readFile(path("a1/") + attempt_files::kLog);
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

// ---------------------------------------------------------------
// Bounded subprocess capture.
// ---------------------------------------------------------------

TEST(Subprocess, CapturesOutputAndExitCode)
{
    const RunResult r =
        runCapture({"/bin/sh", "-c", "echo hi; exit 3"}, "", 5000.0);
    EXPECT_TRUE(r.started);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.exitCode, 3);
    EXPECT_EQ(r.out, "hi\n");
}

TEST(Subprocess, TimeoutKillsTheChild)
{
    const RunResult r =
        runCapture({"/bin/sh", "-c", "sleep 30"}, "", 100.0);
    EXPECT_TRUE(r.started);
    EXPECT_TRUE(r.timedOut);
    EXPECT_FALSE(r.ok());
}

TEST(Subprocess, MissingBinaryReportsNotStarted)
{
    const RunResult r = runCapture({"/no/such/binary"}, "", 1000.0);
    EXPECT_FALSE(r.ok());
}

TEST(Subprocess, ShellQuoteSurvivesHostileStrings)
{
    const std::string hostile = "a b'c\"d$e`f;g";
    const RunResult r = runCapture(
        {"/bin/sh", "-c", "printf %s " + shellQuote(hostile)}, "",
        5000.0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.out, hostile);
}

// ---------------------------------------------------------------
// FaultSpec grammar.
// ---------------------------------------------------------------

TEST(FaultSpecParse, ParsesTheFullGrammar)
{
    FaultSpec f;
    std::string err;
    ASSERT_TRUE(FaultSpec::parse(
        "seed=7,drop=0.25,delay=0.5,dup=0.1,corrupt=0.05,"
        "partition@40+25,die@90",
        &f, &err))
        << err;
    EXPECT_EQ(f.seed, 7u);
    EXPECT_DOUBLE_EQ(f.drop, 0.25);
    EXPECT_DOUBLE_EQ(f.delay, 0.5);
    EXPECT_DOUBLE_EQ(f.dup, 0.1);
    EXPECT_DOUBLE_EQ(f.corrupt, 0.05);
    EXPECT_EQ(f.partitionAtOp, 40);
    EXPECT_EQ(f.partitionOps, 25);
    EXPECT_EQ(f.dieAtOp, 90);

    // Faults are keyed on ops: the wall-clock death and partition
    // window are not part of the grammar.
    FaultSpec t;
    EXPECT_FALSE(FaultSpec::parse("dieMs=400", &t, &err));
    EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
    EXPECT_FALSE(FaultSpec::parse("partitionMs=1+2", &t, &err));
    EXPECT_NE(err.find("unknown key"), std::string::npos) << err;

    FaultSpec empty;
    ASSERT_TRUE(FaultSpec::parse("", &empty, &err));
    EXPECT_EQ(empty.dieAtOp, -1);
}

TEST(FaultSpecParse, RejectsMalformedSpecs)
{
    FaultSpec f;
    std::string err;
    EXPECT_FALSE(FaultSpec::parse("bogus=1", &f, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(FaultSpec::parse("drop=2.0", &f, &err)); // not a prob
    EXPECT_FALSE(FaultSpec::parse("drop=x", &f, &err));
    EXPECT_FALSE(FaultSpec::parse("partition@", &f, &err));
    EXPECT_FALSE(FaultSpec::parse("partition@5", &f, &err)); // no +M
    EXPECT_FALSE(FaultSpec::parse("die@-1", &f, &err));
}

// ---------------------------------------------------------------
// Deterministic fault injection.
// ---------------------------------------------------------------

/** Minimal always-healthy inner transport that counts calls. */
class StubTransport : public WorkerTransport
{
  public:
    struct StubHandle : WorkerHandle
    {
        bool killed = false;
    };

    const char *kind() const override { return "stub"; }

    std::unique_ptr<WorkerHandle>
    launch(const LaunchRequest &, std::string *) override
    {
        ++launches;
        return std::make_unique<StubHandle>();
    }

    PollResult
    poll(WorkerHandle &h) override
    {
        ++polls;
        PollResult r;
        auto &sh = static_cast<StubHandle &>(h);
        if (sh.killed) {
            r.state = WorkerState::Exited;
            r.termSignal = 9;
            r.error = "killed by signal 9";
        } else {
            r.state = WorkerState::Running;
        }
        return r;
    }

    bool
    heartbeat(WorkerHandle &, HeartbeatInfo *info,
              std::string *) override
    {
        ++heartbeats;
        info->size = 1;
        return true;
    }

    void interrupt(WorkerHandle &) override {}
    void
    forceKill(WorkerHandle &h) override
    {
        static_cast<StubHandle &>(h).killed = true;
    }

    bool
    fetch(WorkerHandle &, ArtifactManifest *out,
          std::string *) override
    {
        ++fetches;
        Artifact a;
        a.name = attempt_files::kStats;
        a.localPath = "unused";
        a.fnv = 0x1234u;
        a.present = true;
        out->assign(1, a);
        return true;
    }

    bool
    probe(std::string *) override
    {
        ++probes;
        return true;
    }

    int launches = 0, polls = 0, heartbeats = 0, fetches = 0,
        probes = 0;
};

FaultyTransport
makeFaulty(StubTransport *&stubOut, const std::string &spec)
{
    auto stub = std::make_unique<StubTransport>();
    stubOut = stub.get();
    FaultSpec f;
    std::string err;
    EXPECT_TRUE(FaultSpec::parse(spec, &f, &err)) << err;
    return FaultyTransport(std::move(stub), f);
}

TEST(FaultyTransportTest, SameSeedSameFaultsDifferentSeedDiffers)
{
    auto sequence = [](const std::string &spec) {
        StubTransport *stub = nullptr;
        FaultyTransport t = makeFaulty(stub, spec);
        std::vector<bool> seq;
        std::string err;
        for (int i = 0; i < 64; ++i)
            seq.push_back(t.probe(&err));
        return seq;
    };
    const auto a = sequence("seed=42,drop=0.5");
    const auto b = sequence("seed=42,drop=0.5");
    const auto c = sequence("seed=43,drop=0.5");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    // The coin is actually biased ~0.5, not stuck.
    int fails = 0;
    for (bool ok : a)
        fails += ok ? 0 : 1;
    EXPECT_GT(fails, 8);
    EXPECT_LT(fails, 56);
}

TEST(FaultyTransportTest, PartitionWindowFailsExactlyThoseOps)
{
    StubTransport *stub = nullptr;
    // Ops 0.. : op0 clean, ops 1-2 partitioned, op3+ clean.
    FaultyTransport t = makeFaulty(stub, "partition@1+2");
    std::string err;
    EXPECT_TRUE(t.probe(&err));  // op 0
    EXPECT_FALSE(t.probe(&err)); // op 1
    EXPECT_NE(err.find("partitioned"), std::string::npos);
    EXPECT_FALSE(t.probe(&err)); // op 2
    EXPECT_TRUE(t.probe(&err));  // op 3
    EXPECT_EQ(t.counters().partitioned, 2);
    EXPECT_EQ(stub->probes, 2); // faulted ops never reach the inner
}

TEST(FaultyTransportTest, DieKillsLiveWorkersAndStaysDead)
{
    StubTransport *stub = nullptr;
    FaultyTransport t = makeFaulty(stub, "die@2");
    std::string err;
    LaunchRequest req;
    auto h = t.launch(req, &err); // op 0
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(t.poll(*h).state, WorkerState::Running); // op 1
    EXPECT_FALSE(t.probe(&err)); // op 2: the host dies here
    EXPECT_NE(err.find("host dead"), std::string::npos);
    EXPECT_TRUE(t.counters().died);
    // The crash killed the live worker underneath...
    EXPECT_EQ(t.poll(*h).state, WorkerState::Unreachable);
    // ...and the host never comes back.
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(t.probe(&err));
    EXPECT_EQ(t.launch(req, &err), nullptr);
}

TEST(FaultyTransportTest, CorruptLiesAboutAFetchChecksum)
{
    StubTransport *stub = nullptr;
    FaultyTransport t = makeFaulty(stub, "corrupt=1.0");
    std::string err;
    LaunchRequest req;
    auto h = t.launch(req, &err);
    ASSERT_NE(h, nullptr);
    ArtifactManifest m;
    ASSERT_TRUE(t.fetch(*h, &m, &err)); // "succeeds"...
    const Artifact *a = findArtifact(m, attempt_files::kStats);
    ASSERT_NE(a, nullptr);
    EXPECT_NE(a->fnv, 0x1234u); // ...but the manifest lies
    EXPECT_GE(t.counters().corrupts, 1);
}

TEST(FaultyTransportTest, DupRunsTheInnerOpTwice)
{
    StubTransport *stub = nullptr;
    FaultyTransport t = makeFaulty(stub, "dup=1.0");
    std::string err;
    EXPECT_TRUE(t.probe(&err));
    EXPECT_EQ(stub->probes, 2); // duplicated delivery
    EXPECT_GE(t.counters().dups, 1);
}

TEST(FaultyTransportTest, LaunchIsExemptFromProbabilityFaults)
{
    StubTransport *stub = nullptr;
    FaultyTransport t = makeFaulty(stub, "drop=1.0");
    std::string err;
    LaunchRequest req;
    EXPECT_NE(t.launch(req, &err), nullptr); // never dropped
    EXPECT_EQ(stub->launches, 1);
    EXPECT_FALSE(t.probe(&err)); // probes are fair game
}

// ---------------------------------------------------------------
// Host health state machine (fake clock).
// ---------------------------------------------------------------

HealthPolicy
tightPolicy()
{
    HealthPolicy hp;
    hp.quarantineAfter = 2;
    hp.probeIntervalMs = 100.0;
    hp.maxProbes = 2;
    hp.maxQuarantines = 2;
    return hp;
}

TEST(HostHealthTest, ConsecutiveFailuresQuarantineSuccessResets)
{
    HostHealth h(tightPolicy());
    EXPECT_TRUE(h.usable());
    EXPECT_FALSE(h.onOpFailure(0.0, "e1"));
    h.onOpSuccess(); // streak broken
    EXPECT_FALSE(h.onOpFailure(1.0, "e2"));
    EXPECT_TRUE(h.usable());
    EXPECT_TRUE(h.onOpFailure(2.0, "e3")); // 2nd consecutive: tips
    EXPECT_EQ(h.state(), HostState::Quarantined);
    EXPECT_FALSE(h.usable());
    EXPECT_EQ(h.quarantines(), 1);
    EXPECT_EQ(h.lastError(), "e3");
}

TEST(HostHealthTest, ProbeScheduleWidensAndRecovers)
{
    HostHealth h(tightPolicy());
    h.onOpFailure(0.0, "x");
    h.onOpFailure(0.0, "x"); // quarantined at t=0
    EXPECT_FALSE(h.probeDue(50.0));
    EXPECT_TRUE(h.probeDue(100.0)); // first probe after interval
    EXPECT_FALSE(h.onProbeFailure(100.0, "still down"));
    EXPECT_FALSE(h.probeDue(250.0)); // interval doubled to 200
    EXPECT_TRUE(h.probeDue(300.0));
    h.onProbeSuccess();
    EXPECT_EQ(h.state(), HostState::Healthy);
    EXPECT_TRUE(h.usable());
}

TEST(HostHealthTest, ExhaustedProbesAreFatal)
{
    HostHealth h(tightPolicy());
    h.onOpFailure(0.0, "x");
    h.onOpFailure(0.0, "x");
    EXPECT_FALSE(h.onProbeFailure(100.0, "p1"));
    EXPECT_TRUE(h.onProbeFailure(300.0, "p2")); // maxProbes = 2
    EXPECT_EQ(h.state(), HostState::Dead);
    EXPECT_FALSE(h.probeDue(1e12)); // the dead are not probed
}

TEST(HostHealthTest, FlappingPastMaxQuarantinesIsFatal)
{
    HostHealth h(tightPolicy());
    // Quarantine #1, recover.
    h.onOpFailure(0.0, "x");
    h.onOpFailure(0.0, "x");
    h.onProbeSuccess();
    // Quarantine #2, recover.
    h.onOpFailure(10.0, "x");
    h.onOpFailure(10.0, "x");
    EXPECT_EQ(h.quarantines(), 2);
    h.onProbeSuccess();
    // A third quarantine exceeds maxQuarantines: straight to dead.
    h.onOpFailure(20.0, "x");
    EXPECT_TRUE(h.onOpFailure(20.0, "flapped out"));
    EXPECT_EQ(h.state(), HostState::Dead);
}

// ---------------------------------------------------------------
// Host roster parsing and transport construction.
// ---------------------------------------------------------------

TEST_F(TransportTest, HostsFileParsesEveryField)
{
    const std::string p = write("hosts.json", R"({"hosts": [
      {"name": "local", "transport": "process", "slots": 4},
      {"name": "node7", "transport": "ssh", "slots": 8,
       "ssh": ["ssh", "-oBatchMode=yes", "node7"],
       "remote_dir": "/tmp/vip-fleet", "vip_sim": "/opt/vip/vip_sim",
       "op_timeout_ms": 1500, "op_retries": 5},
      {"name": "flaky", "transport": "process", "slots": 2,
       "fault": "seed=7,drop=0.1"}]})");
    std::vector<HostSpec> hosts;
    std::string err;
    ASSERT_TRUE(parseHostsFile(p, &hosts, &err)) << err;
    ASSERT_EQ(hosts.size(), 3u);
    EXPECT_EQ(hosts[0].name, "local");
    EXPECT_EQ(hosts[0].transport, "process");
    EXPECT_EQ(hosts[0].slots, 4);
    EXPECT_EQ(hosts[1].transport, "ssh");
    ASSERT_EQ(hosts[1].remote.sshCmd.size(), 3u);
    EXPECT_EQ(hosts[1].remote.sshCmd[1], "-oBatchMode=yes");
    EXPECT_EQ(hosts[1].remote.remoteDir, "/tmp/vip-fleet");
    EXPECT_EQ(hosts[1].remote.vipSim, "/opt/vip/vip_sim");
    EXPECT_DOUBLE_EQ(hosts[1].remote.opTimeoutMs, 1500.0);
    EXPECT_EQ(hosts[1].remote.opRetries, 5);
    EXPECT_EQ(hosts[2].faultSpec, "seed=7,drop=0.1");
}

TEST_F(TransportTest, HostsFileRejectsDuplicatesAndBadInput)
{
    std::vector<HostSpec> hosts;
    std::string err;
    EXPECT_FALSE(parseHostsFile(path("missing.json"), &hosts, &err));

    const std::string dup = write("dup.json", R"({"hosts": [
      {"name": "a"}, {"name": "a"}]})");
    EXPECT_FALSE(parseHostsFile(dup, &hosts, &err));
    EXPECT_NE(err.find("duplicate"), std::string::npos);

    const std::string bad =
        write("bad.json", R"({"hosts": [{"name": "x",
              "transport": "carrier-pigeon"}]})");
    std::vector<HostSpec> h2;
    if (parseHostsFile(bad, &h2, &err)) {
        // Unknown kinds may also surface at transport construction.
        ASSERT_EQ(h2.size(), 1u);
        EXPECT_EQ(makeTransport(h2[0], "/bin/true", "", &err),
                  nullptr);
    }
    EXPECT_FALSE(err.empty());

    // Every attempt is a vip_sim run: there is no in-process backend.
    const std::string thread = write("thread.json", R"({"hosts": [
      {"name": "t", "transport": "thread"}]})");
    err.clear();
    EXPECT_FALSE(parseHostsFile(thread, &hosts, &err));
    EXPECT_NE(err.find("process | ssh"), std::string::npos) << err;
}

TEST_F(TransportTest, MakeTransportWrapsFaultyHosts)
{
    HostSpec plain;
    plain.name = "plain";
    plain.transport = "process";
    std::string err;
    auto t = makeTransport(plain, "", "", &err);
    ASSERT_NE(t, nullptr) << err;
    EXPECT_STREQ(t->kind(), "process");
    EXPECT_EQ(dynamic_cast<FaultyTransport *>(t.get()), nullptr);

    HostSpec flaky = plain;
    flaky.name = "flaky";
    flaky.faultSpec = "drop=0.5";
    auto ft = makeTransport(flaky, "", "", &err);
    ASSERT_NE(ft, nullptr) << err;
    EXPECT_NE(dynamic_cast<FaultyTransport *>(ft.get()), nullptr);

    // The global --fault spec wraps hosts without their own.
    auto gt = makeTransport(plain, "", "seed=3,drop=0.1", &err);
    ASSERT_NE(gt, nullptr) << err;
    EXPECT_NE(dynamic_cast<FaultyTransport *>(gt.get()), nullptr);

    HostSpec broken = plain;
    broken.faultSpec = "not-a-spec";
    EXPECT_EQ(makeTransport(broken, "", "", &err), nullptr);
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------
// RemoteTransport probe through the fake-ssh seam (no vip_sim
// needed; the full launch/fetch path runs in tests/fleet_chaos.sh
// where the real binaries exist).
// ---------------------------------------------------------------

TEST_F(TransportTest, RemoteProbeThroughFakeSsh)
{
    const std::string fake = write("fake_ssh.sh",
                                   "#!/bin/sh\n"
                                   "for a in \"$@\"; do c=\"$a\"; "
                                   "done\nexec /bin/sh -c \"$c\"\n");
    ::chmod(fake.c_str(), 0755);

    RemoteHostOptions opt;
    opt.name = "fake";
    opt.sshCmd = {fake, "nohost"};
    opt.remoteDir = path("remote");
    opt.vipSim = "/bin/true";
    opt.opTimeoutMs = 5000.0;
    opt.opRetries = 1;
    RemoteTransport t(opt);
    std::string err;
    EXPECT_TRUE(t.probe(&err)) << err;

    // An ssh command that cannot connect reports transport failure.
    RemoteHostOptions down = opt;
    down.sshCmd = {"/bin/false"};
    down.retryBaseMs = 1.0;
    down.retryCapMs = 2.0;
    RemoteTransport td(down);
    EXPECT_FALSE(td.probe(&err));
    EXPECT_FALSE(err.empty());
}

} // namespace
} // namespace fleet
} // namespace vip
