/**
 * @file
 * Checkpoint/restore contract tests (src/ckpt, DESIGN.md §11).
 *
 * The core property is restore-equivalence: checkpoint at cycle N,
 * restore into a fresh System, run to completion — every deterministic
 * artifact (result JSON, gem5-style stats text, the full kEvAll event
 * stream with its interned strings) must be byte-identical to an
 * uninterrupted run. The matrix covers every registered policy, fault
 * injection (none / parsed plan / seeded random plan) and both engine
 * modes (fast-forward on and off), with a batch-queued workload so the
 * compile-log replay path is exercised everywhere.
 *
 * The rejection half proves the format fails loudly: truncation,
 * corruption, wrong magic, wrong version and fingerprint mismatches
 * all throw ckpt::Error with a descriptive message and leave the
 * System un-booted; a byte-mutation fuzz extends that to every byte
 * restore reads before the checksum. Whole-file digests pin the v1
 * byte layout itself.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/ckpt.hh"
#include "fault/fault.hh"
#include "kir/kir.hh"
#include "obs/sink.hh"
#include "policy/sharing_model.hh"
#include "sim/system.hh"
#include "sim/trace.hh"
#include "workloads/suite.hh"

namespace occamy
{
namespace
{

/** Small deterministic compute loop: o[i] = a[i] * b[i] + 2. */
kir::Loop
axpyLoop(const std::string &name, std::uint64_t trip)
{
    kir::Loop loop;
    loop.name = name;
    loop.trip = trip;
    const int a = loop.addArray(name + "_a", trip, true);
    const int b = loop.addArray(name + "_b", trip, true);
    const int o = loop.addArray(name + "_o", trip, true);
    loop.store(o, kir::op(kir::ArithOp::Add,
                          kir::op(kir::ArithOp::Mul, kir::load(a, 0),
                                  kir::load(b, 0)),
                          kir::cst(2.0)));
    return loop;
}

/** Streaming reduction loop (different OI, exercises the LaneMgr). */
kir::Loop
dotLoop(const std::string &name, std::uint64_t trip)
{
    kir::Loop loop;
    loop.name = name;
    loop.trip = trip;
    const int a = loop.addArray(name + "_a", trip, true);
    const int b = loop.addArray(name + "_b", trip, true);
    loop.reduction =
        kir::op(kir::ArithOp::Mul, kir::load(a, 0), kir::load(b, 0));
    return loop;
}

/** Standard machine under test: two cores with mixed workloads plus a
 *  batch-queued workload, so restore must also replay a queue-dispatch
 *  compile. */
void
setup(System &sys)
{
    sys.setWorkload(0, "w0", {axpyLoop("p0", 4096), dotLoop("p1", 8192)});
    sys.setWorkload(1, "w1", {axpyLoop("q0", 6144)});
    sys.enqueueWorkload("wq", {dotLoop("r0", 4096)});
}

/** Everything a run produces that the determinism contract covers. */
struct Artifacts
{
    std::string json;       ///< trace::toJson of the result.
    std::string stats;      ///< gem5-style statsText.
    std::vector<obs::Event> events;
    std::vector<std::string> strings;
};

Artifacts
straightRun(const MachineConfig &cfg, RunOptions opt,
            const std::function<void(System &)> &prep = setup)
{
    obs::RingSink sink(1u << 20, obs::kEvAll);
    opt.sink = &sink;
    System sys(cfg);
    prep(sys);
    const RunResult r = sys.run(opt);
    const obs::TraceBuffer tb = sink.take();
    return {trace::toJson(r), r.statsText, tb.events, tb.strings};
}

/** Run to @p ckpt_cycle, checkpoint, restore into a fresh System and
 *  finish; artifacts are the concatenation of both halves. Also
 *  returns the serialized checkpoint via @p saved (for the rejection
 *  tests). */
Artifacts
splitRun(const MachineConfig &cfg, RunOptions opt, Cycle ckpt_cycle,
         std::string *saved = nullptr,
         const std::function<void(System &)> &prep = setup)
{
    std::string bytes;
    obs::TraceBuffer first;
    {
        obs::RingSink sink(1u << 20, obs::kEvAll);
        opt.sink = &sink;
        System sys(cfg);
        prep(sys);
        sys.boot(opt);
        sys.advance(ckpt_cycle);
        std::ostringstream os(std::ios::binary);
        sys.saveCheckpoint(os);
        bytes = os.str();
        first = sink.take();
        // `sys` is abandoned mid-run here; its destructor cleans up.
    }
    if (saved)
        *saved = bytes;

    obs::RingSink sink(1u << 20, obs::kEvAll);
    opt.sink = &sink;
    System sys(cfg);
    prep(sys);
    std::istringstream is(bytes, std::ios::binary);
    sys.restoreCheckpoint(is, opt);
    sys.advance();
    const RunResult r = sys.finalize();
    const obs::TraceBuffer second = sink.take();

    Artifacts out{trace::toJson(r), r.statsText, first.events,
                  second.strings};
    out.events.insert(out.events.end(), second.events.begin(),
                      second.events.end());
    return out;
}

void
expectIdentical(const Artifacts &a, const Artifacts &b,
                const std::string &what)
{
    EXPECT_EQ(a.json, b.json) << what;
    EXPECT_EQ(a.stats, b.stats) << what;
    ASSERT_EQ(a.events.size(), b.events.size()) << what;
    for (std::size_t i = 0; i < a.events.size(); ++i)
        ASSERT_TRUE(a.events[i] == b.events[i])
            << what << " diverges at event " << i << " ("
            << obs::eventKindName(a.events[i].kind) << " vs "
            << obs::eventKindName(b.events[i].kind) << ")";
    EXPECT_EQ(a.strings, b.strings) << what;
}

/** The full matrix: policy x fault mode x fast-forward. */
TEST(CkptMatrix, RestoreEquivalenceIsByteIdentical)
{
    struct FaultMode
    {
        const char *name;
        const char *planText;   ///< Parsed plan ("" = none).
        std::uint64_t seed;     ///< Random plan (0 = none).
    };
    const FaultMode kFaults[] = {
        {"fault-free", "", 0},
        {"parsed-plan",
         "lane@8000:bu=1;vldeny@4000+3000:core=0;dram@6000+4000:lat=60,"
         "bw=8",
         0},
        {"seeded-plan", "", 7},
    };

    for (const policy::SharingModel *m : policy::allModels()) {
        const MachineConfig cfg = MachineConfig::forPolicy(m->id(), 2);
        for (const FaultMode &fm : kFaults) {
            fault::FaultPlan plan;
            if (*fm.planText)
                plan = fault::FaultPlan::parse(fm.planText);
            else if (fm.seed)
                plan = fault::FaultPlan::random(fm.seed, cfg);
            for (const bool ff : {true, false}) {
                RunOptions opt;
                opt.maxCycles = 10'000'000;
                opt.fastForward = ff;
                opt.watchdogCycles = 50'000;
                if (!plan.empty())
                    opt.faultPlan = &plan;
                const std::string what =
                    std::string(m->key()) + "/" + fm.name +
                    (ff ? "/ff" : "/ticked");
                const Artifacts ref = straightRun(cfg, opt);
                const Artifacts split = splitRun(cfg, opt, 10'000);
                expectIdentical(ref, split, what);
            }
        }
    }
}

/** Pause boundaries are exact at the edges too: checkpoint at cycle 0
 *  (nothing executed) and cycle 1. */
TEST(CkptMatrix, EdgeCheckpointCyclesRoundTrip)
{
    const MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    RunOptions opt;
    opt.maxCycles = 10'000'000;
    const Artifacts ref = straightRun(cfg, opt);
    expectIdentical(ref, splitRun(cfg, opt, 0), "ckpt@0");
    expectIdentical(ref, splitRun(cfg, opt, 1), "ckpt@1");
}

/** A checkpoint taken after completion restores as a completed run. */
TEST(CkptMatrix, CheckpointOfFinishedRunRestores)
{
    const MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Private, 2);
    RunOptions opt;
    opt.maxCycles = 10'000'000;
    const Artifacts ref = straightRun(cfg, opt);
    const Artifacts split = splitRun(cfg, opt, kCycleNever);
    expectIdentical(ref, split, "ckpt@done");
}

// ------------------------------------------------- clustered machines

/** Mixed workloads on every core of a clustered machine, plus queued
 *  work so restore also replays cross-cluster batch dispatch. */
void
setupClustered(System &sys, unsigned cores)
{
    for (unsigned c = 0; c < cores; ++c) {
        const std::string n = std::to_string(c);
        if (c % 2)
            sys.setWorkload(static_cast<CoreId>(c), "w" + n,
                            {dotLoop("d" + n, 8192)});
        else
            sys.setWorkload(static_cast<CoreId>(c), "w" + n,
                            {axpyLoop("a" + n, 4096)});
    }
    sys.enqueueWorkload("wq0", {dotLoop("r0", 4096)});
    sys.enqueueWorkload("wq1", {axpyLoop("r1", 4096)});
}

/** Restore-equivalence extends to clustered topologies: the gated
 *  "cluster" checkpoint section carries the arbiter grants, share
 *  integrals and migration counters across the pause boundary, so a
 *  16-core 4x4 run resumes byte-identically in both engine modes. */
TEST(CkptCluster, SixteenCoreClusteredRunRestoresByteIdentically)
{
    const MachineConfig cfg =
        MachineConfig::Builder(SharingPolicy::Elastic)
            .topology(4, 4)
            .build();
    const auto prep = [](System &sys) { setupClustered(sys, 16); };
    for (const bool ff : {true, false}) {
        RunOptions opt;
        opt.maxCycles = 10'000'000;
        opt.fastForward = ff;
        const std::string what =
            std::string("4x4/") + (ff ? "ff" : "ticked");
        const Artifacts ref = straightRun(cfg, opt, prep);
        // Checkpoint past the first arbiter rebalance (period 4096) so
        // restored bandwidth grants are actually exercised.
        const Artifacts split = splitRun(cfg, opt, 10'000, nullptr, prep);
        expectIdentical(ref, split, what);
    }
}

/** Checkpoints taken while ClusterEngines tick on a worker pool are
 *  byte-identical to serial ones (the save runs between horizons, when
 *  the workers are parked and every event buffer is drained), and the
 *  thread count is excluded from the fingerprint — a serial checkpoint
 *  resumes under any worker count and vice versa. */
TEST(CkptCluster, WorkerPoolCheckpointsMatchSerialAndCrossRestore)
{
    const MachineConfig cfg =
        MachineConfig::Builder(SharingPolicy::Elastic)
            .topology(2, 2)
            .build();
    const auto prep = [](System &sys) { setupClustered(sys, 4); };

    RunOptions serial;
    serial.maxCycles = 10'000'000;
    RunOptions threaded = serial;
    threaded.simThreads = 3;

    // Same mid-run pause point, same bytes.
    std::string serial_bytes, threaded_bytes;
    const Artifacts ref = straightRun(cfg, serial, prep);
    const Artifacts split_threaded =
        splitRun(cfg, threaded, 10'000, &threaded_bytes, prep);
    expectIdentical(ref, split_threaded, "2x2 threaded split");
    splitRun(cfg, serial, 10'000, &serial_bytes, prep);
    EXPECT_EQ(serial_bytes, threaded_bytes);

    // Cross-restore: serial checkpoint, threaded resume.
    obs::RingSink sink(1u << 20, obs::kEvAll);
    RunOptions resume = threaded;
    resume.sink = &sink;
    System sys(cfg);
    prep(sys);
    std::istringstream is(serial_bytes, std::ios::binary);
    sys.restoreCheckpoint(is, resume);
    sys.advance();
    const RunResult r = sys.finalize();
    EXPECT_EQ(trace::toJson(r), ref.json);
    EXPECT_EQ(r.statsText, ref.stats);
}

/** A clustered checkpoint never restores into a flat machine with the
 *  same core count: the topology is part of the fingerprint. */
TEST(CkptCluster, TopologyMismatchFailsLoudly)
{
    RunOptions opt;
    opt.maxCycles = 10'000'000;
    const auto prep = [](System &sys) { setupClustered(sys, 4); };

    std::string bytes;
    {
        const MachineConfig cfg =
            MachineConfig::Builder(SharingPolicy::Elastic)
                .topology(2, 2)
                .build();
        System sys(cfg);
        prep(sys);
        sys.boot(opt);
        sys.advance(5'000);
        std::ostringstream os(std::ios::binary);
        sys.saveCheckpoint(os);
        bytes = os.str();
    }

    const MachineConfig flat =
        MachineConfig::Builder(SharingPolicy::Elastic).cores(4).build();
    System sys(flat);
    prep(sys);
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(sys.restoreCheckpoint(is, opt), ckpt::Error);
}

/** Periodic checkpointing (RunOptions::checkpointOut/-Every) never
 *  perturbs the run, and the last snapshot resumes to the same end
 *  state. */
TEST(CkptPeriodic, OverwritesLatestAndResumesIdentically)
{
    const MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    const std::string file =
        testing::TempDir() + "occamy_periodic.ckpt";

    RunOptions plain;
    plain.maxCycles = 10'000'000;
    const Artifacts ref = straightRun(cfg, plain);

    RunOptions ckpt = plain;
    ckpt.checkpointOut = file;
    ckpt.checkpointEvery = 7'000;
    const Artifacts with = straightRun(cfg, ckpt);
    expectIdentical(ref, with, "periodic writes must not perturb");

    // Resume the last periodic snapshot and finish: same result JSON
    // and stats (the trace tail depends on the snapshot cycle, so the
    // whole-run event stream is not comparable here).
    obs::RingSink sink(1u << 20, obs::kEvAll);
    RunOptions resume = plain;
    resume.sink = &sink;
    System sys(cfg);
    setup(sys);
    std::ifstream is(file, std::ios::binary);
    ASSERT_TRUE(is.good());
    sys.restoreCheckpoint(is, resume);
    sys.advance();
    const RunResult r = sys.finalize();
    EXPECT_EQ(trace::toJson(r), ref.json);
    EXPECT_EQ(r.statsText, ref.stats);
    std::remove(file.c_str());
}

// ------------------------------------------------- traffic streams

/** Standard traffic setup used by the traffic checkpoint tests. */
traffic::TrafficConfig
trafficConfig()
{
    traffic::TrafficConfig tc;
    tc.process = "poisson";
    tc.scheduler = "sjf";
    tc.tenants = 2;
    tc.seed = 13;
    tc.jobsPerTenant = 2;
    tc.meanGapCycles = 20'000.0;
    tc.sloCycles = 1'000'000;
    return tc;
}

void
setupTraffic(System &sys, const traffic::TrafficConfig &tc)
{
    sys.setWorkload(0, "idle0", {});
    sys.setWorkload(1, "idle1", {});
    for (const traffic::Arrival &a : traffic::generate(tc))
        sys.enqueueArrival(a);
    sys.setDispatcher(traffic::dispatcherByName(tc.scheduler));
}

/** Restore-equivalence extends to runs with traffic state: arrival
 *  bookkeeping, dispatcher choice and SLO accounting all survive the
 *  pause boundary byte-identically. */
TEST(CkptTraffic, TrafficRunRestoresByteIdentically)
{
    const traffic::TrafficConfig tc = trafficConfig();
    const MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    RunOptions opt;
    opt.maxCycles = 20'000'000;

    auto straight = [&] {
        System sys(cfg);
        setupTraffic(sys, tc);
        return sys.run(opt);
    };
    const RunResult ref = straight();
    ASSERT_FALSE(ref.timedOut);
    ASSERT_FALSE(ref.trafficJobs.empty());

    // Checkpoint mid-stream (before the last arrival lands) and resume.
    std::string bytes;
    {
        System sys(cfg);
        setupTraffic(sys, tc);
        sys.boot(opt);
        sys.advance(15'000);
        std::ostringstream os(std::ios::binary);
        sys.saveCheckpoint(os);
        bytes = os.str();
    }
    System sys(cfg);
    setupTraffic(sys, tc);
    std::istringstream is(bytes, std::ios::binary);
    sys.restoreCheckpoint(is, opt);
    sys.advance();
    const RunResult resumed = sys.finalize();

    EXPECT_EQ(trace::toJson(ref), trace::toJson(resumed));
    EXPECT_EQ(ref.statsText, resumed.statsText);
    EXPECT_EQ(ref.sloViolations, resumed.sloViolations);
    ASSERT_EQ(ref.trafficJobs.size(), resumed.trafficJobs.size());
    for (std::size_t i = 0; i < ref.trafficJobs.size(); ++i) {
        EXPECT_EQ(ref.trafficJobs[i].arrive,
                  resumed.trafficJobs[i].arrive) << i;
        EXPECT_EQ(ref.trafficJobs[i].admit,
                  resumed.trafficJobs[i].admit) << i;
        EXPECT_EQ(ref.trafficJobs[i].finish,
                  resumed.trafficJobs[i].finish) << i;
    }
}

/** A traffic checkpoint never restores into a traffic-free System (and
 *  vice versa): the fingerprint covers the traffic configuration. */
TEST(CkptTraffic, TrafficPresenceMismatchFailsLoudly)
{
    const MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    RunOptions opt;
    opt.maxCycles = 20'000'000;

    std::string with_traffic;
    {
        System sys(cfg);
        setupTraffic(sys, trafficConfig());
        sys.boot(opt);
        sys.advance(5'000);
        std::ostringstream os(std::ios::binary);
        sys.saveCheckpoint(os);
        with_traffic = os.str();
    }

    // Traffic checkpoint into a plain System.
    {
        System sys(cfg);
        setup(sys);
        std::istringstream is(with_traffic, std::ios::binary);
        EXPECT_THROW(sys.restoreCheckpoint(is, opt), ckpt::Error);
        EXPECT_FALSE(sys.booted());
    }

    // Plain checkpoint into a traffic System.
    std::string plain;
    {
        System sys(cfg);
        setup(sys);
        sys.boot(opt);
        sys.advance(5'000);
        std::ostringstream os(std::ios::binary);
        sys.saveCheckpoint(os);
        plain = os.str();
    }
    System sys(cfg);
    setupTraffic(sys, trafficConfig());
    std::istringstream is(plain, std::ios::binary);
    EXPECT_THROW(sys.restoreCheckpoint(is, opt), ckpt::Error);
    EXPECT_FALSE(sys.booted());
}

// ------------------------------------------------- admission state

/** Oversubscribed admission-controlled stream: arrival rate far above
 *  service rate, so the slo-aware policy defers and sheds while the
 *  overload detector trips — the richest admission state to carry
 *  across a pause boundary. */
traffic::TrafficConfig
stormConfig()
{
    traffic::TrafficConfig tc;
    tc.process = "poisson";
    tc.scheduler = "fcfs";
    tc.tenants = 4;
    tc.seed = 11;
    tc.jobsPerTenant = 4;
    tc.meanGapCycles = 25'000.0;
    tc.sloCycles = 600'000;
    return tc;
}

void
setupStorm(System &sys, const char *admission)
{
    setupTraffic(sys, stormConfig());
    sys.setAdmission(traffic::admissionByName(admission), 2,
                     static_cast<Cycle>(stormConfig().meanGapCycles));
}

/** Restore-equivalence holds mid-overload: checkpoint while the
 *  slo-aware controller is deferring/shedding under a storm, restore
 *  into a fresh System, and every artifact — trace, stats, shed/defer
 *  verdicts, per-job lifecycles — matches the uninterrupted run
 *  byte-identically. */
TEST(CkptAdmission, MidOverloadRestoreIsByteIdentical)
{
    const MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    RunOptions opt;
    opt.maxCycles = 20'000'000;

    auto straight = [&] {
        System sys(cfg);
        setupStorm(sys, "slo-aware");
        return sys.run(opt);
    };
    const RunResult ref = straight();
    ASSERT_FALSE(ref.timedOut);
    ASSERT_GT(ref.jobsShed, 0u)
        << "storm no longer sheds; the test would not cover mid-"
           "overload state — retune stormConfig()";

    // Checkpoint at several depths, including while deferred jobs are
    // waiting out their backoff and sheds have already happened.
    for (const Cycle at : {10'000ULL, 60'000ULL, 200'000ULL}) {
        std::string bytes;
        {
            System sys(cfg);
            setupStorm(sys, "slo-aware");
            sys.boot(opt);
            sys.advance(at);
            std::ostringstream os(std::ios::binary);
            sys.saveCheckpoint(os);
            bytes = os.str();
        }
        System sys(cfg);
        setupStorm(sys, "slo-aware");
        std::istringstream is(bytes, std::ios::binary);
        sys.restoreCheckpoint(is, opt);
        sys.advance();
        const RunResult resumed = sys.finalize();

        const std::string what = "ckpt@" + std::to_string(at);
        EXPECT_EQ(trace::toJson(ref), trace::toJson(resumed)) << what;
        EXPECT_EQ(ref.statsText, resumed.statsText) << what;
        EXPECT_EQ(ref.jobsShed, resumed.jobsShed) << what;
        EXPECT_EQ(ref.jobDeferrals, resumed.jobDeferrals) << what;
        ASSERT_EQ(ref.trafficJobs.size(), resumed.trafficJobs.size())
            << what;
        for (std::size_t i = 0; i < ref.trafficJobs.size(); ++i) {
            EXPECT_EQ(ref.trafficJobs[i].shed,
                      resumed.trafficJobs[i].shed) << what << " " << i;
            EXPECT_EQ(ref.trafficJobs[i].defers,
                      resumed.trafficJobs[i].defers) << what << " " << i;
            EXPECT_EQ(ref.trafficJobs[i].finish,
                      resumed.trafficJobs[i].finish) << what << " " << i;
        }
    }
}

/** The fingerprint covers the admission configuration: a checkpoint
 *  taken under one policy never restores into a System running
 *  another (or none), and vice versa. */
TEST(CkptAdmission, AdmissionConfigMismatchFailsLoudly)
{
    const MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    RunOptions opt;
    opt.maxCycles = 20'000'000;

    std::string with_admission;
    {
        System sys(cfg);
        setupStorm(sys, "slo-aware");
        sys.boot(opt);
        sys.advance(10'000);
        std::ostringstream os(std::ios::binary);
        sys.saveCheckpoint(os);
        with_admission = os.str();
    }

    // Admission checkpoint into an admission-free traffic System.
    {
        System sys(cfg);
        setupTraffic(sys, stormConfig());
        std::istringstream is(with_admission, std::ios::binary);
        EXPECT_THROW(sys.restoreCheckpoint(is, opt), ckpt::Error);
        EXPECT_FALSE(sys.booted());
    }

    // ...into a different policy.
    {
        System sys(cfg);
        setupStorm(sys, "token-bucket");
        std::istringstream is(with_admission, std::ios::binary);
        EXPECT_THROW(sys.restoreCheckpoint(is, opt), ckpt::Error);
        EXPECT_FALSE(sys.booted());
    }

    // ...into a different cap.
    {
        System sys(cfg);
        setupTraffic(sys, stormConfig());
        sys.setAdmission(traffic::admissionByName("slo-aware"), 7,
                         static_cast<Cycle>(stormConfig().meanGapCycles));
        std::istringstream is(with_admission, std::ios::binary);
        EXPECT_THROW(sys.restoreCheckpoint(is, opt), ckpt::Error);
        EXPECT_FALSE(sys.booted());
    }

    // Admission-free checkpoint into an admission System.
    std::string plain;
    {
        System sys(cfg);
        setupTraffic(sys, stormConfig());
        sys.boot(opt);
        sys.advance(10'000);
        std::ostringstream os(std::ios::binary);
        sys.saveCheckpoint(os);
        plain = os.str();
    }
    System sys(cfg);
    setupStorm(sys, "slo-aware");
    std::istringstream is(plain, std::ios::binary);
    EXPECT_THROW(sys.restoreCheckpoint(is, opt), ckpt::Error);
    EXPECT_FALSE(sys.booted());
}

// ------------------------------------------------- pinned fingerprints

/** Checkpoint fingerprint of a reference traffic-free setup. The
 *  fingerprint is the first u64 of the "meta" section: u32 magic, u32
 *  version, u32 section tag, u64 section length, 4-byte section name,
 *  then the value. */
std::uint64_t
fingerprintOf(SharingPolicy p, bool with_batch)
{
    const auto pairs = workloads::allPairs();
    const workloads::Pair *pair = nullptr;
    for (const auto &pr : pairs)
        if (pr.label == "6+16")
            pair = &pr;
    if (pair == nullptr)
        ADD_FAILURE() << "pair 6+16 missing from the suite";

    System sys(MachineConfig::forPolicy(p, 2));
    sys.setWorkload(0, pair->core0.name, pair->core0.loops);
    sys.setWorkload(1, pair->core1.name, pair->core1.loops);
    if (with_batch) {
        const auto w8 = workloads::specWorkload(8);
        sys.enqueueWorkload(w8.name, w8.loops);
    }
    sys.boot({});
    std::ostringstream os(std::ios::binary);
    sys.saveCheckpoint(os);
    const std::string bytes = os.str();
    const std::size_t off = 4 + 4 + 4 + 8 + 4;
    std::uint64_t fp = 0;
    for (int i = 0; i < 8; ++i)
        fp |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(bytes[off + i]))
              << (8 * i);
    return fp;
}

/**
 * Traffic-off fingerprint regression: these constants were pinned
 * before the traffic engine landed, so any drift means a traffic-free
 * run no longer serializes identically — exactly the regression the
 * traffic integration must never cause. If a later change moves them
 * *intentionally* (new determinism-relevant state), re-pin all three
 * together and regenerate tests/golden.
 */
TEST(CkptFingerprint, TrafficOffFingerprintsAreUnchanged)
{
    EXPECT_EQ(fingerprintOf(SharingPolicy::Elastic, false),
              0x1c18ebc9ed39bcf6ULL);
    EXPECT_EQ(fingerprintOf(SharingPolicy::Elastic, true),
              0x78203c5e19a8542dULL);
    EXPECT_EQ(fingerprintOf(SharingPolicy::Private, true),
              0xe203c1abe5c2e0feULL);
}

// ------------------------------------------------- pinned byte layout

/** FNV-1a-64 over a whole checkpoint. */
std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (unsigned char ch : bytes)
        h = (h ^ ch) * 0x100000001B3ULL;
    return h;
}

/** Boot, advance to @p at, and return the saved checkpoint bytes. */
std::string
checkpointAt(const MachineConfig &cfg, const RunOptions &opt, Cycle at,
             const std::function<void(System &)> &prep)
{
    System sys(cfg);
    prep(sys);
    sys.boot(opt);
    sys.advance(at);
    std::ostringstream os(std::ios::binary);
    sys.saveCheckpoint(os);
    return os.str();
}

/** The little-endian u64 at offset @p off. */
std::uint64_t
u64At(const std::string &bytes, std::size_t off)
{
    std::uint64_t n = 0;
    for (int i = 0; i < 8; ++i)
        n |= std::uint64_t{static_cast<unsigned char>(bytes.at(off + i))}
             << (8 * i);
    return n;
}

/** Entries in the compile log: the u64 at offset 128 of the "engine"
 *  section (header 8, meta 32, engine marker 18, 70 bytes of engine
 *  scalars, the u32 region counter). */
std::uint64_t
compileLogLength(const std::string &bytes)
{
    return u64At(bytes, 128);
}

/** @p bytes with the u64 at @p off set to @p v and the checksum
 *  trailer recomputed, so only a range check can reject the file. */
std::string
patchU64(std::string bytes, std::size_t off, std::uint64_t v)
{
    const std::size_t trailer = bytes.size() - 8;
    for (int i = 0; i < 8; ++i)
        bytes.at(off + i) = static_cast<char>(v >> (8 * i));
    const std::uint64_t h = fnv1a64(bytes.substr(0, trailer));
    for (int i = 0; i < 8; ++i)
        bytes[trailer + i] = static_cast<char>(h >> (8 * i));
    return bytes;
}

/**
 * The v1 byte layout, pinned whole. Round-trip tests cannot see a field
 * that moves on the save and load sides at once, and the fingerprint
 * test pins only 8 bytes; these digests cover every byte of three
 * checkpoints that between them reach every section. They may change
 * only together with ckpt::kVersion.
 */
TEST(CkptLayout, V1BytesArePinned)
{
    struct Case
    {
        const char *what;
        std::string bytes;
        std::size_t size;
        std::uint64_t digest;
    };
    std::vector<Case> cases;

    // Flat 2-core machine: dispatched queued workload (non-empty
    // compile log), a fault plan, metric snapshots and a sink's intern
    // table.
    {
        const MachineConfig cfg =
            MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
        const fault::FaultPlan plan = fault::FaultPlan::parse(
            "lane@8000:bu=1;vldeny@4000+3000:core=0;dram@6000+4000:"
            "lat=60,bw=8");
        obs::RingSink sink(1u << 20, obs::kEvAll);
        RunOptions opt;
        opt.maxCycles = 10'000'000;
        opt.faultPlan = &plan;
        opt.snapshotEvery = 5'000;
        opt.sink = &sink;
        std::string bytes = checkpointAt(cfg, opt, 60'000, setup);
        ASSERT_GT(compileLogLength(bytes), 0u);
        cases.push_back({"flat+batch+faults", std::move(bytes), 2'465'231,
                         0x5ce948a904376a13ULL});
    }
    // Slo-aware admission mid-overload: "traffic" and "admit".
    {
        const MachineConfig cfg =
            MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
        RunOptions opt;
        opt.maxCycles = 20'000'000;
        cases.push_back(
            {"storm@60k",
             checkpointAt(cfg, opt, 60'000,
                          [](System &sys) { setupStorm(sys, "slo-aware"); }),
             2'469'205, 0xe8eec1e400c70870ULL});
    }
    // 2x2 clustered machine: "cluster" and per-engine shares.
    {
        const MachineConfig cfg =
            MachineConfig::Builder(SharingPolicy::Elastic)
                .topology(2, 2)
                .build();
        RunOptions opt;
        opt.maxCycles = 10'000'000;
        cases.push_back(
            {"2x2@10k",
             checkpointAt(cfg, opt, 10'000,
                          [](System &sys) { setupClustered(sys, 4); }),
             2'595'938, 0x17b890b8df076c5fULL});
    }

    for (const Case &c : cases) {
        EXPECT_EQ(c.bytes.size(), c.size) << c.what;
        EXPECT_EQ(fnv1a64(c.bytes), c.digest)
            << c.what << ": 0x" << std::hex << fnv1a64(c.bytes);
    }
}

// ------------------------------------------------- format rejection

std::string
validCheckpoint(const MachineConfig &cfg, RunOptions opt)
{
    std::string bytes;
    splitRun(cfg, opt, 5'000, &bytes);
    return bytes;
}

class CkptReject : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        cfg_ = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
        opt_.maxCycles = 10'000'000;
        bytes_ = validCheckpoint(cfg_, opt_);
        ASSERT_GT(bytes_.size(), 64u);
    }

    /** Restore @p bytes into a System prepared by @p prep, expecting a
     *  ckpt::Error whose message holds @p needle; the System must come
     *  back un-booted. */
    void expectReject(const std::string &bytes, const std::string &needle,
                      const std::function<void(System &)> &prep = setup)
    {
        System sys(cfg_);
        prep(sys);
        std::istringstream is(bytes, std::ios::binary);
        try {
            sys.restoreCheckpoint(is, opt_);
            FAIL() << "restore accepted a bad checkpoint (wanted: "
                   << needle << ")";
        } catch (const ckpt::Error &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << "actual message: " << e.what();
        }
        EXPECT_FALSE(sys.booted())
            << "failed restore must leave the System un-booted";
    }

    MachineConfig cfg_;
    RunOptions opt_;
    std::string bytes_;
};

TEST_F(CkptReject, TruncatedFile)
{
    expectReject(bytes_.substr(0, bytes_.size() / 2), "truncated");
}

TEST_F(CkptReject, TruncatedInsideChecksumTrailer)
{
    expectReject(bytes_.substr(0, bytes_.size() - 3), "checksum");
}

TEST_F(CkptReject, CorruptByteMidFile)
{
    // A mid-payload flip may be caught by any structural guard (section
    // marker, array bound, boolean range) or ultimately the checksum —
    // every such message names the checkpoint.
    std::string bad = bytes_;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x5a);
    expectReject(bad, "checkpoint");
}

TEST_F(CkptReject, CorruptChecksumTrailer)
{
    // Flipping a trailer byte leaves the payload intact, so this must
    // be caught by the checksum comparison specifically.
    std::string bad = bytes_;
    bad.back() = static_cast<char>(bad.back() ^ 0x01);
    expectReject(bad, "checksum mismatch");
}

TEST_F(CkptReject, WrongMagic)
{
    std::string bad = bytes_;
    bad[0] = 'X';
    expectReject(bad, "not an Occamy checkpoint");
}

TEST_F(CkptReject, WrongVersion)
{
    std::string bad = bytes_;
    bad[4] = 99;    // Version field follows the 4-byte magic (LE).
    expectReject(bad, "version");
}

TEST_F(CkptReject, EmptyStream)
{
    expectReject("", "truncated");
}

TEST_F(CkptReject, FingerprintMismatchOnDifferentWorkloads)
{
    System sys(cfg_);
    sys.setWorkload(0, "other", {axpyLoop("z0", 2048)});
    sys.setWorkload(1, "other2", {dotLoop("z1", 1024)});
    std::istringstream is(bytes_, std::ios::binary);
    EXPECT_THROW(sys.restoreCheckpoint(is, opt_), ckpt::Error);
    EXPECT_FALSE(sys.booted());
}

TEST_F(CkptReject, FingerprintMismatchOnDifferentPolicy)
{
    const MachineConfig other =
        MachineConfig::forPolicy(SharingPolicy::Temporal, 2);
    System sys(other);
    setup(sys);
    std::istringstream is(bytes_, std::ios::binary);
    try {
        sys.restoreCheckpoint(is, opt_);
        FAIL() << "restore accepted a different policy";
    } catch (const ckpt::Error &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(sys.booted());
}

TEST_F(CkptReject, FingerprintMismatchOnDifferentOptions)
{
    System sys(cfg_);
    setup(sys);
    RunOptions other = opt_;
    other.watchdogCycles = 123;     // Determinism-relevant.
    std::istringstream is(bytes_, std::ios::binary);
    EXPECT_THROW(sys.restoreCheckpoint(is, other), ckpt::Error);
    EXPECT_FALSE(sys.booted());
}

TEST_F(CkptReject, FaultPlanPresenceMismatch)
{
    System sys(cfg_);
    setup(sys);
    RunOptions other = opt_;
    const fault::FaultPlan plan =
        fault::FaultPlan::parse("lane@8000:bu=1");
    other.faultPlan = &plan;
    std::istringstream is(bytes_, std::ios::binary);
    EXPECT_THROW(sys.restoreCheckpoint(is, other), ckpt::Error);
    EXPECT_FALSE(sys.booted());
}

TEST_F(CkptReject, CorruptCompileLogCoreId)
{
    // Offset 136 is the first compile-log entry's core id. It is read
    // and used (to replay the compile) long before the checksum is
    // checked, so it must be range-checked where it is read.
    const std::string bytes = checkpointAt(cfg_, opt_, 60'000, setup);
    ASSERT_GT(compileLogLength(bytes), 0u);
    std::string bad = bytes;
    bad[136] = static_cast<char>(bad[136] ^ 0x10);
    expectReject(bad, "compile log references a core");
}

TEST_F(CkptReject, CorruptPendingDispatchIndex)
{
    // A core mid-context-switch whose pending queue index is past the
    // queue: restore must refuse it before placement indexes the queue
    // with it. Both fields sit in the "engine" section after the
    // compile log (10 bytes an entry), core_prog, finish and done, the
    // dispatched flags and count, and the per-core scheduled OIs.
    const std::size_t C = cfg_.numCores, n = 1;
    const std::size_t dispatch_at = 136 + 10 * compileLogLength(bytes_) +
                                    8 * C + 8 * C + C + 8 + n + 8 + 17 * C;
    const std::size_t pending = dispatch_at + 8 * C;
    ASSERT_EQ(u64At(bytes_, dispatch_at), kCycleNever);
    ASSERT_EQ(u64At(bytes_, pending), 0u);
    const std::string bad = patchU64(patchU64(bytes_, dispatch_at, 6'000),
                                     pending, 1'000);
    expectReject(bad, "pending dispatch references a queue entry");
}

TEST_F(CkptReject, CorruptRunningJobIndex)
{
    // A traffic job running on core 0 whose queue index is past the
    // queue: completion would index the job table with it. core_job
    // follows the "traffic" marker, the queue length, 25 bytes per
    // entry and three u64 counters.
    const auto prep = [](System &sys) { setupStorm(sys, "slo-aware"); };
    const std::string bytes = checkpointAt(cfg_, opt_, 60'000, prep);
    const std::string marker("\x07\0\0\0\0\0\0\0traffic", 15);
    const std::size_t at = bytes.find(marker);
    ASSERT_NE(at, std::string::npos);
    const std::size_t n = u64At(bytes, at + marker.size());
    const std::size_t core_job = at + marker.size() + 8 + 25 * n + 24;
    const std::uint64_t job = u64At(bytes, core_job);
    ASSERT_TRUE(job == traffic::kNoJob || job < n);
    expectReject(patchU64(bytes, core_job, n + 1'000),
                 "running job references a queue entry", prep);
}

/**
 * Byte-mutation fuzz over the restore path: XOR every byte from the
 * "engine" section through the intern table (where read values drive
 * compile replay and container sizes before the checksum is reached),
 * plus seeded offsets across the component sections and the trailer.
 * Every mutation must fail with ckpt::Error — no crash, no other
 * exception type — and leave the System un-booted.
 */
TEST(CkptFuzz, EveryByteMutationFailsWithCkptError)
{
    const MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    obs::RingSink sink(1u << 16, obs::kEvAll);
    RunOptions opt;
    opt.maxCycles = 10'000'000;
    opt.sink = &sink;
    const std::string bytes = checkpointAt(cfg, opt, 60'000, setup);
    ASSERT_GT(compileLogLength(bytes), 0u);

    // The "mem" section marker (tag, name length, name) follows the
    // intern table and the fault-injector presence flag.
    const std::string mem_marker("\x00\x00\xc7\x5e\x03\x00\x00\x00"
                                 "\x00\x00\x00\x00mem",
                                 15);
    const std::size_t engine_at = 40;
    const std::size_t mem_at = bytes.find(mem_marker);
    ASSERT_NE(mem_at, std::string::npos);
    ASSERT_GT(mem_at, engine_at);

    std::vector<std::pair<std::size_t, unsigned char>> flips;
    for (std::size_t off = engine_at; off < mem_at; ++off)
        flips.emplace_back(off, 0x10);
    std::mt19937_64 rng(0x0CCA11);
    const std::size_t trailer_at = bytes.size() - 8;
    for (int i = 0; i < 64; ++i) {
        const std::size_t lo = i % 8 == 0 ? trailer_at : mem_at;
        const std::size_t hi = i % 8 == 0 ? bytes.size() : trailer_at;
        flips.emplace_back(lo + rng() % (hi - lo),
                           static_cast<unsigned char>(1 + rng() % 255));
    }

    for (const auto &[off, mask] : flips) {
        std::string bad = bytes;
        bad[off] = static_cast<char>(bad[off] ^ mask);
        System sys(cfg);
        setup(sys);
        std::istringstream is(bad, std::ios::binary);
        try {
            sys.restoreCheckpoint(is, opt);
            ADD_FAILURE() << "accepted a flip at offset " << off;
        } catch (const ckpt::Error &) {
        } catch (const std::exception &e) {
            ADD_FAILURE() << "offset " << off << ": " << e.what();
        }
        EXPECT_FALSE(sys.booted()) << "offset " << off;
    }
}

/** Engine-mask sinks see the checkpoint lifecycle beacons. */
TEST(CkptEvents, EngineBeaconsAreEmitted)
{
    const MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    obs::RingSink sink(1u << 16, obs::kEvEngine);
    RunOptions opt;
    opt.maxCycles = 10'000'000;
    opt.sink = &sink;

    System sys(cfg);
    setup(sys);
    sys.boot(opt);
    sys.advance(3'000);
    std::ostringstream os(std::ios::binary);
    sys.saveCheckpoint(os);

    obs::RingSink sink2(1u << 16, obs::kEvEngine);
    RunOptions opt2 = opt;
    opt2.sink = &sink2;
    System sys2(cfg);
    setup(sys2);
    std::istringstream is(os.str(), std::ios::binary);
    sys2.restoreCheckpoint(is, opt2);

    auto count = [](const obs::TraceBuffer &tb, obs::EventKind k) {
        std::size_t n = 0;
        for (const obs::Event &e : tb.events)
            if (e.kind == k)
                ++n;
        return n;
    };
    const obs::TraceBuffer t1 = sink.take();
    EXPECT_EQ(count(t1, obs::EventKind::SystemBoot), 1u);
    const obs::TraceBuffer t2 = sink2.take();
    EXPECT_EQ(count(t2, obs::EventKind::SystemBoot), 1u);
    EXPECT_EQ(count(t2, obs::EventKind::CheckpointRestore), 1u);
}

/** advance(stopAt) ticks every cycle exactly once across arbitrary
 *  pause patterns: many small steps == one straight run. */
TEST(CkptStepping, ManySmallAdvancesMatchOneRun)
{
    const MachineConfig cfg =
        MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    RunOptions opt;
    opt.maxCycles = 10'000'000;
    const Artifacts ref = straightRun(cfg, opt);

    obs::RingSink sink(1u << 20, obs::kEvAll);
    RunOptions sopt = opt;
    sopt.sink = &sink;
    System sys(cfg);
    setup(sys);
    sys.boot(sopt);
    Cycle at = 0;
    while (!sys.advance(at))
        at += 1 + (at % 4096);      // Irregular step sizes.
    const RunResult r = sys.finalize();
    const obs::TraceBuffer tb = sink.take();
    Artifacts stepped{trace::toJson(r), r.statsText, tb.events,
                      tb.strings};
    expectIdentical(ref, stepped, "stepped");
}

} // namespace
} // namespace occamy
