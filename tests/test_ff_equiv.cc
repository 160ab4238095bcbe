/**
 * @file
 * Fast-forward equivalence suite. The quiescence-aware engine behind
 * RunOptions::fastForward must be a pure wall-clock optimization:
 * running any workload with it on or off has to produce byte-identical
 * canonical trace JSON, identical timelines/snapshots/stats dumps and
 * byte-identical exported event traces. Every golden-matrix cell is
 * checked both ways, plus timed-out and batch-queue (idle-heavy) runs,
 * plus unit tests of the component quiescence probes (nextEventAt).
 */

#include <sstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "coproc/coproc.hh"
#include "golden_matrix.hh"
#include "mem/memsystem.hh"
#include "obs/export.hh"
#include "runner/runner.hh"
#include "sim/trace.hh"
#include "workloads/phases.hh"

using namespace occamy;

namespace
{

/** Run one golden-matrix cell with tracing + snapshots at a given
 *  fast-forward setting. */
runner::JobResult
runCell(const runner::JobSpec &base, bool fast_forward)
{
    runner::JobSpec spec = base;
    spec.fastForward = fast_forward;
    spec.traceEvents = obs::kEvAll;
    spec.snapshotEvery = 5'000;
    return runner::Runner::runOne(spec);
}

/** Assert every observable artifact of two runs is identical. */
void
expectIdentical(const runner::JobResult &on, const runner::JobResult &off)
{
    // Canonical exported trace: byte-identical.
    EXPECT_EQ(trace::toJson(on.result), trace::toJson(off.result));

    // RunResult fields toJson does not cover.
    EXPECT_EQ(on.result.statsText, off.result.statsText);
    ASSERT_EQ(on.result.cores.size(), off.result.cores.size());
    for (std::size_t c = 0; c < on.result.cores.size(); ++c) {
        SCOPED_TRACE("core " + std::to_string(c));
        EXPECT_EQ(on.result.cores[c].busyLanesTimeline,
                  off.result.cores[c].busyLanesTimeline);
        EXPECT_EQ(on.result.cores[c].allocLanesTimeline,
                  off.result.cores[c].allocLanesTimeline);
    }

    // Event stream + metric snapshots: byte-identical Chrome export.
    // (SchedFastForward events live in the engine category, which is
    // deliberately outside kEvAll, so the streams can match exactly.)
    std::ostringstream a, b;
    obs::writeChromeTrace(a, on.trace, on.result.snapshots);
    obs::writeChromeTrace(b, off.trace, off.result.snapshots);
    EXPECT_EQ(a.str(), b.str());
}

TEST(FastForwardEquiv, GoldenMatrixIsObservationallyIdentical)
{
    for (const auto &spec : golden::goldenJobs()) {
        SCOPED_TRACE(spec.label);
        const runner::JobResult on = runCell(spec, true);
        const runner::JobResult off = runCell(spec, false);
        ASSERT_TRUE(on.ok()) << on.error;
        ASSERT_TRUE(off.ok()) << off.error;
        expectIdentical(on, off);

        // The engine's accounting is consistent, and the classic loop
        // reports itself as never skipping.
        EXPECT_EQ(on.ff.cyclesTicked + on.ff.cyclesSkipped,
                  on.ff.cyclesSimulated);
        EXPECT_EQ(off.ff.cyclesSkipped, 0u);
        EXPECT_EQ(off.ff.cyclesTicked, off.ff.cyclesSimulated);
        EXPECT_EQ(on.ff.cyclesSimulated, off.ff.cyclesSimulated);
    }
}

TEST(FastForwardEquiv, TimedOutRunsMatch)
{
    // A cap far below completion: the engine must land on exactly the
    // same cap cycle and partial state as the ticked loop.
    for (const auto &base : golden::goldenJobs()) {
        SCOPED_TRACE(base.label);
        runner::JobSpec spec = base;
        spec.maxCycles = 5'000;
        const runner::JobResult on = runCell(spec, true);
        const runner::JobResult off = runCell(spec, false);
        EXPECT_TRUE(on.result.timedOut);
        EXPECT_TRUE(off.result.timedOut);
        expectIdentical(on, off);
    }
}

TEST(FastForwardEquiv, BatchQueueWithContextSwitchCostMatchesAndSkips)
{
    // Batch dispatch after a long context switch is the idle-heavy case
    // the engine targets: both cores sit quiescent until the dispatch
    // cycle, which arrives as a Dispatch wake event.
    auto result = [](bool ff, FastForwardStats *stats) {
        const MachineConfig cfg =
            MachineConfig::Builder(SharingPolicy::Elastic)
                .cores(2)
                .contextSwitch(50'000)
                .build();
        System sys(cfg);
        sys.setWorkload(0, "idle0", {});
        sys.setWorkload(1, "idle1", {});
        for (int i = 0; i < 3; ++i)
            sys.enqueueWorkload(
                "job" + std::to_string(i),
                {workloads::makeNamedPhase("wsm51", 16384)});
        RunOptions opt;
        opt.fastForward = ff;
        opt.ffStats = stats;
        return sys.run(opt);
    };

    FastForwardStats on_stats, off_stats;
    const RunResult on = result(true, &on_stats);
    const RunResult off = result(false, &off_stats);

    EXPECT_EQ(trace::toJson(on), trace::toJson(off));
    EXPECT_EQ(on.statsText, off.statsText);
    ASSERT_EQ(on.cores.size(), off.cores.size());
    for (std::size_t c = 0; c < on.cores.size(); ++c) {
        EXPECT_EQ(on.cores[c].busyLanesTimeline,
                  off.cores[c].busyLanesTimeline);
        EXPECT_EQ(on.cores[c].allocLanesTimeline,
                  off.cores[c].allocLanesTimeline);
    }

    // This workload must actually exercise the engine.
    EXPECT_GT(on_stats.spans, 0u);
    EXPECT_GT(on_stats.cyclesSkipped, 0u);
    EXPECT_LT(on_stats.cyclesTicked, off_stats.cyclesTicked);
}

// -------------------------------------------- sim-threads equivalence

/** Clustered machine for the 1-vs-N worker matrix: 4 clusters of 2
 *  cores, alternating memory-bound and compute-bound workloads, plus
 *  batch-queued work so cross-cluster dispatch runs too. */
runner::JobSpec
clusteredSpec(SharingPolicy policy, bool traffic)
{
    runner::JobSpec spec;
    spec.cfg =
        MachineConfig::Builder(policy).topology(4, 2).build();
    for (unsigned c = 0; c < 8; ++c) {
        const std::string n = std::to_string(c);
        if (traffic) {
            spec.workloads.emplace_back("idle" + n,
                                        std::vector<kir::Loop>{});
        } else if (c % 2) {
            spec.workloads.emplace_back(
                "comp" + n,
                std::vector<kir::Loop>{
                    workloads::makeNamedPhase("wsm51", 4096)});
        } else {
            spec.workloads.emplace_back(
                "mem" + n,
                std::vector<kir::Loop>{
                    workloads::makeNamedPhase("rho_eos1", 2048)});
        }
    }
    if (traffic) {
        spec.traffic.process = "poisson";
        spec.traffic.scheduler = "sjf";
        spec.traffic.tenants = 2;
        spec.traffic.seed = 11;
        spec.traffic.jobsPerTenant = 2;
        spec.traffic.meanGapCycles = 20'000.0;
        spec.traffic.sloCycles = 1'000'000;
    } else {
        for (int i = 0; i < 2; ++i)
            spec.batch.emplace_back(
                "q" + std::to_string(i),
                std::vector<kir::Loop>{
                    workloads::makeNamedPhase("wsm53", 4096)});
    }
    spec.maxCycles = 20'000'000;
    return spec;
}

runner::JobResult
runThreaded(runner::JobSpec spec, unsigned threads)
{
    spec.simThreads = threads;
    spec.traceEvents = obs::kEvAll;
    spec.snapshotEvery = 5'000;
    runner::JobResult r = runner::Runner::runOne(spec);
    EXPECT_TRUE(r.ok()) << r.error;
    return r;
}

/** One cell of the 1-vs-N matrix: policy, traffic (else a batch
 *  queue), fault seed (0 = fault-free), fast-forward. */
using MatrixCell =
    std::tuple<SharingPolicy, bool, std::uint64_t, bool>;

class ClusteredMatrix : public ::testing::TestWithParam<MatrixCell>
{
};

/** The tentpole contract (DESIGN.md §15): every observable artifact of
 *  a clustered run is byte-identical whether the per-cluster engines
 *  tick serially or on a worker pool, across policy x fault plan x
 *  traffic x fast-forward. Each cell is its own test (and its own
 *  ctest entry), so the matrix runs in parallel under `ctest -j`. */
TEST_P(ClusteredMatrix, IsByteIdenticalOneVsN)
{
    const auto [policy, traffic, fault_seed, ff] = GetParam();
    runner::JobSpec spec = clusteredSpec(policy, traffic);
    spec.label = std::string("4x2/") + policyName(policy) +
                 (traffic ? "/traffic" : "/batch") +
                 (fault_seed ? "/faults" : "") + (ff ? "/ff" : "/ticked");
    spec.fastForward = ff;
    spec.faultSeed = fault_seed;
    spec.watchdogCycles = 50'000;
    const runner::JobResult serial = runThreaded(spec, 1);
    // 4 workers = one per cluster; 3 leaves a cluster to work-stealing,
    // covering uneven division.
    expectIdentical(serial, runThreaded(spec, 4));
    expectIdentical(serial, runThreaded(spec, 3));
}

/** gtest name of a matrix cell, e.g. Occamy_traffic_faults_ff. */
std::string
cellName(const ::testing::TestParamInfo<MatrixCell> &info)
{
    const auto [policy, traffic, fault_seed, ff] = info.param;
    return std::string(policyName(policy)) +
           (traffic ? "_traffic" : "_batch") +
           (fault_seed ? "_faults" : "") + (ff ? "_ff" : "_ticked");
}

INSTANTIATE_TEST_SUITE_P(
    SimThreadsEquiv, ClusteredMatrix,
    ::testing::Combine(::testing::Values(SharingPolicy::Elastic,
                                         SharingPolicy::Private),
                       ::testing::Bool(),
                       ::testing::Values(std::uint64_t{0},
                                         std::uint64_t{7}),
                       ::testing::Bool()),
    cellName);

/** Thread counts beyond the cluster count are capped, not an error,
 *  and a flat machine stays on the serial loop for any value. */
TEST(SimThreadsEquiv, OversizedAndFlatRequestsDegradeGracefully)
{
    runner::JobSpec clustered =
        clusteredSpec(SharingPolicy::Elastic, false);
    clustered.label = "oversized";
    expectIdentical(runThreaded(clustered, 1),
                    runThreaded(clustered, 64));

    runner::JobSpec flat;
    flat.label = "flat";
    flat.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 2);
    const auto w6 = workloads::specWorkload(6);
    const auto w16 = workloads::specWorkload(16);
    flat.workloads.emplace_back(w6.name, w6.loops);
    flat.workloads.emplace_back(w16.name, w16.loops);
    expectIdentical(runThreaded(flat, 1), runThreaded(flat, 8));
}

TEST(NextEventAt, MemSystemReportsPendingFillsThenDrains)
{
    MachineConfig cfg =
        MachineConfig::Builder(SharingPolicy::Private).cores(2).build();
    MemSystem mem(cfg);

    // Fresh memory system: nothing in flight at any cycle.
    EXPECT_EQ(mem.nextEventAt(0), kCycleNever);
    EXPECT_EQ(mem.nextEventAt(123'456), kCycleNever);

    // A cold-miss access puts a fill in flight: the probe must report
    // a strictly-future cycle, not kCycleNever.
    const MemAccessResult r = mem.access(1 << 20, 64, false, 0);
    ASSERT_GT(r.dataReady, 0u);
    const Cycle next = mem.nextEventAt(0);
    ASSERT_NE(next, kCycleNever);
    EXPECT_GT(next, 0u);

    // Far past every in-flight completion the probe drains again.
    EXPECT_EQ(mem.nextEventAt(1'000'000'000), kCycleNever);
}

TEST(NextEventAt, CoprocDrainedIsNeverAndWakesNeverLate)
{
    MachineConfig cfg =
        MachineConfig::Builder(SharingPolicy::Private).cores(2).build();
    cfg.prefetchDegree = 0;

    MemSystem mem_a(cfg), mem_b(cfg);
    CoProcessor ticked(cfg, mem_a);
    CoProcessor probed(cfg, mem_b);

    EXPECT_EQ(ticked.nextEventAt(0), kCycleNever);
    EXPECT_EQ(ticked.nextEventAt(9'999), kCycleNever);

    auto compute = [](CoProcessor &cp) {
        DynInst d;
        d.op = Opcode::VFAdd;
        d.core = 0;
        d.dstArch = 1;
        d.vlBus = static_cast<std::uint16_t>(cp.currentVl(0));
        d.activeLanes =
            static_cast<std::uint16_t>(d.vlBus * kLanesPerBu);
        d.enqueueCycle = 0;
        return d;
    };
    ticked.enqueue(compute(ticked));
    probed.enqueue(compute(probed));

    // Reference: tick every cycle, note when the pipeline drains.
    Cycle drain = 0;
    while (!ticked.coreDrained(0)) {
        ticked.tick(drain);
        if (ticked.coreDrained(0))
            break;
        ++drain;
        ASSERT_LT(drain, 10'000u);
    }

    // Probe-driven twin: tick only at suggested cycles. The probe may
    // wake early (a no-op tick) but never late, so the drain tick must
    // land on exactly the same cycle.
    probed.tick(0);
    Cycle last = 0;
    for (;;) {
        const Cycle next = probed.nextEventAt(last);
        if (next == kCycleNever)
            break;
        ASSERT_GT(next, last);
        probed.tick(next);
        last = next;
        ASSERT_LT(last, 10'000u);
    }
    EXPECT_TRUE(probed.coreDrained(0));
    EXPECT_EQ(last, drain);
}

} // namespace
