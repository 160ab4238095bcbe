/**
 * @file
 * Tests driving the CoProcessor directly with hand-built dynamic
 * instructions: the rename/issue/commit pipeline (with the event-driven
 * issue tracking and its checkpoint rebuild), EM-SIMD execution
 * semantics (<VL> writes with drain and availability conditions,
 * <OI>-triggered lane plans), per-policy behaviour and the instruction
 * ordering rules of Table 2 that the hardware owns.
 */

#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "coproc/coproc.hh"
#include "obs/sink.hh"
#include "sim/system.hh"
#include "sim/trace.hh"
#include "workloads/suite.hh"

namespace occamy
{
namespace
{

class CoprocTest : public ::testing::Test
{
  protected:
    void
    build(SharingPolicy policy, unsigned cores = 2)
    {
        cfg = MachineConfig::forPolicy(policy, cores);
        cfg.prefetchDegree = 0;
        mem = std::make_unique<MemSystem>(cfg);
        cp = std::make_unique<CoProcessor>(cfg, *mem);
    }

    /** Run the co-processor for @p n cycles. */
    void
    run(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            cp->tick(now++);
    }

    DynInst
    compute(CoreId core, std::int16_t dst, std::int16_t s0 = -1,
            std::int16_t s1 = -1)
    {
        DynInst d;
        d.op = Opcode::VFAdd;
        d.core = core;
        d.dstArch = dst;
        if (s0 >= 0)
            d.srcArch[d.nsrc++] = s0;
        if (s1 >= 0)
            d.srcArch[d.nsrc++] = s1;
        d.vlBus = static_cast<std::uint16_t>(cp->currentVl(core));
        d.activeLanes = static_cast<std::uint16_t>(d.vlBus * kLanesPerBu);
        d.enqueueCycle = now;
        return d;
    }

    DynInst
    load(CoreId core, std::int16_t dst, Addr addr)
    {
        DynInst d;
        d.op = Opcode::VLoad;
        d.core = core;
        d.dstArch = dst;
        d.addr = addr;
        d.bytes = 64;
        d.vlBus = static_cast<std::uint16_t>(cp->currentVl(core));
        d.activeLanes = 16;
        d.enqueueCycle = now;
        return d;
    }

    DynInst
    store(CoreId core, std::int16_t src, Addr addr)
    {
        DynInst d = load(core, -1, addr);
        d.op = Opcode::VStore;
        d.srcArch[d.nsrc++] = src;
        return d;
    }

    /** Issue cycle of each instruction @p sink saw, by sequence number
     *  (kCycleNever for one that never issued). */
    static std::vector<Cycle>
    issueCycles(const obs::RingSink &sink, CoreId core, std::size_t n)
    {
        std::vector<Cycle> at(n, kCycleNever);
        for (const obs::Event &ev : sink.snapshot().events)
            if (ev.kind == obs::EventKind::Issue && ev.core == core &&
                ev.b < n)
                at[ev.b] = ev.cycle;
        return at;
    }

    DynInst
    msrVl(CoreId core, unsigned vl, bool from_decision = false)
    {
        DynInst d;
        d.op = Opcode::MsrVL;
        d.core = core;
        d.imm = vl;
        d.vlFromDecision = from_decision;
        d.enqueueCycle = now;
        return d;
    }

    DynInst
    msrOi(CoreId core, double issue, double mem_oi)
    {
        DynInst d;
        d.op = Opcode::MsrOI;
        d.core = core;
        d.oi = PhaseOI{issue, mem_oi, MemLevel::Dram};
        d.enqueueCycle = now;
        return d;
    }

    /** Wait for an outstanding <VL> request to resolve. */
    VlRequestStatus
    awaitVl(CoreId core, unsigned max_cycles = 1000)
    {
        for (unsigned i = 0; i < max_cycles; ++i) {
            const VlRequestStatus st = cp->vlRequestStatus(core);
            if (st.resolved) {
                cp->ackVlRequest(core);
                return st;
            }
            cp->tick(now++);
        }
        return {};
    }

    MachineConfig cfg;
    std::unique_ptr<MemSystem> mem;
    std::unique_ptr<CoProcessor> cp;
    Cycle now = 0;
};

TEST_F(CoprocTest, ElasticStartsWithAllLanesFree)
{
    build(SharingPolicy::Elastic);
    EXPECT_EQ(cp->freeBus(), 8u);
    EXPECT_EQ(cp->currentVl(0), 0u);
    EXPECT_EQ(cp->currentVl(1), 0u);
}

TEST_F(CoprocTest, PrivateBootsWithEqualSplit)
{
    build(SharingPolicy::Private);
    EXPECT_EQ(cp->currentVl(0), 4u);
    EXPECT_EQ(cp->currentVl(1), 4u);
    EXPECT_EQ(cp->freeBus(), 0u);
}

TEST_F(CoprocTest, VlsBootsWithStaticPlan)
{
    cfg = MachineConfig::forPolicy(SharingPolicy::StaticSpatial);
    cfg.staticPlan = {3, 5};
    mem = std::make_unique<MemSystem>(cfg);
    cp = std::make_unique<CoProcessor>(cfg, *mem);
    EXPECT_EQ(cp->currentVl(0), 3u);
    EXPECT_EQ(cp->currentVl(1), 5u);
}

TEST_F(CoprocTest, MsrVlSucceedsWhenLanesFree)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrVl(0, 3));
    const VlRequestStatus st = awaitVl(0);
    ASSERT_TRUE(st.resolved);
    EXPECT_TRUE(st.ok);
    EXPECT_EQ(cp->currentVl(0), 3u);
    EXPECT_EQ(cp->freeBus(), 5u);
    EXPECT_EQ(cp->vlSwitches(), 1u);
}

TEST_F(CoprocTest, MsrVlFailsWhenLanesUnavailable)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrVl(0, 6));
    ASSERT_TRUE(awaitVl(0).ok);
    cp->enqueueEmSimd(msrVl(1, 4));      // Only 2 free.
    const VlRequestStatus st = awaitVl(1);
    ASSERT_TRUE(st.resolved);
    EXPECT_FALSE(st.ok);                 // <status> = 0.
    EXPECT_EQ(cp->currentVl(1), 0u);
}

TEST_F(CoprocTest, MsrVlWaitsForDrain)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrVl(0, 2));
    ASSERT_TRUE(awaitVl(0).ok);

    // Put a long-latency load in flight, then request a new VL.
    cp->enqueue(load(0, 1, 0x10000));
    run(1);
    cp->enqueueEmSimd(msrVl(0, 4));
    // The request must not resolve while the load is outstanding.
    run(cfg.retireDelay + 4);
    EXPECT_FALSE(cp->vlRequestStatus(0).resolved);
    EXPECT_FALSE(cp->coreDrained(0));

    const VlRequestStatus st = awaitVl(0, 5000);
    ASSERT_TRUE(st.resolved);
    EXPECT_TRUE(st.ok);
    EXPECT_TRUE(cp->coreDrained(0));
    EXPECT_EQ(cp->currentVl(0), 4u);
}

TEST_F(CoprocTest, ShrinkAlwaysSucceedsAfterDrain)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrVl(0, 8));
    ASSERT_TRUE(awaitVl(0).ok);
    cp->enqueueEmSimd(msrVl(0, 2));
    ASSERT_TRUE(awaitVl(0).ok);
    EXPECT_EQ(cp->freeBus(), 6u);
}

TEST_F(CoprocTest, SameVlIsTrivialSuccessWithoutDrain)
{
    build(SharingPolicy::Private);
    cp->enqueue(load(0, 1, 0x20000));    // In flight.
    run(1);
    cp->enqueueEmSimd(msrVl(0, 4));      // == current.
    const VlRequestStatus st = awaitVl(0, 20);
    ASSERT_TRUE(st.resolved);
    EXPECT_TRUE(st.ok);
}

TEST_F(CoprocTest, PrivateRejectsRepartitioning)
{
    // Shrink requests are rejected outright; over-asks clamp to the
    // fixed entitlement (graceful degradation after a lane fault) —
    // either way the partition itself never moves.
    build(SharingPolicy::Private);
    cp->enqueueEmSimd(msrVl(0, 2));
    const VlRequestStatus st = awaitVl(0);
    ASSERT_TRUE(st.resolved);
    EXPECT_FALSE(st.ok);
    EXPECT_EQ(cp->currentVl(0), 4u);

    cp->enqueueEmSimd(msrVl(0, 6));
    const VlRequestStatus over = awaitVl(0);
    ASSERT_TRUE(over.resolved);
    EXPECT_TRUE(over.ok);
    EXPECT_EQ(cp->currentVl(0), 4u);
}

TEST_F(CoprocTest, TemporalAlwaysFullWidth)
{
    build(SharingPolicy::Temporal);
    cp->enqueueEmSimd(msrVl(0, 8));
    ASSERT_TRUE(awaitVl(0).ok);
    EXPECT_EQ(cp->currentVl(0), 8u);
    EXPECT_EQ(cp->allocatedLanes(0), 32u);
    EXPECT_EQ(cp->allocatedLanes(1), 32u);
}

TEST_F(CoprocTest, MsrOiTriggersLanePlan)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrOi(0, 0.09, 0.09));
    run(cfg.laneMgrLatency + 3);
    EXPECT_EQ(cp->plansMade(), 1u);
    // A lone memory workload gets its roofline knee.
    EXPECT_EQ(cp->decision(0), 2u);
    EXPECT_EQ(cp->decision(1), 0u);
}

TEST_F(CoprocTest, PlanReactsToSecondWorkload)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrOi(0, 0.09, 0.09));
    run(cfg.laneMgrLatency + 3);
    DynInst oi1 = msrOi(1, 1.0, 1.0);
    oi1.oi.level = MemLevel::VecCache;
    cp->enqueueEmSimd(oi1);
    run(cfg.laneMgrLatency + 3);
    EXPECT_EQ(cp->decision(0), 2u);
    EXPECT_EQ(cp->decision(1), 6u);
}

TEST_F(CoprocTest, ComputePipelineExecutesInDependencyOrder)
{
    build(SharingPolicy::Private);
    // z1 = z0 + z0 ; z2 = z1 + z1 (dependent chain).
    cp->enqueue(compute(0, 0));
    cp->enqueue(compute(0, 1, 0, 0));
    cp->enqueue(compute(0, 2, 1, 1));
    run(60);
    EXPECT_TRUE(cp->coreDrained(0));
    EXPECT_EQ(cp->computeIssued(0), 3u);
}

TEST_F(CoprocTest, IssueRespectsComputeWidth)
{
    build(SharingPolicy::Private);
    // 12 independent compute insts: at width 2 they need >= 6 issue
    // cycles after the transmit/rename ramp.
    for (int i = 0; i < 12; ++i)
        cp->enqueue(compute(0, static_cast<std::int16_t>(i % 8)));
    unsigned cycles_to_drain = 0;
    while (!cp->coreDrained(0) && cycles_to_drain < 200) {
        cp->tick(now++);
        ++cycles_to_drain;
    }
    EXPECT_GE(cycles_to_drain,
              12u / cfg.computeIssueWidth + cfg.retireDelay);
    EXPECT_EQ(cp->computeIssued(0), 12u);
}

TEST_F(CoprocTest, BusyLanesTrackActiveLanes)
{
    build(SharingPolicy::Private);
    cp->enqueue(compute(0, 0));
    bool saw_busy = false;
    for (unsigned i = 0; i < 40 && !saw_busy; ++i) {
        cp->tick(now++);
        if (cp->busyLanes(0) == 16u)
            saw_busy = true;
    }
    EXPECT_TRUE(saw_busy);
}

TEST_F(CoprocTest, PerPhaseComputeCounters)
{
    build(SharingPolicy::Private);
    DynInst a = compute(0, 0);
    a.phaseId = 0;
    DynInst b = compute(0, 1);
    b.phaseId = 3;
    cp->enqueue(a);
    cp->enqueue(b);
    run(60);
    EXPECT_EQ(cp->computeIssuedInPhase(0, 0), 1u);
    EXPECT_EQ(cp->computeIssuedInPhase(0, 3), 1u);
    EXPECT_EQ(cp->computeIssuedInPhase(0, 7), 0u);
}

TEST_F(CoprocTest, RegPressureStallsRenameInSharedMode)
{
    build(SharingPolicy::Temporal);
    cfg.robEntries = 256;
    // Flood both cores with dest-writing computes depending on a slow
    // load so nothing commits.
    for (CoreId c = 0; c < 2; ++c) {
        cp->enqueueEmSimd(msrVl(c, 8));
        awaitVl(c);
    }
    for (unsigned i = 0; i < 60; ++i) {
        if (cp->canEnqueue(0))
            cp->enqueue(load(0, 0, 0x100000 + (i << 18)));
        if (cp->canEnqueue(1))
            cp->enqueue(load(1, 0, 0x900000 + (i << 18)));
        cp->tick(now++);
    }
    run(40);
    EXPECT_GT(cp->renameRegStallCycles(0) + cp->renameRegStallCycles(1),
              0u);
}

TEST_F(CoprocTest, VlSwitchResetsRegisterState)
{
    build(SharingPolicy::Elastic);
    cp->enqueueEmSimd(msrVl(0, 2));
    ASSERT_TRUE(awaitVl(0).ok);
    cp->enqueue(compute(0, 5));
    run(60);
    ASSERT_TRUE(cp->coreDrained(0));
    // Retarget: contents dropped (Section 4.2.2), mappings cleared; a
    // consumer of z5 renamed afterwards sees no stale producer and is
    // immediately ready.
    cp->enqueueEmSimd(msrVl(0, 4));
    ASSERT_TRUE(awaitVl(0).ok);
    cp->enqueue(compute(0, 6, 5, 5));
    run(60);
    EXPECT_TRUE(cp->coreDrained(0));
    EXPECT_EQ(cp->computeIssued(0), 2u);
}

TEST_F(CoprocTest, WakeupIssuesEachConsumerAtItsProducersReadyCycle)
{
    build(SharingPolicy::Private);
    obs::RingSink sink(1024, obs::kEvPipeline);
    cp->setEventSink(&sink);
    // z0 = [A]; z1 = z0 + z0; z2 = z1 + z1; [B] = z2.
    cp->enqueue(load(0, 0, 0x40000));
    cp->enqueue(compute(0, 1, 0, 0));
    cp->enqueue(compute(0, 2, 1, 1));
    cp->enqueue(store(0, 2, 0x80000));
    run(1000);
    ASSERT_TRUE(cp->coreDrained(0));
    const std::vector<Cycle> at = issueCycles(sink, 0, 4);
    ASSERT_NE(at[0], kCycleNever);

    // The load is the first access to a fresh memory system, so an
    // identical one replays its data-ready cycle.
    MemSystem replay(cfg);
    const Cycle load_ready =
        replay.access(0x40000, 64, /*is_write=*/false, at[0]).dataReady;
    const Cycle add = computeLatency(Opcode::VFAdd, cfg.fpLatency);
    EXPECT_EQ(at[1], load_ready);
    EXPECT_EQ(at[2], at[1] + add);
    EXPECT_EQ(at[3], at[2] + add);
}

TEST_F(CoprocTest, LoadIssuesWhileItsSourceIsPending)
{
    build(SharingPolicy::Private);
    obs::RingSink sink(1024, obs::kEvPipeline);
    cp->setEventSink(&sink);
    // A long divide produces z0; a load naming z0 as a source does not
    // wait for it (the ld/st path models no address dependence).
    DynInst div = compute(0, 0);
    div.op = Opcode::VFDiv;
    cp->enqueue(div);
    DynInst ld = load(0, 1, 0x40000);
    ld.srcArch[ld.nsrc++] = 0;
    cp->enqueue(ld);
    run(200);
    ASSERT_TRUE(cp->coreDrained(0));
    const std::vector<Cycle> at = issueCycles(sink, 0, 2);
    ASSERT_NE(at[0], kCycleNever);
    ASSERT_NE(at[1], kCycleNever);
    EXPECT_LT(at[1], at[0] + computeLatency(Opcode::VFDiv, cfg.fpLatency));
}

TEST_F(CoprocTest, ZeroLatencyConsumerIssuesInItsProducersCycle)
{
    cfg = MachineConfig::forPolicy(SharingPolicy::Private, 2);
    cfg.prefetchDegree = 0;
    cfg.fpLatency = 0;
    mem = std::make_unique<MemSystem>(cfg);
    cp = std::make_unique<CoProcessor>(cfg, *mem);
    obs::RingSink sink(1024, obs::kEvPipeline);
    cp->setEventSink(&sink);
    cp->enqueue(compute(0, 0));
    cp->enqueue(compute(0, 1, 0, 0));
    run(60);
    ASSERT_TRUE(cp->coreDrained(0));
    const std::vector<Cycle> at = issueCycles(sink, 0, 2);
    ASSERT_NE(at[0], kCycleNever);
    EXPECT_EQ(at[1], at[0]);
}

/** Seeded two-core stream of loads, stores and (long and short)
 *  computes over a few registers, so consumers both wait on unissued
 *  producers and wake on the heap. The issue tracking must stay
 *  consistent after every tick, under every sharing policy. */
TEST_F(CoprocTest, IssueTrackingStaysConsistentOverAPairedRun)
{
    for (SharingPolicy policy :
         {SharingPolicy::Private, SharingPolicy::Temporal,
          SharingPolicy::StaticSpatial, SharingPolicy::Elastic}) {
        build(policy);
        now = 0;
        if (policy == SharingPolicy::Elastic ||
            policy == SharingPolicy::Temporal) {
            for (CoreId c = 0; c < 2; ++c) {
                cp->enqueueEmSimd(
                    msrVl(c, policy == SharingPolicy::Temporal ? 8 : 4));
                ASSERT_TRUE(awaitVl(c).ok);
            }
        }
        std::mt19937 rng(20231018);
        auto reg = [&rng] { return static_cast<std::int16_t>(rng() % 6); };
        Addr addr = 0x100000;
        std::uint64_t enqueued = 0;
        for (unsigned i = 0; i < 3000; ++i) {
            for (CoreId c = 0; c < 2; ++c) {
                if (i >= 2500 || !cp->canEnqueue(c))
                    continue;
                DynInst d;
                switch (rng() % 5) {
                  case 0:
                    d = load(c, reg(), addr += 4096);
                    break;
                  case 1:
                    d = store(c, reg(), addr += 4096);
                    break;
                  case 2:
                    d = compute(c, reg(), reg());
                    d.op = Opcode::VFDiv;
                    break;
                  default:
                    d = compute(c, reg(), reg(), reg());
                    break;
                }
                cp->enqueue(d);
                ++enqueued;
            }
            cp->tick(now);
            const std::string err = cp->issueTrackingError(now);
            ASSERT_EQ(err, "") << policyName(policy) << " at cycle " << now;
            ++now;
        }
        run(2000);
        EXPECT_TRUE(cp->coreDrained(0) && cp->coreDrained(1))
            << policyName(policy);
        EXPECT_EQ(cp->computeIssued(0) + cp->computeIssued(1) +
                      cp->memIssued(0) + cp->memIssued(1),
                  enqueued)
            << policyName(policy);
    }
}

/** Value of "key N" in an inspect dump (0 when absent). */
long
inspectField(const std::string &dump, const std::string &key)
{
    std::istringstream is(dump);
    std::string k;
    long v = 0;
    while (is >> k >> v)
        if (k == key)
            return v;
    return 0;
}

TEST_F(CoprocTest, CheckpointWithPendingWakeupsRestoresIdentically)
{
    build(SharingPolicy::Elastic);
    auto prep = [](System &sys) {
        for (CoreId c = 0; c < 2; ++c) {
            workloads::Workload w =
                workloads::lookupWorkload(c == 0 ? "6" : "16");
            sys.setWorkload(c, w.name, w.loops);
        }
    };
    RunOptions opt;
    opt.maxCycles = 10'000'000;
    System a(cfg);
    prep(a);
    a.boot(opt);
    // Step until some core has entries both waiting on unissued
    // producers and scheduled on the wakeup heap.
    bool found = false;
    for (Cycle at = 20'000; at < 40'000 && !found; ++at) {
        a.advance(at);
        for (CoreId c = 0; c < 2 && !found; ++c) {
            const std::string dump =
                a.inspect("system.coproc.core" + std::to_string(c));
            found = inspectField(dump, "iq_waiting") > 0 &&
                    inspectField(dump, "iq_scheduled") > 0;
        }
    }
    ASSERT_TRUE(found);
    std::ostringstream os(std::ios::binary);
    a.saveCheckpoint(os);
    a.advance();
    const std::string want = trace::toJson(a.finalize());

    System b(cfg);
    prep(b);
    std::istringstream is(os.str(), std::ios::binary);
    b.restoreCheckpoint(is, opt);
    b.advance();
    EXPECT_EQ(trace::toJson(b.finalize()), want);
}

} // namespace
} // namespace occamy
