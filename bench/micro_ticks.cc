/**
 * @file
 * micro_ticks: wall-clock leverage of the quiescence-aware fast-forward
 * engine. Each scenario runs the identical simulation twice — classic
 * tick-every-cycle loop vs. RunOptions::fastForward — verifies the
 * results match, and reports simulated-cycles-per-wall-second for both
 * along with the ticked/simulated ratio and the speedup.
 *
 * Scenarios cover the quiescence patterns the engine exploits:
 *  - batch_idle_heavy: FCFS batch queue behind a long OS context
 *    switch, so the whole machine idles between dispatches (the
 *    headline case: most cycles are skippable).
 *  - scalar_fallback: tiny-trip loops that stay on the scalar fallback
 *    path (trip < the compiler's scalar threshold), leaving the
 *    co-processor drained while cores grind through stall cycles.
 *  - drained_partner: a classic compute+memory co-run where one core
 *    finishes long before the other and sits drained.
 *  - dense_pair: the paper's motivating 6+16 pair under Occamy on a
 *    flat 2-core machine. Both cores keep the co-processor busy for
 *    almost the whole run, so fast-forward skips next to nothing and
 *    the "off" rate measures the serial per-cycle cost of the
 *    co-processor pipeline itself (issue, rename, commit).
 *  - parallel_clusters_4x4: a 16-core clustered machine ticked with 1
 *    vs 4 cycle-loop worker threads (RunOptions::simThreads, DESIGN.md
 *    §15). Here "off" is the serial loop and "on" the worker pool; the
 *    results must be byte-identical and the speedup tracks the host's
 *    free cores (~1x on a single-core host, where the barrier only
 *    adds overhead).
 *
 * Usage: micro_ticks [OUT.json]   (default BENCH_ticks.json)
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "sim/trace.hh"
#include "workloads/phases.hh"
#include "workloads/suite.hh"

using namespace occamy;

namespace
{

struct Scenario
{
    std::string name;
    MachineConfig cfg;
    std::vector<std::pair<std::string, std::vector<kir::Loop>>> pinned;
    std::vector<std::pair<std::string, std::vector<kir::Loop>>> batch;

    /** When nonzero, the measured axis is the cycle-loop worker count
     *  (off = 1 thread, on = this many) instead of fast-forward. */
    unsigned simThreadsOn = 0;
};

struct Measurement
{
    double wallSec = 0.0;           ///< Best-of-reps wall time.
    FastForwardStats ff;
    std::string resultJson;         ///< Canonical trace, for equality.
};

Scenario
batchIdleHeavy()
{
    Scenario s;
    s.name = "batch_idle_heavy";
    s.cfg = MachineConfig::Builder(SharingPolicy::Elastic)
                .cores(2)
                .contextSwitch(1'000'000)
                .build();
    s.pinned = {{"idle0", {}}, {"idle1", {}}};
    for (int i = 0; i < 4; ++i)
        s.batch.push_back({"job" + std::to_string(i),
                           {workloads::makeNamedPhase("wsm51", 16384)}});
    return s;
}

Scenario
scalarFallback()
{
    Scenario s;
    s.name = "scalar_fallback";
    s.cfg = MachineConfig::Builder(SharingPolicy::Elastic)
                .cores(2)
                .build();
    // Trips below the compiler's scalar threshold take the multi-
    // version scalar path: long core-local stalls, drained SIMD.
    std::vector<kir::Loop> tiny;
    for (int i = 0; i < 64; ++i)
        tiny.push_back(workloads::makeNamedPhase("wsm51", 64));
    s.pinned = {{"tiny", tiny}, {"idle", {}}};
    return s;
}

Scenario
drainedPartner()
{
    Scenario s;
    s.name = "drained_partner";
    s.cfg = MachineConfig::Builder(SharingPolicy::Elastic)
                .cores(2)
                .build();
    s.pinned = {{"mem", {workloads::makeNamedPhase("rho_eos1", 8192)}},
                {"comp", {workloads::makeNamedPhase("wsm51", 262144)}}};
    return s;
}

Scenario
densePair()
{
    Scenario s;
    s.name = "dense_pair";
    s.cfg = MachineConfig::Builder(SharingPolicy::Elastic)
                .cores(2)
                .build();
    for (const char *id : {"6", "16"}) {
        workloads::Workload w = workloads::lookupWorkload(id);
        s.pinned.push_back({w.name, std::move(w.loops)});
    }
    return s;
}

/** The fig16 scale-out shape: even clusters lean memory, odd clusters
 *  lean compute, 2*C batch jobs drain through work migration. All four
 *  engines stay busy most of the run, which is exactly the load the
 *  worker pool parallelizes. */
Scenario
parallelClusters()
{
    Scenario s;
    s.name = "parallel_clusters_4x4";
    s.cfg = MachineConfig::Builder(SharingPolicy::Elastic)
                .topology(4, 4)
                .build();
    for (unsigned c = 0; c < 16; ++c) {
        const bool mem = (c / 4) % 2 == 0;
        s.pinned.push_back(
            {mem ? "mem" : "comp",
             {workloads::makeNamedPhase(mem ? "rho_eos1" : "wsm51",
                                        mem ? 2048 : 8192)}});
    }
    for (unsigned q = 0; q < 8; ++q)
        s.batch.push_back(
            {"q" + std::to_string(q),
             {workloads::makeNamedPhase(q % 2 ? "wsm51" : "rho_eos1",
                                        4096)}});
    s.simThreadsOn = 4;
    return s;
}

/** @p on selects the scenario's measured axis: fast-forward for the
 *  classic scenarios, 1-vs-N worker threads when simThreadsOn is set
 *  (fast-forward then stays on in both runs). */
Measurement
measure(const Scenario &s, bool on, int reps)
{
    Measurement m;
    for (int rep = 0; rep < reps; ++rep) {
        System sys(s.cfg);
        for (std::size_t c = 0; c < s.pinned.size(); ++c)
            sys.setWorkload(static_cast<CoreId>(c), s.pinned[c].first,
                            s.pinned[c].second);
        for (const auto &[name, loops] : s.batch)
            sys.enqueueWorkload(name, loops);

        RunOptions opt;
        opt.fastForward = s.simThreadsOn ? true : on;
        opt.simThreads = on && s.simThreadsOn ? s.simThreadsOn : 1;
        opt.ffStats = &m.ff;

        const auto t0 = std::chrono::steady_clock::now();
        const RunResult r = sys.run(opt);
        const double sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        if (rep == 0 || sec < m.wallSec)
            m.wallSec = sec;
        if (rep == 0)
            m.resultJson = trace::toJson(r);
    }
    return m;
}

double
cyclesPerSec(const Measurement &m)
{
    return m.wallSec > 0.0
               ? static_cast<double>(m.ff.cyclesSimulated) / m.wallSec
               : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_ticks.json";
    const int reps = 3;

    const std::vector<Scenario> scenarios = {
        batchIdleHeavy(), scalarFallback(), drainedPartner(),
        densePair(), parallelClusters()};

    std::string json = "{\"bench\":\"micro_ticks\",\"scenarios\":[";
    bool all_match = true;
    bool first = true;

    for (const Scenario &s : scenarios) {
        const Measurement off = measure(s, false, reps);
        const Measurement on = measure(s, true, reps);

        const bool match = on.resultJson == off.resultJson;
        all_match = all_match && match;
        const double speedup =
            on.wallSec > 0.0 ? off.wallSec / on.wallSec : 0.0;
        const double tick_ratio =
            on.ff.cyclesSimulated
                ? static_cast<double>(on.ff.cyclesTicked) /
                      static_cast<double>(on.ff.cyclesSimulated)
                : 1.0;

        std::printf("%-18s %12llu cycles | off %8.0fk cyc/s | "
                    "on %8.0fk cyc/s | ticked %5.1f%% | %5.2fx %s\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(
                        on.ff.cyclesSimulated),
                    cyclesPerSec(off) / 1e3, cyclesPerSec(on) / 1e3,
                    100.0 * tick_ratio, speedup,
                    match ? "" : "RESULT MISMATCH");

        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"name\":\"%s\",\"cycles\":%llu,"
            "\"cycles_ticked\":%llu,\"spans\":%llu,"
            "\"wall_sec_off\":%.6f,\"wall_sec_on\":%.6f,"
            "\"sim_cycles_per_sec_off\":%.0f,"
            "\"sim_cycles_per_sec_on\":%.0f,"
            "\"speedup\":%.3f,\"results_match\":%s",
            first ? "" : ",", s.name.c_str(),
            static_cast<unsigned long long>(on.ff.cyclesSimulated),
            static_cast<unsigned long long>(on.ff.cyclesTicked),
            static_cast<unsigned long long>(on.ff.spans), off.wallSec,
            on.wallSec, cyclesPerSec(off), cyclesPerSec(on), speedup,
            match ? "true" : "false");
        json += buf;
        if (s.simThreadsOn) {
            std::snprintf(buf, sizeof(buf), ",\"sim_threads_on\":%u",
                          s.simThreadsOn);
            json += buf;
        }
        json += "}";
        first = false;
    }
    json += "]}";

    if (std::FILE *f = std::fopen(out_path.c_str(), "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
        std::printf("wrote %s\n", out_path.c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }

    if (!all_match) {
        std::fprintf(stderr,
                     "fast-forward changed simulation results\n");
        return 1;
    }
    return 0;
}
