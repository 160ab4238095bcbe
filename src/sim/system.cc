#include "sim/system.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ckpt/ckpt.hh"
#include "fault/injector.hh"
#include "kir/analysis.hh"
#include "lanemgr/cluster_arbiter.hh"
#include "lanemgr/partitioner.hh"
#include "policy/sharing_model.hh"
#include "sim/cluster_engine.hh"
#include "sim/tick_pool.hh"
#include "sim/wake_table.hh"

namespace occamy
{

namespace
{

/**
 * The flat view cluster @p k of @p cfg is built from: K local cores,
 * the per-cluster ExeBU count, this cluster's initial DRAM grant, and
 * a 1/C slice of the shared L2. numClusters == 1 returns the config
 * unchanged.
 */
MachineConfig
clusterView(const MachineConfig &cfg, unsigned initial_dram_bpc)
{
    if (cfg.numClusters == 1)
        return cfg;
    MachineConfig v = cfg;
    v.numClusters = 1;
    v.numCores = cfg.coresPerCluster();
    v.dramBytesPerCycle = initial_dram_bpc;
    v.l2.sizeBytes = std::max<std::uint64_t>(
        cfg.l2.sizeBytes / cfg.numClusters, 1);
    v.l2.bytesPerCycle =
        std::max(cfg.l2.bytesPerCycle / cfg.numClusters, 1u);
    return v;
}

} // namespace

/**
 * Everything one booted run owns: the machine, the compiled programs,
 * and every loop-carried variable of the cycle loop. run() used to
 * keep all of this in locals; hoisting it here lets the loop pause at
 * any cycle boundary (advance(stopAt)), which is what checkpointing
 * and the serve daemon's incremental stepping are built on.
 */
struct System::Ctx
{
    RunOptions opt;
    MachineConfig cfg;          ///< Resolved (static plan filled in).
    const policy::SharingModel &model;

    /** One tick engine per cluster; flat machines are the 1-cluster
     *  case. Each engine owns its cluster's view, mem, coproc, cores,
     *  and lane accounting (sim/cluster_engine.hh). */
    std::vector<std::unique_ptr<ClusterEngine>> engines;
    /** Level-2 lane manager; only clustered machines have one. */
    std::unique_ptr<ClusterArbiter> arbiter;
    /** Worker pool for the parallel tick phase; null = serial loop
     *  (opt.simThreads <= 1, or a flat machine with one engine). */
    std::unique_ptr<TickPool> pool;
    /** Engines buffer tick-phase events for cluster-order merging.
     *  Keyed to the topology (clustered + sink), never the thread
     *  count, so 1-vs-N-thread streams are identical by construction. */
    bool buffered = false;
    unsigned ncl = 1;           ///< cfg.numClusters, cached.
    unsigned cpk = 1;           ///< Cores per cluster, cached.

    /** Engine that owns global core @p c. */
    ClusterEngine &eng(unsigned c) { return *engines[c / cpk]; }
    const ClusterEngine &eng(unsigned c) const
    {
        return *engines[c / cpk];
    }
    /** Global core id -> cluster-local core id. */
    CoreId lc(unsigned c) const { return static_cast<CoreId>(c % cpk); }
    /** Global core accessor. */
    ScalarCore &core(unsigned c) { return eng(c).core(lc(c)); }
    const ScalarCore &core(unsigned c) const
    {
        return eng(c).core(lc(c));
    }

    /** The placement score (FrontEnd::Score): the machine's
     *  *normalized progress* (the classic weighted-speedup
     *  co-scheduling objective) if candidate OI @p cand joins the other
     *  cores, summed over active workloads as attainable rate relative
     *  to running alone with all lanes. Raw GFLOP/s would never
     *  schedule a memory workload next to a compute one; normalized
     *  progress rewards exactly that pairing. Lane partitioning is per
     *  cluster, so the candidate is scored against the other cores of
     *  the *target's* cluster (the whole machine on a flat config). */
    double progressWith(const PhaseOI &cand, CoreId target) const
    {
        const ClusterEngine &tc = eng(target);
        std::vector<PhaseOI> ois(cpk);
        for (unsigned i = 0; i < cpk; ++i) {
            const unsigned g = cfg.clusterOf(target) * cpk + i;
            const PhaseOI &running =
                tc.coproc().resourceTable()
                    .core(static_cast<CoreId>(i)).oi;
            ois[i] = running.active() ? running : fe.scheduledOi(g);
        }
        ois[lc(target)] = cand;
        const auto plan = greedyPartition(roofline, ois, cfg.numExeBUs);

        // Memory-bandwidth ceilings are machine-wide: co-running
        // workloads bound at the same level split it. Count them so
        // mem+mem placements are not scored as if each had the full
        // 64 GB/s.
        std::array<unsigned, 3> bound_at{0, 0, 0};
        std::vector<bool> membound(ois.size(), false);
        for (std::size_t i = 0; i < ois.size(); ++i) {
            if (!ois[i].active() || plan[i] == 0)
                continue;
            const double ap = attainable(roofline, ois[i], plan[i]);
            const double ceiling =
                memBandwidth(roofline, ois[i].level) * ois[i].mem;
            if (ap >= ceiling - 1e-9) {
                membound[i] = true;
                ++bound_at[static_cast<unsigned>(ois[i].level)];
            }
        }

        double total = 0.0;
        for (std::size_t i = 0; i < ois.size(); ++i) {
            if (!ois[i].active())
                continue;
            const double solo = attainable(roofline, ois[i],
                                           cfg.numExeBUs);
            if (solo <= 0)
                continue;
            double ap = attainable(roofline, ois[i], plan[i]);
            if (membound[i])
                ap /= bound_at[static_cast<unsigned>(ois[i].level)];
            total += ap / solo;
        }
        return total;
    }

    std::unique_ptr<fault::FaultInjector> injector;

    std::vector<std::unique_ptr<Program>> programs;
    unsigned region = 0;

    /** Queued-workload compiles in dispatch order (core, queue index):
     *  replayed verbatim on restore so program addresses, phase-id
     *  layout and the `region` counter come out identical. */
    std::vector<std::pair<CoreId, std::uint64_t>> compile_log;
    /** Per core: index into `programs` of the installed program. */
    std::vector<std::uint64_t> core_prog;

    RunResult result;
    unsigned total_lanes = 0;
    std::vector<Cycle> finish;
    std::vector<bool> done;

    RooflineParams roofline;    ///< Placement scores (cluster 0's view).
    /** Arrivals, admission, placement and completion of queued work. */
    FrontEnd fe;

    FastForwardStats ff;
    std::uint64_t watchdog_trips = 0;
    std::chrono::steady_clock::time_point wall_start;
    Cycle now = 0;
    Cycle last_finish = 0;
    bool complete = false;

    Ctx(const MachineConfig &resolved,
        const std::vector<MachineConfig> &views, const RunOptions &o,
        std::unique_ptr<ClusterArbiter> arb, const JobQueue &queue)
        : opt(o), cfg(resolved), model(policy::model(cfg.policy)),
          arbiter(std::move(arb)), ncl(cfg.numClusters),
          cpk(cfg.coresPerCluster()),
          fe(queue, cfg, views[0], o.sink, arbiter.get())
    {
        for (unsigned k = 0; k < ncl; ++k) {
            const std::string prefix =
                ncl == 1 ? std::string("system")
                         : "system.cluster" + std::to_string(k);
            engines.push_back(
                std::make_unique<ClusterEngine>(k, views[k], prefix));
        }
        // All clusters share one machine shape; the roofline used for
        // scheduling decisions is derived from cluster 0's view (== the
        // config on a flat machine).
        roofline = RooflineParams::fromConfig(engines[0]->view());
    }
};

System::System(MachineConfig cfg) : cfg_(std::move(cfg))
{
    names_.resize(cfg_.numCores);
    loops_.resize(cfg_.numCores);
}

System::~System() = default;

void
System::setWorkload(CoreId core, std::string name,
                    std::vector<kir::Loop> loops)
{
    names_.at(core) = std::move(name);
    loops_.at(core) = std::move(loops);
}

void
System::enqueueWorkload(std::string name, std::vector<kir::Loop> loops)
{
    traffic::Arrival e;
    e.workload = std::move(name);
    e.loops = std::move(loops);
    queue_.entries.push_back(std::move(e));
}

void
System::enqueueArrival(const traffic::Arrival &a)
{
    queue_.entries.push_back(a);
    queue_.hasTraffic = true;
}

const Program *
System::compileAndBind(Ctx &x, CoreId c, const std::string &name,
                       const std::vector<kir::Loop> &loops) const
{
    // Compile a workload for a core and bind its arrays into a private,
    // staggered address region (distinct cache-set alignment per slot).
    // Compilation targets the owning cluster's view (== the config on a
    // flat machine), with the core's cluster-local id.
    const MachineConfig &view = x.eng(c).view();
    const unsigned fixed_vl = x.model.perCoreFixedVl(view, x.lc(c));
    CompileOptions opts = CompileOptions::forMachine(view, fixed_vl);
    Compiler compiler(opts);
    auto prog = std::make_unique<Program>(compiler.compile(name, loops));
    const unsigned slot = x.region++;
    Addr next = ((static_cast<Addr>(slot) + 1) << 36) +
                static_cast<Addr>(slot % x.cfg.numCores) * 40960;
    for (auto &arr : prog->arrays) {
        arr.base = next;
        const Addr size = arr.elems * arr.elemBytes;
        next += (size + 4095) / 4096 * 4096 + 4096;
    }
    x.programs.push_back(std::move(prog));
    return x.programs.back().get();
}

void
System::boot(const RunOptions &opt)
{
    MachineConfig cfg = cfg_;
    const policy::SharingModel &model = policy::model(cfg.policy);

    // Per-cluster flat views, each with its own offline static lane
    // plan (Section 7.1's static spatial sharing, and work-conserving
    // variants entitled by the same plan) over its own K local cores.
    // A flat machine is the one-cluster case: its view is the config
    // itself, which then carries the resolved plan.
    std::unique_ptr<ClusterArbiter> arbiter;
    if (cfg.numClusters > 1)
        arbiter = std::make_unique<ClusterArbiter>(
            cfg.numClusters, cfg.dramBytesPerCycle,
            cfg.interArbiterPeriod);
    const unsigned K = cfg.coresPerCluster();
    std::vector<MachineConfig> views;
    for (unsigned k = 0; k < cfg.numClusters; ++k) {
        MachineConfig v =
            clusterView(cfg, arbiter ? arbiter->shares()[k] : 0);
        if (model.wantsOfflineStaticPlan() && v.staticPlan.empty()) {
            std::vector<std::vector<PhaseOI>> phase_ois(K);
            std::vector<bool> will_run(K, false);
            for (unsigned i = 0; i < K; ++i) {
                const unsigned g = k * K + i;
                for (const auto &loop : loops_[g])
                    phase_ois[i].push_back(kir::phaseOI(
                        loop, v.vecCache.sizeBytes, v.l2.sizeBytes));
                will_run[i] = !loops_[g].empty() || !queue_.entries.empty();
            }
            model.resolveStaticPlan(v, phase_ois, will_run);
        }
        views.push_back(std::move(v));
    }
    if (!arbiter)
        cfg = views[0];

    ctx_ = std::make_unique<Ctx>(cfg, views, opt, std::move(arbiter),
                                 queue_);
    Ctx &x = *ctx_;

    // Fault injection (src/fault): the injector's consumable plan is a
    // single stateful stream, so it attaches to cluster 0's components
    // (the whole machine on a flat config). Null plan = fault-free, and
    // none of the hooks fire.
    if (opt.faultPlan && !opt.faultPlan->empty()) {
        x.injector = std::make_unique<fault::FaultInjector>(
            *opt.faultPlan, x.cfg.numExeBUs);
        x.engines[0]->coproc().setFaultInjector(x.injector.get());
        x.engines[0]->mem().setFaultInjector(x.injector.get());
    }

    x.core_prog.assign(x.cfg.numCores, 0);
    for (unsigned c = 0; c < x.cfg.numCores; ++c) {
        ClusterEngine &eng = x.eng(c);
        eng.addCore(std::make_unique<ScalarCore>(
            x.lc(c), eng.view(), eng.coproc()));
        x.core(c).setProgram(compileAndBind(
            x, static_cast<CoreId>(c), names_[c], loops_[c]));
        x.core_prog[c] = x.programs.size() - 1;
    }

    // Attach the trace sink after construction so boot-time plumbing
    // (e.g. initial lane grants) produces no events. Clustered
    // machines route tick-phase events through per-engine buffers
    // merged in cluster order (independent of the thread count); flat
    // machines record straight into the sink, preserving the
    // pre-engine event order exactly.
    x.buffered = opt.sink != nullptr && x.ncl > 1;
    for (auto &eng : x.engines) {
        eng->attachSink(opt.sink, x.buffered);
        eng->regStats();
    }

    // Worker pool for the parallel tick phase: only useful when there
    // is more than one engine to tick concurrently.
    const unsigned tick_threads =
        std::min<unsigned>(std::max(opt.simThreads, 1u), x.ncl);
    if (tick_threads > 1)
        x.pool = std::make_unique<TickPool>(tick_threads);

    x.result.cores.resize(x.cfg.numCores);
    x.total_lanes = x.cfg.totalLanes();
    x.finish.assign(x.cfg.numCores, 0);
    x.done.assign(x.cfg.numCores, false);

    x.wall_start = std::chrono::steady_clock::now();

    // Boot beacon: engine category, so kEvAll artifacts are untouched.
    // A serve daemon counts these to prove a warm-pool request paid no
    // boot cost on the request path.
    obs::note(opt.sink, obs::EventKind::SystemBoot, 0, kNoCore,
              x.cfg.numCores, x.cfg.numExeBUs);
}

Cycle
System::now() const
{
    return ctx_ ? ctx_->now : 0;
}

bool
System::finished() const
{
    return ctx_ && ctx_->complete;
}

bool
System::overloaded() const
{
    return ctx_ && ctx_->fe.overloaded();
}

bool
System::advance(Cycle stop_at)
{
    if (!ctx_)
        throw std::logic_error("System::advance: boot() first");
    Ctx &x = *ctx_;
    if (x.complete)
        return true;

    const RunOptions &opt = x.opt;
    const Cycle max_cycles = opt.maxCycles;
    const unsigned bucket = opt.bucket;
    const MachineConfig &cfg = x.cfg;
    const policy::SharingModel &model = x.model;
    fault::FaultInjector *const injector = x.injector.get();
    RunResult &result = x.result;
    FastForwardStats &ff = x.ff;
    Cycle &now = x.now;
    Cycle &last_finish = x.last_finish;

    // Periodic checkpointing: pause at every multiple of the period
    // and overwrite the target file. Derived, not stored: resuming at
    // cycle N computes the same next boundary a straight run uses.
    const Cycle ckpt_every =
        (!opt.checkpointOut.empty() && opt.checkpointEvery)
            ? opt.checkpointEvery : 0;
    Cycle next_ckpt =
        ckpt_every ? (now / ckpt_every + 1) * ckpt_every : kCycleNever;
    auto writeCkpt = [&] {
        std::ofstream os(opt.checkpointOut,
                         std::ios::binary | std::ios::trunc);
        if (!os)
            throw ckpt::Error("cannot open checkpoint file: " +
                              opt.checkpointOut);
        saveCheckpoint(os);
        obs::note(opt.sink, obs::EventKind::CheckpointSave, now, kNoCore,
                  static_cast<std::uint64_t>(os.tellp()));
    };

    const FrontEnd::Score score = [&x](const PhaseOI &cand, CoreId c) {
        return x.progressWith(cand, c);
    };

    // The parallel tick phase: engines are ticked concurrently (or in
    // cluster order by the serial fallback — same result either way by
    // construction). The task closure is built once, outside the loop;
    // `now` is a reference into Ctx, so it tracks the cycle.
    const bool full_width = model.fullWidthExecution();
    const std::function<void(unsigned)> tick_task =
        [&x, &now, full_width, bucket](unsigned k) {
            x.engines[k]->tickCycle(now, full_width, bucket);
        };

    // Wake-candidate table (fast-forward): one registration per
    // configured probe, hoisted out of the cycle loop. Registration
    // order matches the old per-cycle ladder exactly — tier by tier,
    // and within a tier the same source order — so the chosen wake
    // cycle and its WakeSource attribution are unchanged.
    WakeTable wt;
    for (auto &eng : x.engines)
        wt.add(0, WakeSource::Coproc, [e = eng.get()](Cycle at) {
            return e->coprocWake(at);
        });
    for (auto &eng : x.engines)
        wt.add(1, WakeSource::Core, [e = eng.get()](Cycle at) {
            return e->coreWake(at);
        });
    for (auto &eng : x.engines)
        wt.add(2, WakeSource::Mem, [e = eng.get()](Cycle at) {
            return e->memWake(at);
        });
    // An arbiter rebalance can change per-cluster DRAM grants, which
    // no component probe anticipates; wake exactly at the next period
    // boundary.
    if (x.arbiter)
        wt.add(2, WakeSource::Arbiter, [period = cfg.interArbiterPeriod](
                                           Cycle at) {
            return (at / period + 1) * period;
        });
    for (unsigned c = 0; c < cfg.numCores; ++c)
        wt.add(2, WakeSource::Dispatch, [&x, c](Cycle) {
            return x.fe.dispatchAt(static_cast<CoreId>(c));
        });
    if (opt.snapshotEvery)
        wt.add(2, WakeSource::Snapshot, [every = opt.snapshotEvery](
                                            Cycle at) {
            return (at / every + 1) * every;
        });
    // Fault-plan boundaries change component behaviour even when the
    // machine is otherwise quiescent, and a spinning core's watchdog
    // deadline is a state change the probes above can't see. Both must
    // be wake candidates or fast-forward would skip past them and
    // diverge from the ticked run.
    if (injector)
        wt.add(2, WakeSource::Fault,
               [injector](Cycle at) { return injector->nextEventAt(at); });
    if (opt.watchdogCycles) {
        for (unsigned c = 0; c < cfg.numCores; ++c)
            wt.add(2, WakeSource::Watchdog,
                   [core = &x.core(c), wd = opt.watchdogCycles](Cycle at) {
                       return core->awaitingVl()
                                  ? std::max(core->spinSince() + wd,
                                             at + 1)
                                  : kCycleNever;
                   });
    }
    // Front-end wakes: arrivals and admission re-evaluations change
    // scheduling state no component probe can see.
    if (x.fe.hasTraffic())
        wt.add(2, WakeSource::Arrival,
               [&x](Cycle at) { return x.fe.arrivalWake(at); });
    if (x.fe.admitting())
        wt.add(2, WakeSource::Admission,
               [&x](Cycle at) { return x.fe.admissionWake(at); });

    // --- Cycle loop. ---
    for (; now < max_cycles; ++now) {
        // Pause boundary: state is exactly "about to execute cycle
        // `now`", the same point a checkpoint captures. Checked before
        // anything else so advance(N); advance(M) ticks each cycle
        // exactly once.
        if (now >= stop_at)
            return false;
        if (now == next_ckpt) {
            writeCkpt();
            next_ckpt += ckpt_every;
        }

        ++ff.cyclesTicked;

        // Hard wall-clock kill (runner containment): checked coarsely
        // so the steady_clock read stays off the hot path.
        if (opt.wallClockLimitSec > 0 &&
            (ff.cyclesTicked & 0xFFFF) == 0) {
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - x.wall_start;
            if (elapsed.count() > opt.wallClockLimitSec) {
                result.wallKilled = true;
                x.complete = true;
                return true;
            }
        }

        if (injector)
            injector->emitBoundaryEvents(now, opt.sink);

        // Level-2 lane manager: at every interArbiterPeriod boundary
        // the arbiter re-splits the machine's DRAM bandwidth across
        // clusters in proportion to last-window demand. Clustered
        // machines only — a flat machine has no arbiter.
        if (x.arbiter && now > 0 &&
            now % cfg.interArbiterPeriod == 0) {
            std::vector<std::uint64_t> bytes(x.ncl);
            for (unsigned k = 0; k < x.ncl; ++k)
                bytes[k] = x.engines[k]->mem().dramBytes();
            const std::vector<unsigned> &sh =
                x.arbiter->rebalance(now, bytes);
            for (unsigned k = 0; k < x.ncl; ++k)
                x.engines[k]->mem().setDramBytesPerCycle(sh[k]);
            obs::note(opt.sink, obs::EventKind::ClusterArbiterPlan, now,
                      kNoCore, x.arbiter->rebalances(), x.ncl,
                      *std::min_element(sh.begin(), sh.end()),
                      *std::max_element(sh.begin(), sh.end()));
        }

        // --- Parallel phase: tick every cluster engine (coproc, its
        // cores, lane accounting). Engines share no mutable state, so
        // the pool needs no locks; the serial fallback ticks them in
        // cluster order with the same result by construction.
        if (x.pool)
            x.pool->run(x.ncl, tick_task);
        else
            for (unsigned k = 0; k < x.ncl; ++k)
                tick_task(k);
        // Merge point: forward tick-phase events in cluster-id order,
        // so the stream is identical for any worker-thread count.
        if (x.buffered)
            for (auto &eng : x.engines)
                eng->drainEvents();

        // Livelock/deadlock watchdog: a <VL>-request episode (initial
        // write + Fig. 9 retry spin) that outlives the deadline is
        // escalated to the scalar fallback instead of spinning forever.
        if (opt.watchdogCycles) {
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                ScalarCore &core = x.core(c);
                if (!core.awaitingVl() ||
                    now < core.spinSince() + opt.watchdogCycles)
                    continue;
                CoProcessor &cp = x.eng(c).coproc();
                const VlRequestStatus st =
                    cp.vlRequestStatus(core.id());
                if (st.resolved && st.ok)
                    continue;   // Grant landed; the spin ends next step.
                ++x.watchdog_trips;
                obs::note(opt.sink, obs::EventKind::WatchdogTrip, now,
                          static_cast<CoreId>(c), cp.currentVl(core.id()),
                          now - core.spinSince());
                core.watchdogEscalate(now);
            }
        }

        // Arrivals and admission verdicts come before any dispatch
        // decision, so a job arriving at `now` is schedulable at once.
        x.fe.release(now);

        // Install the queued workloads whose context switch completed.
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            const CoreId id = static_cast<CoreId>(c);
            const std::size_t q = x.fe.due(id, now);
            if (q == traffic::kNoJob)
                continue;
            const traffic::Arrival &job = queue_.entries[q];
            x.compile_log.emplace_back(id, q);
            x.core(c).setProgram(
                compileAndBind(x, id, job.workload, job.loops));
            x.core_prog[c] = x.programs.size() - 1;
            result.batch.push_back(BatchCompletion{job.workload, id, now, 0});
            x.fe.started(id, now);
        }

        // Completion detection: a drained core closes its job and its
        // batch record, then takes queued work or is finished.
        bool all_done = true;
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            const CoreId id = static_cast<CoreId>(c);
            if (x.done[c])
                continue;
            if (!x.core(c).doneEmitting() ||
                !x.eng(c).coproc().coreDrained(x.lc(c)) ||
                x.fe.switching(id)) {
                all_done = false;
                continue;
            }
            x.fe.complete(id, now);
            for (auto it = result.batch.rbegin(); it != result.batch.rend();
                 ++it) {
                if (it->core == c && it->finished == 0) {
                    it->finished = now;
                    break;
                }
            }
            if (x.fe.exhausted()) {
                x.done[c] = true;
                x.finish[c] = now;
                last_finish = std::max(last_finish, now);
            } else {
                // The next workload (per the dispatch discipline) comes
                // after the OS context-switch cost; under traffic the
                // core idles until something is ready.
                x.fe.place(now, id, score);
                all_done = false;
            }
        }
        if (opt.snapshotEvery && now > 0 &&
            now % opt.snapshotEvery == 0) {
            obs::MetricSnapshot snap;
            snap.cycle = now;
            for (auto &eng : x.engines) {
                auto mv = eng->memGroup().snapshot();
                snap.values.insert(snap.values.end(), mv.begin(),
                                   mv.end());
                auto cv = eng->cpGroup().snapshot();
                snap.values.insert(snap.values.end(), cv.begin(),
                                   cv.end());
            }
            std::sort(snap.values.begin(), snap.values.end());
            result.snapshots.push_back(std::move(snap));
        }
        if (all_done) {
            x.complete = true;
            return true;
        }

        if (!opt.fastForward)
            continue;

        // --- Quiescence-aware fast-forward (skip-to-next-event). ---
        // Every component reports the earliest future cycle it could
        // change state; until min(candidates), each tick is provably a
        // no-op, so the loop jumps there directly. The candidate table
        // was registered above, once per advance() call. Pause and
        // checkpoint boundaries cap the jump so the loop lands on them
        // exactly — engine bookkeeping only: the span shapes (and
        // SchedFastForward events, engine category) may differ from an
        // uninterrupted run, the simulated state never does — a split
        // skip synthesizes the same bucket sums and round-robin
        // advance as one long skip.
        auto [wake, why] = wt.evaluate(now);
        if (stop_at < wake) {
            wake = stop_at;
            why = WakeSource::Checkpoint;
        }
        if (next_ckpt < wake) {
            wake = next_ckpt;
            why = WakeSource::Checkpoint;
        }
        if (wake <= now + 1)
            continue;

        // Nothing can happen before `wake`; a machine with no pending
        // event at all (wake == kCycleNever) matches the ticked run's
        // spin to the cap, so jump straight there and time out.
        Cycle target = wake;
        if (target >= max_cycles) {
            target = max_cycles;
            why = WakeSource::Cap;
        }
        const Cycle span = target - now - 1;
        if (span == 0)
            continue;

        obs::note(opt.sink, obs::EventKind::SchedFastForward, now, kNoCore,
                  span, static_cast<std::uint64_t>(why));
        for (auto &eng : x.engines)
            eng->synthesizeSkipped(now + 1, target - 1, bucket);
        for (auto &eng : x.engines)
            eng->skipCycles(span);
        ++ff.spans;
        ff.cyclesSkipped += span;
        ff.longestSpan = std::max(ff.longestSpan, span);
        now = target - 1;       // ++now lands exactly on the wake cycle.
    }
    x.complete = true;          // Ran into the maxCycles cap.
    return true;
}

RunResult
System::finalize()
{
    if (!ctx_)
        throw std::logic_error("System::finalize: boot() first");
    Ctx &x = *ctx_;
    const unsigned bucket = x.opt.bucket;
    RunResult &result = x.result;

    result.timedOut = x.now >= x.opt.maxCycles;
    x.ff.cyclesSimulated =
        x.now < x.opt.maxCycles ? x.now + 1 : x.opt.maxCycles;
    if (x.opt.ffStats)
        *x.opt.ffStats = x.ff;
    // A run cut at the cap simulated maxCycles cycles whether or not a
    // core finished; utilization is measured over all of them.
    result.cycles = result.timedOut ? x.ff.cyclesSimulated
                                    : std::max<Cycle>(x.last_finish, 1);
    // Each engine accumulated its own share of the busy-lane integral
    // during the (possibly parallel) tick phases; summing the shares
    // in cluster-id order makes the total independent of the thread
    // count, and on a flat machine it IS the single old accumulator.
    double busy_integral = 0.0;
    for (const auto &eng : x.engines)
        busy_integral += eng->busyIntegral();
    result.simdUtil =
        busy_integral / (static_cast<double>(x.total_lanes) *
                         static_cast<double>(result.cycles));

    for (unsigned c = 0; c < x.cfg.numCores; ++c) {
        CoreRunResult &cr = result.cores[c];
        const ScalarCore &core = x.core(c);
        const CoProcessor &cp = x.eng(c).coproc();
        cr.workload = names_[c];
        cr.finish = x.finish[c];
        cr.computeIssued = cp.computeIssued(x.lc(c));
        cr.memIssued = cp.memIssued(x.lc(c));
        cr.renameRegStallCycles = cp.renameRegStallCycles(x.lc(c));
        cr.monitorInsts = core.monitorInsts();
        cr.reconfigWaitCycles = core.reconfigWaitCycles();
        cr.reconfigEvents = core.reconfigEvents();
        cr.reinitInsts = core.reinitInsts();

        for (const PhaseTrace &t : core.phases()) {
            PhaseResult pr;
            pr.name = t.name;
            pr.start = t.start;
            // A phase still running at the cap ends where the run did.
            pr.end = t.end        ? t.end
                     : x.finish[c] ? x.finish[c]
                                   : result.cycles;
            pr.firstVl = t.firstVl;
            pr.lastVl = t.lastVl;
            pr.computeIssued =
                cp.computeIssuedInPhase(x.lc(c), t.phaseId);
            const Cycle span = pr.end > pr.start ? pr.end - pr.start : 1;
            pr.issueRate = static_cast<double>(pr.computeIssued) /
                           static_cast<double>(span);
            cr.phases.push_back(pr);
        }

        const auto &busy_bk = x.eng(c).busyBuckets(x.lc(c));
        const auto &alloc_bk = x.eng(c).allocBuckets(x.lc(c));
        for (std::size_t b = 0; b < busy_bk.size(); ++b) {
            cr.busyLanesTimeline.push_back(busy_bk[b] / bucket);
            cr.allocLanesTimeline.push_back(alloc_bk[b] / bucket);
        }
    }

    result.dramBytes = 0;
    result.vlSwitches = 0;
    result.plansMade = 0;
    result.laneFaults = 0;
    for (const auto &eng : x.engines) {
        result.dramBytes += eng->mem().dramBytes();
        result.vlSwitches += eng->coproc().vlSwitches();
        result.plansMade += eng->coproc().plansMade();
        result.laneFaults += eng->coproc().laneFaults();
    }
    result.watchdogTrips = x.watchdog_trips;

    // Per-cluster records and arbiter accounting: clustered machines
    // only, so flat-machine results (and everything exported from
    // them) are unchanged.
    if (x.ncl > 1) {
        result.arbiterRebalances = x.arbiter->rebalances();
        result.clusters.resize(x.ncl);
        for (unsigned k = 0; k < x.ncl; ++k) {
            ClusterRunResult &cr = result.clusters[k];
            cr.cluster = k;
            cr.dramBytes = x.engines[k]->mem().dramBytes();
            cr.vlSwitches = x.engines[k]->coproc().vlSwitches();
            cr.plansMade = x.engines[k]->coproc().plansMade();
            cr.dramShareBpc = x.arbiter->shares()[k];
            cr.avgDramShareBpc = x.arbiter->avgShare(k, result.cycles);
            cr.migratedIn = x.arbiter->migratedIn(k);
            cr.migratedOut = x.arbiter->migratedOut(k);
        }
    }

    result.trafficJobs = x.fe.records();
    result.sloViolations = x.fe.sloViolations();
    result.jobsShed = x.fe.shed();
    result.jobDeferrals = x.fe.deferrals();
    result.overloadEnters = x.fe.overloadEnters();

    // gem5-style stats dump (same groups the snapshots sampled).
    {
        std::ostringstream os;
        for (const auto &eng : x.engines) {
            eng->memGroup().dump(os);
            eng->cpGroup().dump(os);
        }
        stats::Group run_group("system.run");
        run_group.addFormula(
            "watchdog_trips",
            [&] { return static_cast<double>(x.watchdog_trips); },
            "livelock-watchdog scalar-fallback escalations");
        run_group.addFormula(
            "lane_faults",
            [&] { return static_cast<double>(result.laneFaults); },
            "ExeBU hard faults applied");
        if (x.ncl > 1) {
            const double reb =
                static_cast<double>(x.arbiter->rebalances());
            const double mig =
                static_cast<double>(x.arbiter->migrations());
            run_group.addFormula(
                "arbiter_rebalances", [reb] { return reb; },
                "inter-cluster bandwidth rebalances published");
            run_group.addFormula(
                "cluster_migrations", [mig] { return mig; },
                "queued workloads adopted across clusters");
        }
        x.fe.addStats(run_group);
        run_group.dump(os);
        result.statsText = os.str();
    }

    RunResult out = std::move(x.result);
    ctx_.reset();
    return out;
}

RunResult
System::run(const RunOptions &opt)
{
    boot(opt);
    advance(kCycleNever);
    return finalize();
}

// ------------------------------------------------------- checkpointing

namespace
{

/** Digest helper: loop structure, not the full expression trees — the
 *  suite builds loops deterministically from names, so name + shape is
 *  what distinguishes two workload sets in practice. */
void
describeLoops(std::ostream &os, const std::vector<kir::Loop> &loops)
{
    for (const kir::Loop &l : loops) {
        os << l.name << ';' << l.trip << ';' << l.stores.size() << ';'
           << (l.reduction ? 1 : 0) << ';';
        for (const kir::ArrayDecl &a : l.arrays)
            os << a.name << ',' << a.elems << ','
               << static_cast<unsigned>(a.elemBytes) << ','
               << (a.streaming ? 1 : 0) << ';';
        os << '|';
    }
}

void
describeCache(std::ostream &os, const CacheConfig &c)
{
    os << c.sizeBytes << ',' << c.assoc << ',' << c.lineBytes << ','
       << c.latency << ',' << c.bytesPerCycle << '|';
}

} // namespace

std::uint64_t
System::fingerprint(const Ctx &x) const
{
    std::ostringstream os;
    const MachineConfig &c = x.cfg;
    os << c.numCores << '|' << static_cast<int>(c.policy) << '|'
       << c.ghz << '|' << c.numExeBUs << '|' << c.vregsPerBlk << '|'
       << c.pregsPerBlk << '|' << c.computeIssueWidth << '|'
       << c.memIssueWidth << '|' << c.transmitWidth << '|'
       << c.instPoolEntries << '|' << c.issueQueueEntries << '|'
       << c.robEntries << '|' << c.commitWidth << '|'
       << c.loadQueueEntries << '|' << c.storeQueueEntries << '|'
       << c.fpLatency << '|' << c.laneMgrLatency << '|'
       << c.retireDelay << '|' << c.dramLatency << '|'
       << c.dramBytesPerCycle << '|' << c.prefetchDegree << '|'
       << c.monitorPeriod << '|' << c.contextSwitchCycles << '|'
       // The retired batch-dispatch enum's FCFS value, kept so every
       // existing checkpoint and pinned fingerprint still matches.
       << 0 << '|';
    describeCache(os, c.vecCache);
    describeCache(os, c.l2);
    for (unsigned u : c.staticPlan)
        os << u << ',';
    os << '#';
    for (unsigned i = 0; i < c.numCores; ++i) {
        os << names_[i] << '@';
        describeLoops(os, loops_[i]);
    }
    os << '#';
    for (const traffic::Arrival &e : queue_.entries) {
        os << e.workload << '@';
        describeLoops(os, e.loops);
    }
    // Determinism-relevant run options. fastForward and checkpointing
    // knobs are deliberately excluded: they never change simulated
    // state, so a ticked run may restore a fast-forwarded checkpoint.
    os << '#' << x.opt.maxCycles << '|' << x.opt.bucket << '|'
       << x.opt.snapshotEvery << '|' << x.opt.watchdogCycles << '|'
       << (x.opt.faultPlan ? x.opt.faultPlan->describe() : "");
    // Traffic metadata and the dispatch discipline are determinism-
    // relevant. Appended only when configured so traffic-free
    // fingerprints — and every existing checkpoint — are unchanged.
    if (queue_.hasTraffic || queue_.dispatcher) {
        os << '#' << (queue_.dispatcher ? queue_.dispatcher->key() : "")
           << '|';
        for (const traffic::Arrival &m : queue_.entries)
            os << m.arriveAt << ',' << m.tenant << ',' << m.sloBudget
               << ',' << m.dependsOn << ',' << m.thinkGap << ','
               << m.estCost << ';';
    }
    // The admission policy and its knobs are determinism-relevant.
    // Appended only when a policy is installed so admission-off
    // fingerprints — and every existing checkpoint — are unchanged.
    if (queue_.hasTraffic && queue_.admission)
        os << '#' << "adm:" << queue_.admission->key() << '|'
           << queue_.admissionCap << '|' << queue_.admissionRefill;
    // Cluster topology and per-cluster resolved static plans. Appended
    // only on clustered machines so every flat-machine fingerprint —
    // and every existing checkpoint — is unchanged.
    if (c.numClusters > 1) {
        os << '#' << c.numClusters << '|' << c.interArbiterPeriod
           << '|' << c.clusterMigrationCycles << '|';
        for (const auto &eng : x.engines) {
            for (unsigned u : eng->view().staticPlan)
                os << u << ',';
            os << ';';
        }
    }

    const std::string s = os.str();
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (unsigned char ch : s)
        h = (h ^ ch) * 0x100000001B3ULL;
    return h;
}

// Every checkpoint io body is [[gnu::cold]]: it runs once per save or
// restore, and keeping it out of line with the per-cycle code keeps
// the simulator's hot paths laid out as they would be without it.
template <class Ar>
[[gnu::cold]] void
System::io(Ar &ar, Ctx &x, std::vector<std::string> &interned) const
{
    constexpr bool kLoad = Ar::kLoading;
    using ckpt::Reader;

    ar.section("meta");
    const std::uint64_t fp = fingerprint(x);
    std::uint64_t saved_fp = fp;
    ar.u64(saved_fp);
    if constexpr (kLoad)
        Reader::check(saved_fp == fp,
                      "checkpoint fingerprint mismatch: the file was "
                      "written by a system with a different configuration, "
                      "workload set, or determinism-relevant run options");
    ar.u64(x.now);

    ar.section("engine");
    ar.u64(x.last_finish);
    ar.b(x.complete);
    ar.b(x.result.wallKilled);
    ar.u64(x.ff.cyclesSimulated);
    ar.u64(x.ff.cyclesTicked);
    ar.u64(x.ff.cyclesSkipped);
    ar.u64(x.ff.spans);
    ar.u64(x.ff.longestSpan);
    ar.u64(x.watchdog_trips);
    // The flat busy-integral slot stays a single f64 (the frozen byte
    // layout): the cluster-id-order sum of the per-engine shares. On a
    // flat machine that sum IS engine 0's accumulator, bit for bit, so
    // restore parks it there; clustered machines overwrite every
    // engine from the per-engine shares in the "cluster" section.
    double busy_integral = 0.0;
    if constexpr (!kLoad)
        for (const auto &eng : x.engines)
            busy_integral += eng->busyIntegral();
    ar.f64(busy_integral);
    if constexpr (kLoad)
        x.engines[0]->setBusyIntegral(busy_integral);

    // Program bookkeeping: the queue-dispatch compile log, replayed on
    // restore — deterministic compilation reproduces byte-identical
    // programs and array bindings.
    unsigned saved_region = x.region;
    ar.u32(saved_region);
    ar.seq(x.compile_log, [&](std::pair<CoreId, std::uint64_t> &e) {
        ar.u16(e.first);
        ar.u64(e.second);
        if constexpr (kLoad) {
            Reader::check(e.first < x.cfg.numCores,
                          "checkpoint compile log references a core "
                          "this system lacks");
            Reader::check(e.second < queue_.entries.size(),
                          "checkpoint compile log references a queue "
                          "entry this system lacks");
            const traffic::Arrival &job = queue_.entries[e.second];
            compileAndBind(x, e.first, job.workload, job.loops);
        }
    });
    if constexpr (kLoad)
        Reader::check(x.region == saved_region,
                      "checkpoint compile replay diverged");
    for (std::uint64_t &p : x.core_prog) {
        ar.u64(p);
        if constexpr (kLoad)
            Reader::check(p < x.programs.size(),
                          "checkpoint program index out of range");
    }
    if constexpr (kLoad)
        for (unsigned c = 0; c < x.cfg.numCores; ++c)
            x.core(c).restoreProgram(x.programs[x.core_prog[c]].get());

    // Scheduling / completion state.
    for (Cycle &f : x.finish)
        ar.u64(f);
    for (auto &&d : x.done)
        ar.b(d);
    x.fe.ioDispatch(ar);

    // Timelines, in global core order (the engines hold them now, but
    // the byte layout is the pre-engine flat one).
    const auto f64 = [&](double &v) { ar.f64(v); };
    for (unsigned c = 0; c < x.cfg.numCores; ++c)
        ar.seq(x.eng(c).busyBuckets(x.lc(c)), f64);
    for (unsigned c = 0; c < x.cfg.numCores; ++c)
        ar.seq(x.eng(c).allocBuckets(x.lc(c)), f64);

    // Partial results accumulated so far.
    ar.seq(x.result.batch, [&](BatchCompletion &b) {
        ar.str(b.name);
        ar.u16(b.core);
        ar.u64(b.dispatched);
        ar.u64(b.finished);
    });
    ar.seq(x.result.snapshots, [&](obs::MetricSnapshot &s) {
        ar.u64(s.cycle);
        ar.seq(s.values, [&](std::pair<std::string, double> &v) {
            ar.str(v.first);
            ar.f64(v.second);
        });
    });

    // The sink's intern table, so a resumed run hands out identical
    // string ids for identical names.
    ar.seq(interned, [&](std::string &s) { ar.str(s); });

    // Consumable fault-injector state.
    bool had_injector = x.injector != nullptr;
    ar.b(had_injector);
    if constexpr (kLoad)
        Reader::check(had_injector == (x.injector != nullptr),
                      "checkpoint fault-plan presence mismatch (pass the "
                      "same --faults / --fault-seed the checkpointing run "
                      "used)");
    if (x.injector)
        x.injector->io(ar);

    // Traffic lifecycle and admission-control state. Each section
    // exists only when its layer is on, so traffic- and admission-off
    // checkpoints keep their exact byte layout; presence mismatches are
    // caught by the fingerprint.
    x.fe.ioJobs(ar);

    // Inter-cluster arbiter grants and accounting. Like the traffic
    // section, it exists only on clustered machines, so flat-machine
    // checkpoints keep their exact byte layout.
    if (x.arbiter) {
        ar.section("cluster");
        x.arbiter->io(ar);
        if constexpr (kLoad)
            for (unsigned k = 0; k < x.ncl; ++k)
                x.engines[k]->mem().setDramBytesPerCycle(
                    x.arbiter->shares()[k]);
        // Per-engine busy-integral shares: the flat slot above only
        // holds their sum, which is not enough to resume engines that
        // keep accumulating independently.
        for (const auto &eng : x.engines) {
            double share = eng->busyIntegral();
            ar.f64(share);
            if constexpr (kLoad)
                eng->setBusyIntegral(share);
        }
    }

    // Components: per cluster its memory system then its co-processor
    // (the flat order on a 1-cluster machine), then every core in
    // global id order.
    for (const auto &eng : x.engines) {
        eng->mem().io(ar);
        eng->coproc().io(ar);
    }
    ar.len(x.cfg.numCores, "checkpoint core count mismatch");
    for (unsigned c = 0; c < x.cfg.numCores; ++c)
        x.core(c).io(ar);
}

void
System::saveCheckpoint(std::ostream &os) const
{
    if (!ctx_)
        throw std::logic_error("System::saveCheckpoint: boot() first");
    Ctx &x = *ctx_;
    std::vector<std::string> interned;
    if (x.opt.sink)
        interned = x.opt.sink->internedStrings();
    ckpt::Writer w(os);
    io(w, x, interned);
    w.finish();
}

void
System::restoreCheckpoint(std::istream &is, const RunOptions &opt)
{
    try {
        boot(opt);
        Ctx &x = *ctx_;
        ckpt::Reader r(is);
        std::vector<std::string> interned;
        io(r, x, interned);
        r.finish();
        if (x.opt.sink)
            x.opt.sink->restoreInternedStrings(interned);

        // The wall-clock budget restarts at restore time; it is host
        // time, not simulated state.
        x.wall_start = std::chrono::steady_clock::now();
        obs::note(opt.sink, obs::EventKind::CheckpointRestore, x.now,
                  kNoCore);
    } catch (...) {
        // Never leave a half-restored machine behind.
        ctx_.reset();
        throw;
    }
}

// ------------------------------------------------------ live inspection

std::string
System::inspect(const std::string &path) const
{
    if (!ctx_)
        throw std::logic_error("System::inspect: boot() first");
    const Ctx &x = *ctx_;
    std::ostringstream os;
    auto strip = [&path](const char *prefix) -> const char * {
        const std::size_t n = std::string_view(prefix).size();
        return path.compare(0, n, prefix) == 0 ? path.c_str() + n
                                               : nullptr;
    };
    // Un-prefixed component paths address cluster 0 — the whole
    // machine on a flat config, and a convenient alias on a clustered
    // one; system.clusterN.* addresses a specific cluster.
    const ClusterEngine &cl0 = *x.engines[0];
    if (path == "system") {
        os << "policy " << x.model.key() << '\n'
           << "cores " << x.cfg.numCores << '\n'
           << "cycle " << x.now << '\n'
           << "complete " << (x.complete ? 1 : 0) << '\n'
           << "queued_workloads " << queue_.entries.size() << '\n'
           << "undispatched " << x.fe.undispatched() << '\n'
           << "watchdog_trips " << x.watchdog_trips << '\n'
           << "cycles_ticked " << x.ff.cyclesTicked << '\n'
           << "ff_spans " << x.ff.spans << '\n';
        if (x.ncl > 1)
            os << "clusters " << x.ncl << '\n'
               << "cores_per_cluster " << x.cpk << '\n'
               << "arbiter_rebalances " << x.arbiter->rebalances()
               << '\n'
               << "cluster_migrations " << x.arbiter->migrations()
               << '\n';
        x.fe.inspect(os);
    } else if (path == "system.arbiter" && x.arbiter) {
        os << "clusters " << x.ncl << '\n'
           << "total_dram_bpc " << x.arbiter->totalBpc() << '\n'
           << "period " << x.arbiter->period() << '\n'
           << "rebalances " << x.arbiter->rebalances() << '\n'
           << "migrations " << x.arbiter->migrations() << '\n';
        for (unsigned k = 0; k < x.ncl; ++k)
            os << "cluster" << k << "_share "
               << x.arbiter->shares()[k] << '\n';
    } else if (path == "system.mem") {
        cl0.mem().printState(os);
    } else if (path == "system.mem.vec_cache") {
        cl0.mem().vecCache().printState(os);
    } else if (path == "system.mem.l2") {
        cl0.mem().l2().printState(os);
    } else if (path == "system.coproc") {
        cl0.coproc().printState(os, "");
    } else if (path == "system.coproc.rt") {
        cl0.coproc().printState(os, "rt");
    } else if (path == "system.coproc.lanemgr") {
        cl0.coproc().printState(os, "lanemgr");
    } else if (path == "system.coproc.regfile") {
        cl0.coproc().printState(os, "regfile");
    } else if (const char *rest = strip("system.coproc.core")) {
        cl0.coproc().printState(os, rest);
    } else if (const char *spec = strip("system.cluster")) {
        std::size_t pos = 0;
        const unsigned long k = std::stoul(spec, &pos);
        if (k >= x.ncl)
            throw std::out_of_range("no such cluster: " + path);
        const ClusterEngine &cl = *x.engines[k];
        const std::string sub(spec + pos);
        if (sub == ".mem")
            cl.mem().printState(os);
        else if (sub == ".coproc")
            cl.coproc().printState(os, "");
        else
            throw std::invalid_argument("unknown component path: " +
                                        path);
    } else if (const char *core = strip("system.core")) {
        const std::size_t c = std::stoul(core);
        if (c >= x.cfg.numCores)
            throw std::out_of_range("no such core: " + path);
        x.core(static_cast<unsigned>(c)).printState(os);
    } else {
        throw std::invalid_argument("unknown component path: " + path);
    }
    return os.str();
}

std::vector<std::string>
System::componentPaths() const
{
    std::vector<std::string> paths{
        "system",          "system.mem",
        "system.mem.vec_cache", "system.mem.l2",
        "system.coproc",   "system.coproc.rt",
        "system.coproc.lanemgr", "system.coproc.regfile",
    };
    if (cfg_.numClusters > 1) {
        paths.push_back("system.arbiter");
        for (unsigned k = 0; k < cfg_.numClusters; ++k) {
            const std::string p = "system.cluster" + std::to_string(k);
            paths.push_back(p + ".mem");
            paths.push_back(p + ".coproc");
        }
    }
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        paths.push_back("system.coproc.core" + std::to_string(c));
        paths.push_back("system.core" + std::to_string(c));
    }
    return paths;
}

RunResult
corun(SharingPolicy p,
      const std::vector<std::pair<std::string,
                                  std::vector<kir::Loop>>> &wls,
      const RunOptions &opt)
{
    MachineConfig cfg = MachineConfig::forPolicy(
        p, static_cast<unsigned>(wls.size()));
    System sys(cfg);
    for (unsigned c = 0; c < wls.size(); ++c)
        sys.setWorkload(static_cast<CoreId>(c), wls[c].first,
                        wls[c].second);
    return sys.run(opt);
}

} // namespace occamy
