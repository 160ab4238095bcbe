#include "coproc/coproc.hh"

#include <algorithm>
#include <cassert>
#include <functional>
#include <ostream>
#include <stdexcept>

#include "ckpt/ckpt.hh"
#include "common/log.hh"
#include "fault/injector.hh"

namespace occamy
{

namespace
{

/** Insert @p seq into the age-ordered list @p v. */
inline void
insertInAgeOrder(std::vector<SeqNum> &v, SeqNum seq)
{
    v.insert(std::upper_bound(v.begin(), v.end(), seq), seq);
}

/** Build a pipeline event for @p inst (dispatch/issue/retire). */
inline obs::Event
pipeEvent(Cycle now, obs::EventKind kind, const DynInst &inst)
{
    obs::Event ev;
    ev.cycle = now;
    ev.kind = kind;
    ev.core = inst.core;
    ev.a = static_cast<std::uint64_t>(inst.op);
    ev.b = inst.seq;
    ev.x = inst.activeLanes;
    return ev;
}

} // namespace

CoProcessor::CoProcessor(const MachineConfig &cfg, MemSystem &mem)
    : cfg_(cfg), model_(policy::model(cfg.policy)), mem_(mem),
      rt_(cfg.numCores, cfg.numExeBUs),
      dispatch_cfg_(cfg.numExeBUs),
      regfile_cfg_(cfg.numExeBUs),
      regfile_(cfg),
      lane_mgr_(RooflineParams::fromConfig(cfg), cfg.numExeBUs,
                cfg.laneMgrLatency)
{
    // Let the policy adjust per-core structure sizing (FTS statically
    // splits the single full-width unit's load/store queues between
    // the cores -- the store-queue competition Section 2 blames for
    // FTS's issue-rate drop).
    MachineConfig core_cfg = cfg;
    model_.tuneCoreConfig(core_cfg);
    cores_.reserve(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c)
        cores_.emplace_back(core_cfg);
    busy_lanes_.assign(cfg.numCores, 0);
    waiters_.resize(regfile_.physCount());

    // Boot-time lane ownership.
    switch (model_.bootOwnership()) {
      case policy::BootOwnership::StaticPlan:
        // Static plan: equal split unless the config carries one.
        for (unsigned c = 0; c < cfg_.numCores; ++c) {
            applyVl(static_cast<CoreId>(c),
                    policy::bootShare(cfg_, static_cast<CoreId>(c)));
            rt_.core(static_cast<CoreId>(c)).status = true;
        }
        break;
      case policy::BootOwnership::FullWidthNoOwnership:
        // No ownership: every instruction executes full-width.
        for (unsigned c = 0; c < cfg_.numCores; ++c)
            rt_.retarget(static_cast<CoreId>(c), 0);
        break;
      case policy::BootOwnership::AllFree:
        // All lanes start free; workload prologues claim them.
        break;
    }
}

bool
CoProcessor::canEnqueue(CoreId c) const
{
    return cores_[c].pool.size() < cfg_.instPoolEntries;
}

void
CoProcessor::enqueue(DynInst inst)
{
    assert(isSve(inst.op));
    assert(canEnqueue(inst.core));
    cores_[inst.core].pool.push_back(inst);
}

bool
CoProcessor::canEnqueueEmSimd(CoreId c) const
{
    return cores_[c].emq.size() < kEmqDepth;
}

void
CoProcessor::enqueueEmSimd(DynInst inst)
{
    assert(isEmSimd(inst.op));
    assert(canEnqueueEmSimd(inst.core));
    if (inst.op == Opcode::MsrVL)
        cores_[inst.core].vlReq = VlRequestStatus{};
    cores_[inst.core].emq.push_back(inst);
}

VlRequestStatus
CoProcessor::vlRequestStatus(CoreId c) const
{
    return cores_[c].vlReq;
}

void
CoProcessor::ackVlRequest(CoreId c)
{
    cores_[c].vlReq = VlRequestStatus{};
}

void
CoProcessor::cancelVlRequest(CoreId c)
{
    CoreState &cs = cores_[c];
    cs.vlReq = VlRequestStatus{};
    cs.cfgDelayUntil = 0;
    // At most one <VL> request is in flight per core (the front end
    // stalls on it), so dropping the first un-executed MsrVL is enough.
    for (std::size_t i = 0; i < cs.emq.size(); ++i) {
        if (cs.emq[i].op == Opcode::MsrVL) {
            cs.emq.erase_at(i);
            break;
        }
    }
}

bool
CoProcessor::coreDrained(CoreId c) const
{
    const CoreState &cs = cores_[c];
    if (!model_.drainIncludesLsu())
        return cs.pool.empty() && cs.rob.empty();
    return cs.pool.empty() && cs.rob.empty() && cs.lsu.empty();
}

unsigned
CoProcessor::allocatedLanes(CoreId c) const
{
    if (model_.fullWidthExecution())
        return usableLanes();
    return rt_.core(c).vl * kLanesPerBu;
}

DynInst &
CoProcessor::robEntry(CoreState &cs, SeqNum seq)
{
    assert(seq >= cs.robBase);
    const std::size_t idx = static_cast<std::size_t>(seq - cs.robBase);
    assert(idx < cs.rob.size());
    return cs.rob[idx];
}

Lsu &
CoProcessor::lsuFor(CoreId c)
{
    return cores_[c].lsu;
}

std::size_t
CoProcessor::iqLoad(CoreId c) const
{
    // Issue queues stay per core even under FTS (each core keeps its
    // own dispatch window); sharing them starves the faster core
    // outright instead of merely slowing it.
    return cores_[c].iq.size();
}

void
CoProcessor::tick(Cycle now)
{
    applyFaults(now);

    std::fill(busy_lanes_.begin(), busy_lanes_.end(), 0u);
    for (auto &cs : cores_)
        cs.lsu.tick(now);

    commitStage(now);
    issueStage(now);
    renameStage(now);
    managerStage(now);
}

void
CoProcessor::applyFaults(Cycle now)
{
    if (!injector_)
        return;
    for (unsigned u : injector_->takeDueLaneFaults(now)) {
        if (dispatch_cfg_.owner(u) == kFaultedCore)
            continue;       // Already dead (duplicate plan entry).
        const CoreId owner = dispatch_cfg_.owner(u);
        // The two Cfg tables receive identical release/assign streams,
        // so per-unit ownership matches.
        assert(regfile_cfg_.owner(u) == owner);
        dispatch_cfg_.disable(u);
        regfile_cfg_.disable(u);
        if (owner == kNoCore)
            rt_.loseFree();
        else
            rt_.loseOwned(owner);
        ++lane_faults_;

        // Degrade the partitioning machinery: the LaneMgr plans over
        // the surviving pool from now on (the elastic policy schedules
        // an immediate re-plan); rule-based policies adjust their
        // entitlements through the onLaneFault hook.
        lane_mgr_.degrade(rt_.usableBus());
        if (model_.usesLaneManager())
            lane_mgr_.notifyPhaseEvent(now);
        model_.onLaneFault(cfg_, rt_, u, owner);

        OCCAMY_LOG(now, "Coproc",
                   "ExeBU %u hard fault (owner=%d, usable=%u)", u,
                   owner == kNoCore ? -1 : static_cast<int>(owner),
                   rt_.usableBus());
        obs::note(sink_, obs::EventKind::FaultInject, now, owner,
                  static_cast<std::uint64_t>(fault::FaultKind::LaneFault),
                  u);
        obs::note(sink_, obs::EventKind::PartitionDegrade, now, owner,
                  rt_.usableBus(), cfg_.numExeBUs);
    }
}

Cycle
CoProcessor::nextEventAt(Cycle now) const
{
    Cycle next = kCycleNever;
    // Candidates may be <= now (e.g. a ROB head that became ready
    // after this cycle's commit stage ran); clamp to now+1 — the
    // soonest a future tick can act on them.
    auto consider = [&next, now](Cycle c) {
        if (c != kCycleNever)
            next = std::min(next, std::max(c, now + 1));
    };

    // A pending lane-partition plan publishes at a fixed cycle and
    // changes <decision> state even with every pipeline drained.
    // (Rule-based policies update <decision> eagerly on EM-SIMD
    // execution, which the per-core candidates below already track.)
    if (model_.usesLaneManager())
        consider(lane_mgr_.planReadyAt());

    for (unsigned ci = 0; ci < cores_.size(); ++ci) {
        const CoreId c = static_cast<CoreId>(ci);
        const CoreState &cs = cores_[ci];

        // LSU queue releases gate both issue and coreDrained().
        consider(cs.lsu.nextRelease());

        // Rename acts on the pool head once it clears the transmit
        // retire gate; before that the stage is a strict no-op (the
        // gate check precedes the stall bookkeeping). At or past the
        // gate this clamps to now+1: a capacity-blocked rename bumps
        // stall counters and fires RenameStall every cycle, so such
        // cycles must be ticked, never skipped.
        if (!cs.pool.empty())
            consider(cs.pool.front().enqueueCycle + cfg_.retireDelay);

        // Next ROB head retirement.
        if (!cs.rob.empty() && cs.rob.front().issued)
            consider(cs.rob.front().readyCycle);

        // IQ entries: earliest cycle each could leave. With vl == 0
        // (non-FTS) the issue stage skips this core entirely until a
        // reconfiguration — which is itself a wake event — grants
        // lanes again.
        if (model_.issueEligible(rt_, c)) {
            for (SeqNum seq : cs.iq) {
                const DynInst &inst =
                    cs.rob[static_cast<std::size_t>(seq - cs.robBase)];
                Cycle earliest = now + 1;
                bool src_pending = false;
                if (inst.isCompute() || inst.isStore()) {
                    for (unsigned i = 0; i < inst.nsrc; ++i) {
                        if (inst.srcPhys[i] < 0)
                            continue;
                        const Cycle r = regfile_.readyAt(inst.srcPhys[i]);
                        if (r == kCycleNever)
                            // Producer not issued yet: its own IQ entry
                            // (or vl/plan wake) governs this one.
                            src_pending = true;
                        else if (r > earliest)
                            earliest = r;
                    }
                }
                if (inst.isMem()) {
                    const bool full = inst.isStore()
                                          ? !cs.lsu.canIssueStore()
                                          : !cs.lsu.canIssueLoad();
                    if (full)
                        earliest = std::max(earliest,
                                            cs.lsu.nextRelease());
                }
                if (!src_pending)
                    consider(earliest);
                if (next == now + 1)
                    break;      // Cannot do better; stop scanning.
            }
        }

        // EM-SIMD queue: a non-waiting head executes next cycle; a
        // drain-waiting MsrVL head is a no-op until the pipeline
        // empties, which the pool/ROB/LSU candidates above track. A
        // head stalled on an armed reconfiguration-delay deadline
        // resumes at that (known) cycle.
        if (!cs.emq.empty()) {
            if (!emHeadWaits(c, cs.emq.front(), now))
                consider(now + 1);
            else if (cs.cfgDelayUntil > now)
                consider(cs.cfgDelayUntil);
        }

        if (next == now + 1)
            break;
    }
    return next;
}

void
CoProcessor::skipCycles(Cycle span)
{
    if (model_.sharedIssueBudgets() && !cores_.empty())
        rr_start_ = static_cast<unsigned>((rr_start_ + span) %
                                          cores_.size());
}

void
CoProcessor::commitStage(Cycle now)
{
    for (unsigned c = 0; c < cores_.size(); ++c) {
        CoreState &cs = cores_[c];
        unsigned width = cfg_.commitWidth;
        while (width > 0 && !cs.rob.empty()) {
            DynInst &head = cs.rob.front();
            if (!head.issued || head.readyCycle > now)
                break;
            if (head.prevPhys >= 0)
                regfile_.free(static_cast<CoreId>(c), head.prevPhys);
            if (sink_ && sink_->wants(obs::EventKind::Retire))
                sink_->record(
                    pipeEvent(now, obs::EventKind::Retire, head));
            cs.rob.pop_front();
            ++cs.robBase;
            --width;
        }
    }
}

bool
CoProcessor::tryIssue(CoreId c, SeqNum seq, Cycle now,
                      unsigned &compute_budget, unsigned &mem_budget)
{
    CoreState &cs = cores_[c];
    DynInst &inst = robEntry(cs, seq);
    assert(!inst.issued);

    if (inst.isCompute()) {
        if (compute_budget == 0)
            return false;
        --compute_budget;
        inst.issued = true;
        inst.readyCycle = now + computeLatency(inst.op, cfg_.fpLatency);
        if (inst.dstPhys >= 0) {
            regfile_.setReadyAt(inst.dstPhys, inst.readyCycle);
            wakeDependents(inst.dstPhys, now);
        }
        busy_lanes_[c] += inst.activeLanes;
        ++cs.computeIssued;
        if (inst.phaseId >= cs.phaseCompute.size())
            cs.phaseCompute.resize(inst.phaseId + 1, 0);
        ++cs.phaseCompute[inst.phaseId];
        if (sink_ && sink_->wants(obs::EventKind::Issue))
            sink_->record(pipeEvent(now, obs::EventKind::Issue, inst));
        return true;
    }

    assert(inst.isMem());
    if (mem_budget == 0)
        return false;
    Lsu &lsu = lsuFor(c);
    const bool strided = inst.stride != 1;
    // Gathers/scatters crack into address-generation micro-ops and
    // consume the core's full ld/st issue bandwidth for the cycle.
    if (strided && mem_budget < cfg_.memIssueWidth)
        return false;
    if (inst.isStore()) {
        if (!lsu.canIssueStore())
            return false;
        mem_budget -= strided ? cfg_.memIssueWidth : 1;
        inst.issued = true;
        inst.readyCycle =
            strided ? lsu.issueScatter(mem_, inst.addr, inst.elemBytes,
                                       inst.stride, inst.activeElems,
                                       now)
                    : lsu.issueStore(mem_, inst.addr, inst.bytes, now);
    } else {
        if (!lsu.canIssueLoad())
            return false;
        mem_budget -= strided ? cfg_.memIssueWidth : 1;
        inst.issued = true;
        inst.readyCycle =
            strided ? lsu.issueGather(mem_, inst.addr, inst.elemBytes,
                                      inst.stride, inst.activeElems,
                                      now)
                    : lsu.issueLoad(mem_, inst.addr, inst.bytes, now);
        if (inst.dstPhys >= 0) {
            regfile_.setReadyAt(inst.dstPhys, inst.readyCycle);
            wakeDependents(inst.dstPhys, now);
        }
    }
    ++cs.memIssued;
    if (sink_ && sink_->wants(obs::EventKind::Issue))
        sink_->record(pipeEvent(now, obs::EventKind::Issue, inst));
    return true;
}

bool
CoProcessor::issueReady(CoreId c, std::size_t k, Cycle now,
                        unsigned &compute_budget, unsigned &mem_budget)
{
    CoreState &cs = cores_[c];
    const SeqNum seq = cs.ready[k];
    if (!tryIssue(c, seq, now, compute_budget, mem_budget))
        return false;
    // Only ready-list entries issue, so their operands are readable.
    assert(operandsReadyAt(robEntry(cs, seq)) <= now);
    // A zero-latency wakeup inside tryIssue inserts only younger
    // entries, i.e. behind position k.
    cs.ready.erase(cs.ready.begin() + static_cast<std::ptrdiff_t>(k));
    cs.iq.erase(std::lower_bound(cs.iq.begin(), cs.iq.end(), seq));
    return true;
}

void
CoProcessor::issueStage(Cycle now)
{
    // The loops below walk only the ready lists, in the same age order
    // as the IQs; every entry they skip is one whose operands are not
    // readable yet, which the full IQ scan would reject without side
    // effects (DESIGN.md "Event-driven issue").
    drainWakeups(now);
    if (model_.sharedIssueBudgets()) {
        // One full-width unit: issue budgets shared by all cores,
        // arbitrated round-robin for fairness.
        unsigned compute_budget = cfg_.computeIssueWidth;
        unsigned mem_budget = cfg_.memIssueWidth;
        const unsigned n = static_cast<unsigned>(cores_.size());
        bool progress = true;
        for (CoreState &cs : cores_)
            cs.cursor = 0;
        while (progress && (compute_budget > 0 || mem_budget > 0)) {
            progress = false;
            for (unsigned i = 0; i < n; ++i) {
                const CoreId c =
                    static_cast<CoreId>((rr_start_ + i) % n);
                CoreState &cs = cores_[c];
                // Find the next issueable entry for this core.
                for (std::size_t k = cs.cursor; k < cs.ready.size(); ++k) {
                    if (issueReady(c, k, now, compute_budget,
                                   mem_budget)) {
                        cs.cursor = k;
                        progress = true;
                        break;
                    }
                }
            }
        }
        rr_start_ = (rr_start_ + 1) % n;
    } else {
        for (unsigned c = 0; c < cores_.size(); ++c) {
            CoreState &cs = cores_[c];
            if (!model_.issueEligible(rt_, static_cast<CoreId>(c)))
                continue;
            unsigned compute_budget = cfg_.computeIssueWidth;
            unsigned mem_budget = cfg_.memIssueWidth;
            for (std::size_t k = 0; k < cs.ready.size();) {
                if (compute_budget == 0 && mem_budget == 0)
                    break;
                if (!issueReady(static_cast<CoreId>(c), k, now,
                                compute_budget, mem_budget))
                    ++k;
            }
        }
    }
}

Cycle
CoProcessor::operandsReadyAt(const DynInst &inst) const
{
    // Loads never wait on operands (the ld/st path models no address
    // dependence), only on LSU capacity.
    if (!inst.isCompute() && !inst.isStore())
        return 0;
    Cycle at = 0;
    for (unsigned i = 0; i < inst.nsrc; ++i)
        if (inst.srcPhys[i] >= 0)
            at = std::max(at, regfile_.readyAt(inst.srcPhys[i]));
    return at;
}

void
CoProcessor::track(CoreId c, DynInst &inst, Cycle ready_by)
{
    inst.pendingSrcs = 0;
    if (inst.isCompute() || inst.isStore()) {
        for (unsigned i = 0; i < inst.nsrc; ++i) {
            const std::int32_t p = inst.srcPhys[i];
            if (p >= 0 && regfile_.readyAt(p) == kCycleNever) {
                waiters_[static_cast<std::size_t>(p)].push_back(
                    {c, inst.seq});
                ++inst.pendingSrcs;
            }
        }
        if (inst.pendingSrcs > 0)
            return;
    }
    schedule({c, inst.seq}, operandsReadyAt(inst), ready_by);
}

void
CoProcessor::schedule(IqRef ref, Cycle at, Cycle ready_by)
{
    if (at <= ready_by) {
        insertInAgeOrder(cores_[ref.core].ready, ref.seq);
    } else {
        wakeups_.push_back({at, ref});
        std::push_heap(wakeups_.begin(), wakeups_.end(),
                       std::greater<>{});
    }
}

void
CoProcessor::wakeDependents(std::int32_t phys, Cycle now)
{
    std::vector<IqRef> &list = waiters_[static_cast<std::size_t>(phys)];
    for (const IqRef &w : list) {
        DynInst &d = robEntry(cores_[w.core], w.seq);
        assert(d.pendingSrcs > 0);
        // A zero-latency producer makes its consumer readable now. The
        // consumer is younger, so the issue loop still reaches it this
        // cycle, as a full IQ scan would.
        if (--d.pendingSrcs == 0)
            schedule(w, operandsReadyAt(d), now);
    }
    list.clear();
}

void
CoProcessor::drainWakeups(Cycle now)
{
    while (!wakeups_.empty() && wakeups_.front().at <= now) {
        std::pop_heap(wakeups_.begin(), wakeups_.end(), std::greater<>{});
        const IqRef w = wakeups_.back().ref;
        wakeups_.pop_back();
        insertInAgeOrder(cores_[w.core].ready, w.seq);
    }
}

void
CoProcessor::renameStage(Cycle now)
{
    // Rotate the per-cycle rename order so scarce shared physical
    // registers (FTS) are allocated fairly across cores.
    for (unsigned i = 0; i < cores_.size(); ++i) {
        const CoreId c =
            static_cast<CoreId>((now + i) % cores_.size());
        CoreState &cs = cores_[c];
        unsigned width = cfg_.transmitWidth;
        bool reg_stall = false;
        bool other_stall = false;
        while (width > 0 && !cs.pool.empty()) {
            DynInst &inst = cs.pool.front();
            if (inst.enqueueCycle + cfg_.retireDelay > now)
                break;
            if (cs.rob.size() >= cfg_.robEntries ||
                iqLoad(c) >= cfg_.issueQueueEntries) {
                other_stall = true;
                break;
            }
            // Rename sources.
            for (unsigned i = 0; i < inst.nsrc; ++i)
                inst.srcPhys[i] =
                    inst.srcArch[i] >= 0
                        ? regfile_.mapping(c, inst.srcArch[i])
                        : -1;
            // Allocate the destination row.
            if (inst.dstArch >= 0) {
                const std::int32_t phys = regfile_.alloc(c);
                if (phys < 0) {
                    reg_stall = true;
                    break;
                }
                inst.dstPhys = phys;
                regfile_.setReadyAt(phys, kCycleNever);
                inst.prevPhys = regfile_.rename(c, inst.dstArch, phys);
            }
            const SeqNum seq = cs.robBase + cs.rob.size();
            inst.seq = seq;
            cs.iq.push_back(seq);
            cs.rob.push_back(inst);
            // The next issue stage runs at now + 1 or later.
            track(c, cs.rob.back(), now + 1);
            if (sink_ && sink_->wants(obs::EventKind::Dispatch))
                sink_->record(pipeEvent(now, obs::EventKind::Dispatch,
                                        cs.rob.back()));
            cs.pool.pop_front();
            --width;
        }
        if (reg_stall)
            ++cs.regStallCycles;
        else if (other_stall)
            ++cs.otherStallCycles;
        if (reg_stall || other_stall)
            obs::note(sink_, obs::EventKind::RenameStall, now, c,
                      reg_stall ? 1 : 0);
    }
}

void
CoProcessor::applyVl(CoreId c, unsigned target, Cycle now)
{
    dispatch_cfg_.release(c);
    regfile_cfg_.release(c);
    if (target > 0) {
        const bool ok_d = dispatch_cfg_.assign(c, target);
        const bool ok_r = regfile_cfg_.assign(c, target);
        assert(ok_d && ok_r);
        (void)ok_d;
        (void)ok_r;
    }
    regfile_.resetCore(c);
    rt_.retarget(c, target);
    assert(rt_.al() == dispatch_cfg_.countFree());
    ++vl_switches_;
    // Ownership changed: rule-based policies refresh <decision> here,
    // eagerly, so skipped (fast-forwarded) cycles never miss one.
    model_.updateDecisions(cfg_, rt_);
    obs::note(sink_, obs::EventKind::VlApply, now, c, target, rt_.al());
}

bool
CoProcessor::execEmSimd(CoreId c, const DynInst &inst, Cycle now)
{
    CoreState &cs = cores_[c];
    switch (inst.op) {
      case Opcode::MsrOI:
        rt_.core(c).oi = inst.oi;
        obs::note(sink_, obs::EventKind::OiUpdate, now, c,
                  static_cast<std::uint64_t>(inst.oi.level), 0,
                  inst.oi.issue, inst.oi.mem);
        if (model_.usesLaneManager())
            lane_mgr_.notifyPhaseEvent(now);
        // Phase activity changed: rule-based policies republish
        // <decision> eagerly (no-op for the LaneMgr-driven policy).
        model_.updateDecisions(cfg_, rt_);
        return true;

      case Opcode::MsrVL: {
        const unsigned target = vlTarget(c, inst);

        // Injected transient denial: the Manager answers busy
        // (<status> = false) regardless of what the policy would say.
        // Releases (target 0) are exempt so epilogues always complete.
        if (injector_ && target != 0 && injector_->vlDenied(c, now)) {
            cs.cfgDelayUntil = 0;
            rt_.core(c).status = false;
            cs.vlReq = VlRequestStatus{true, false};
            return true;
        }

        const policy::VlOutcome out =
            model_.resolveVl(cfg_, rt_, c, target, coreDrained(c));

        if (out.action == policy::VlOutcome::Action::Wait) {
            // Wait at the head of the EM-SIMD queue until the SIMD
            // pipeline of this core is drained (Section 4.2.2
            // condition (2)).
            return false;
        }

        if (out.action == policy::VlOutcome::Action::Reject) {
            cs.cfgDelayUntil = 0;
            rt_.core(c).status = false;
            cs.vlReq = VlRequestStatus{true, false};
            return true;
        }

        if (model_.fullWidthExecution()) {
            // No ownership tables to update: <VL> is written directly.
            rt_.core(c).vl = out.vl;
            rt_.core(c).status = true;
        } else if (out.vl == rt_.core(c).vl) {
            cs.cfgDelayUntil = 0;
            rt_.core(c).status = true;
        } else {
            // A granted resize rewrites Dispatch.Cfg/RegFile.Cfg; an
            // injected reconfiguration delay stalls that rewrite at the
            // queue head. Once armed the deadline sticks even if the
            // fault window closes meanwhile.
            if (injector_) {
                if (cs.cfgDelayUntil == 0) {
                    const Cycle d = injector_->reconfigExtraDelay(c, now);
                    if (d > 0) {
                        cs.cfgDelayUntil = now + d;
                        return false;
                    }
                } else if (now < cs.cfgDelayUntil) {
                    return false;
                } else {
                    cs.cfgDelayUntil = 0;
                }
            }
            applyVl(c, out.vl, now);
            OCCAMY_LOG(now, "Coproc", "core%u vl -> %u (al=%u)", c,
                       out.vl, rt_.al());
        }
        cs.vlReq = VlRequestStatus{true, true};
        return true;
      }

      case Opcode::MrsVL:
      case Opcode::MrsStatus:
      case Opcode::MrsDecision:
      case Opcode::MrsAL:
        // Reads complete immediately; the front-end already consumed the
        // architectural value (speculative transmission, Section 4.1.1).
        return true;

      default:
        assert(false && "non-EM-SIMD instruction in EM-SIMD queue");
        return true;
    }
}

bool
CoProcessor::emHeadWaits(CoreId c, const DynInst &inst, Cycle now) const
{
    // Mirrors execEmSimd: only a MsrVL the policy resolves to Wait (a
    // real, grantable resize of an undrained pipeline) or one stalled
    // by an armed injected reconfiguration delay waits. Every other
    // head retires when executed.
    if (inst.op != Opcode::MsrVL)
        return false;
    const unsigned target = vlTarget(c, inst);
    if (injector_ && target != 0 && injector_->vlDenied(c, now))
        return false;       // Denied: retires as a reject.
    const policy::VlOutcome out =
        model_.resolveVl(cfg_, rt_, c, target, coreDrained(c));
    if (out.action == policy::VlOutcome::Action::Wait)
        return true;
    if (out.action == policy::VlOutcome::Action::Grant &&
        !model_.fullWidthExecution() && out.vl != rt_.core(c).vl) {
        // Grant-with-change: waiting only while an already-armed delay
        // deadline lies ahead. An unarmed but active delay window means
        // the next execution *arms* it — a state change, so not a wait.
        const Cycle du = cores_[c].cfgDelayUntil;
        if (du > now)
            return true;
    }
    return false;
}

unsigned
CoProcessor::vlTarget(CoreId c, const DynInst &inst) const
{
    if (inst.vlFromDecision) {
        const unsigned d = rt_.core(c).decision;
        return d > 0 ? d : rt_.core(c).vl;
    }
    return inst.imm;
}

void
CoProcessor::managerStage(Cycle now)
{
    // Publish a due lane-partition plan into <decision> (Section 5).
    if (model_.usesLaneManager() && lane_mgr_.planDue(now)) {
        const auto plan = lane_mgr_.makePlan(rt_.allOIs(), now);
        for (unsigned c = 0; c < cores_.size(); ++c)
            rt_.core(static_cast<CoreId>(c)).decision = plan[c];
        ++plans_published_;
        OCCAMY_LOG(now, "LaneMgr", "plan: c0=%u c1=%u", plan[0],
                   plan.size() > 1 ? plan[1] : 0);
    }

    // The EM-SIMD data path decodes 2 instructions per cycle (Fig. 5),
    // in order per core.
    unsigned budget = 2;
    const unsigned n = static_cast<unsigned>(cores_.size());
    for (unsigned i = 0; i < n && budget > 0; ++i) {
        const CoreId c = static_cast<CoreId>((now + i) % n);
        CoreState &cs = cores_[c];
        while (budget > 0 && !cs.emq.empty()) {
            if (!execEmSimd(c, cs.emq.front(), now))
                break;      // Head is waiting (e.g. for drain).
            // Count executed instructions, not drain-wait retries of
            // the queue head: a waiting head must be an exact no-op so
            // the fast-forward engine can skip drain cycles.
            ++em_insts_;
            cs.emq.pop_front();
            --budget;
        }
    }
}

std::uint64_t
CoProcessor::computeIssued(CoreId c) const
{
    return cores_[c].computeIssued;
}

std::uint64_t
CoProcessor::memIssued(CoreId c) const
{
    return cores_[c].memIssued;
}

std::uint64_t
CoProcessor::computeIssuedInPhase(CoreId c, unsigned phase) const
{
    const auto &v = cores_[c].phaseCompute;
    return phase < v.size() ? v[phase] : 0;
}

std::uint64_t
CoProcessor::renameRegStallCycles(CoreId c) const
{
    return cores_[c].regStallCycles;
}

std::uint64_t
CoProcessor::renameOtherStallCycles(CoreId c) const
{
    return cores_[c].otherStallCycles;
}

void
CoProcessor::regStats(stats::Group &group) const
{
    group.addCounter("vl_switches", &vl_switches_,
                     "successful vector-length reconfigurations");
    group.addCounter("em_insts", &em_insts_,
                     "EM-SIMD instructions executed");
    group.addCounter("plans_published", &plans_published_,
                     "lane-partition plans published");
    group.addCounter("lane_faults", &lane_faults_,
                     "ExeBU hard faults applied");
    for (unsigned c = 0; c < cores_.size(); ++c) {
        const std::string p = "core" + std::to_string(c) + ".";
        group.addFormula(p + "compute_issued",
                         [this, c] {
                             return static_cast<double>(
                                 cores_[c].computeIssued);
                         },
                         "SIMD compute instructions issued");
        group.addFormula(p + "mem_issued",
                         [this, c] {
                             return static_cast<double>(
                                 cores_[c].memIssued);
                         },
                         "SIMD ld/st instructions issued");
        group.addFormula(p + "rename_reg_stall_cycles",
                         [this, c] {
                             return static_cast<double>(
                                 cores_[c].regStallCycles);
                         },
                         "cycles renaming blocked on free registers");
    }
}

namespace
{

template <class Ar>
void
instIo(Ar &ar, DynInst &d)
{
    ar.u16(d.op);
    ar.u16(d.core);
    ar.u64(d.seq);
    ar.u16(d.phaseId);
    ar.i64(d.dstArch);
    for (std::int16_t &a : d.srcArch)
        ar.i64(a);
    ar.u8(d.nsrc);
    ar.u16(d.vlBus);
    ar.u16(d.activeLanes);
    ar.u16(d.activeElems);
    ar.u64(d.addr);
    ar.u32(d.bytes);
    ar.i64(d.stride);
    ar.u8(d.elemBytes);
    d.oi.io(ar);
    ar.u32(d.imm);
    ar.b(d.vlFromDecision);
    ar.i64(d.dstPhys);
    ar.i64(d.prevPhys);
    for (std::int32_t &p : d.srcPhys)
        ar.i64(p);
    ar.u64(d.enqueueCycle);
    ar.u64(d.readyCycle);
    ar.b(d.issued);
    ar.b(d.completed);
}

/** A bounded pipeline queue; a stored length beyond the configured
 *  capacity is rejected before any element is read. */
template <class Ar>
void
instSeqIo(Ar &ar, InstRing &seq)
{
    ar.seq(seq, [&](DynInst &d) { instIo(ar, d); }, seq.capacity());
}

} // namespace

template <class Ar>
[[gnu::cold]] void
CoProcessor::io(Ar &ar)
{
    ar.section("coproc");
    rt_.io(ar);
    dispatch_cfg_.io(ar);
    regfile_cfg_.io(ar);
    regfile_.io(ar);
    lane_mgr_.io(ar);

    ar.len(cores_.size(), "checkpoint co-processor core count mismatch");
    for (CoreState &cs : cores_) {
        instSeqIo(ar, cs.pool);
        instSeqIo(ar, cs.rob);
        ar.u64(cs.robBase);
        ar.seq(cs.iq, [&](SeqNum &s) { ar.u64(s); });
        cs.lsu.io(ar);
        instSeqIo(ar, cs.emq);
        ar.b(cs.vlReq.resolved);
        ar.b(cs.vlReq.ok);
        ar.u64(cs.cfgDelayUntil);
        ar.u64(cs.computeIssued);
        ar.u64(cs.memIssued);
        ar.seq(cs.phaseCompute, [&](std::uint64_t &v) { ar.u64(v); });
        ar.u64(cs.regStallCycles);
        ar.u64(cs.otherStallCycles);
    }

    ar.len(busy_lanes_.size(), "checkpoint busy-lane vector size mismatch");
    for (unsigned &b : busy_lanes_)
        ar.u32(b);
    ar.u32(rr_start_);

    ar.u64(vl_switches_);
    ar.u64(em_insts_);
    ar.u64(plans_published_);
    ar.u64(lane_faults_);

    if constexpr (Ar::kLoading)
        rebuildIssueTracking();
}
OCCAMY_CKPT_IO(CoProcessor);

void
CoProcessor::rebuildIssueTracking()
{
    // Runs before the checksum trailer is verified, so every value it
    // indexes with is checked rather than trusted.
    waiters_.assign(regfile_.physCount(), {});
    wakeups_.clear();
    for (unsigned c = 0; c < cores_.size(); ++c) {
        CoreState &cs = cores_[c];
        cs.ready.clear();
        SeqNum prev = 0;
        for (std::size_t i = 0; i < cs.iq.size(); ++i) {
            const SeqNum seq = cs.iq[i];
            ckpt::Reader::check(seq >= cs.robBase &&
                                    seq - cs.robBase < cs.rob.size() &&
                                    (i == 0 || seq > prev),
                                "checkpoint issue queue out of order or "
                                "outside the ROB");
            prev = seq;
            DynInst &inst = robEntry(cs, seq);
            ckpt::Reader::check(inst.seq == seq && !inst.issued &&
                                    (inst.isCompute() || inst.isMem()) &&
                                    inst.nsrc <= inst.srcPhys.size(),
                                "checkpoint issue-queue entry corrupt");
            for (unsigned k = 0; k < inst.nsrc; ++k)
                ckpt::Reader::check(inst.srcPhys[k] <
                                        static_cast<std::int64_t>(
                                            regfile_.physCount()),
                                    "checkpoint source register out of "
                                    "range");
            // Loads go straight onto the ready list; every other entry
            // waits on its sources or in the heap until the first issue
            // stage after restore drains it.
            track(static_cast<CoreId>(c), inst, 0);
        }
    }
}

std::string
CoProcessor::issueTrackingError(Cycle now) const
{
    std::size_t pending_total = 0;
    for (unsigned c = 0; c < cores_.size(); ++c) {
        const CoreState &cs = cores_[c];
        const std::string where = "core" + std::to_string(c) + ": ";
        if (std::adjacent_find(cs.ready.begin(), cs.ready.end(),
                               std::greater_equal<>{}) != cs.ready.end())
            return where + "ready list not in strict age order";
        if (std::adjacent_find(cs.iq.begin(), cs.iq.end(),
                               std::greater_equal<>{}) != cs.iq.end())
            return where + "IQ not in strict age order";
        for (SeqNum seq : cs.ready)
            if (!std::binary_search(cs.iq.begin(), cs.iq.end(), seq))
                return where + "ready entry " + std::to_string(seq) +
                       " is not in the IQ";
        for (SeqNum seq : cs.iq) {
            const std::string entry =
                where + "entry " + std::to_string(seq) + ": ";
            const DynInst &d =
                cs.rob[static_cast<std::size_t>(seq - cs.robBase)];
            const bool in_ready =
                std::binary_search(cs.ready.begin(), cs.ready.end(), seq);
            std::size_t in_heap = 0;
            for (const Wakeup &w : wakeups_) {
                if (w.ref.core != c || w.ref.seq != seq)
                    continue;
                ++in_heap;
                if (w.at <= now || w.at != operandsReadyAt(d))
                    return entry + "heap key " + std::to_string(w.at) +
                           " is stale";
            }
            if (in_ready + in_heap + (d.pendingSrcs > 0) != 1)
                return entry + "not tracked exactly once";
            // Pending sources: the unproduced ones, each with this
            // entry on its wakeup list once per use.
            unsigned pending = 0;
            if (d.isCompute() || d.isStore()) {
                for (unsigned i = 0; i < d.nsrc; ++i) {
                    const std::int32_t p = d.srcPhys[i];
                    if (p < 0 || regfile_.readyAt(p) != kCycleNever)
                        continue;
                    ++pending;
                    const auto &list = waiters_[static_cast<std::size_t>(p)];
                    const auto listed = std::count_if(
                        list.begin(), list.end(), [&](const IqRef &w) {
                            return w.core == c && w.seq == seq;
                        });
                    const auto uses = std::count(
                        d.srcPhys.begin(), d.srcPhys.begin() + d.nsrc, p);
                    if (listed != uses)
                        return entry + "missing from the wakeup list of "
                                       "register " + std::to_string(p);
                }
            }
            if (pending != d.pendingSrcs)
                return entry + "pending-source count " +
                       std::to_string(d.pendingSrcs) + ", expected " +
                       std::to_string(pending);
            if (in_ready && operandsReadyAt(d) > now + 1)
                return entry + "on the ready list before its operands";
            pending_total += pending;
        }
    }
    std::size_t listed_total = 0;
    for (const auto &list : waiters_)
        listed_total += list.size();
    if (listed_total != pending_total)
        return "wakeup lists hold " + std::to_string(listed_total) +
               " entries for " + std::to_string(pending_total) +
               " pending sources";
    return {};
}

void
CoProcessor::printState(std::ostream &os, const std::string &what) const
{
    if (what == "rt") {
        os << "al " << rt_.al() << '\n'
           << "usable_bus " << rt_.usableBus() << '\n'
           << "faulted " << rt_.faulted() << '\n';
        for (CoreId c = 0; c < static_cast<CoreId>(cores_.size()); ++c) {
            const auto &pc = rt_.core(c);
            os << "core" << c << ".vl " << pc.vl << '\n'
               << "core" << c << ".decision " << pc.decision << '\n'
               << "core" << c << ".status " << (pc.status ? 1 : 0) << '\n'
               << "core" << c << ".oi.issue " << pc.oi.issue << '\n'
               << "core" << c << ".oi.mem " << pc.oi.mem << '\n';
        }
        return;
    }
    if (what == "lanemgr") {
        os << "total_bus " << lane_mgr_.totalBus() << '\n'
           << "plan_ready_at " << lane_mgr_.planReadyAt() << '\n'
           << "plans_made " << lane_mgr_.plansMade() << '\n';
        return;
    }
    if (what == "regfile") {
        os << "shared " << (regfile_.shared() ? 1 : 0) << '\n';
        for (CoreId c = 0; c < static_cast<CoreId>(cores_.size()); ++c)
            os << "core" << c << ".free_rows " << regfile_.freeCount(c)
               << '\n';
        return;
    }
    if (!what.empty()) {
        // Decimal core id: that core's pipeline occupancy.
        const std::size_t c = std::stoul(what);
        if (c >= cores_.size())
            throw std::out_of_range("no such core: " + what);
        const CoreState &cs = cores_[c];
        const auto scheduled = std::count_if(
            wakeups_.begin(), wakeups_.end(),
            [c](const Wakeup &w) { return w.ref.core == c; });
        const auto waiting = std::count_if(
            cs.iq.begin(), cs.iq.end(), [&cs](SeqNum seq) {
                return cs.rob[static_cast<std::size_t>(seq - cs.robBase)]
                           .pendingSrcs > 0;
            });
        os << "pool " << cs.pool.size() << '\n'
           << "rob " << cs.rob.size() << '\n'
           << "rob_base " << cs.robBase << '\n'
           << "iq " << cs.iq.size() << '\n'
           << "iq_ready " << cs.ready.size() << '\n'
           << "iq_scheduled " << scheduled << '\n'
           << "iq_waiting " << waiting << '\n'
           << "emq " << cs.emq.size() << '\n'
           << "lq " << cs.lsu.loadQueueOccupancy() << '\n'
           << "sq " << cs.lsu.storeQueueOccupancy() << '\n'
           << "compute_issued " << cs.computeIssued << '\n'
           << "mem_issued " << cs.memIssued << '\n'
           << "vl " << rt_.core(static_cast<CoreId>(c)).vl << '\n';
        return;
    }
    os << "cores " << cores_.size() << '\n'
       << "free_bus " << rt_.al() << '\n'
       << "usable_bus " << rt_.usableBus() << '\n'
       << "rr_start " << rr_start_ << '\n'
       << "vl_switches " << vl_switches_.value() << '\n'
       << "em_insts " << em_insts_.value() << '\n'
       << "plans_published " << plans_published_.value() << '\n'
       << "lane_faults " << lane_faults_.value() << '\n';
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        const CoreState &cs = cores_[c];
        os << "core" << c << ".inflight "
           << (cs.pool.size() + cs.rob.size() + cs.emq.size()) << '\n';
    }
}

} // namespace occamy
