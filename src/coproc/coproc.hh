/**
 * @file
 * The Occamy SIMD co-processor micro-architecture (Section 4, Fig. 5).
 *
 * One CoProcessor instance serves all scalar cores. Per cycle, in
 * back-to-front stage order: commit (per-core ROBs), issue (compute to
 * the owned ExeBUs, ld/st to the LSUs), rename (instruction pool ->
 * IQ/ROB, allocating physical rows), and the Manager's EM-SIMD data
 * path (ResourceTbl updates, LaneMgr plans, vector-length
 * reconfiguration with pipeline-drain semantics, Section 4.2.2).
 *
 * The sharing policies map onto the same structures; every
 * policy-conditional behavior (boot ownership, issue eligibility,
 * drain rules, <VL> resolution) is delegated to the config's
 * policy::SharingModel:
 *  - Private: ExeBUs/RegBlks statically owned, per-core issue budgets;
 *  - FTS: no ownership, full-width execution, *shared* issue budgets
 *    and one shared full-width physical register pool;
 *  - VLS: static ownership from a boot-time plan;
 *  - Elastic (Occamy): ownership retargeted at run time by EM-SIMD
 *    instructions under LaneMgr guidance;
 *  - extensions (e.g. VLS-WC) plug in via the policy registry.
 */

#ifndef OCCAMY_COPROC_COPROC_HH
#define OCCAMY_COPROC_COPROC_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "coproc/dyninst.hh"
#include "coproc/inst_ring.hh"
#include "coproc/lsu.hh"
#include "coproc/regfile.hh"
#include "coproc/tables.hh"
#include "lanemgr/lanemgr.hh"
#include "mem/memsystem.hh"
#include "obs/sink.hh"
#include "policy/sharing_model.hh"

namespace occamy
{

namespace fault
{
class FaultInjector;
}

/** Result of a front-end poll on an outstanding <VL> write. */
struct VlRequestStatus
{
    bool resolved = false;
    bool ok = false;
};

/** The shared SIMD co-processor. */
class CoProcessor
{
  public:
    CoProcessor(const MachineConfig &cfg, MemSystem &mem);

    // --- Front-end interface (scalar cores push work in). ---

    /** @return true if core @p c's instruction pool has space. */
    bool canEnqueue(CoreId c) const;

    /** Enqueue a retired SVE instruction into the instruction pool. */
    void enqueue(DynInst inst);

    /** @return true if the EM-SIMD queue of core @p c has space. */
    bool canEnqueueEmSimd(CoreId c) const;

    /** Enqueue an EM-SIMD instruction (separate in-order data path). */
    void enqueueEmSimd(DynInst inst);

    /** Poll / acknowledge the outcome of an outstanding <VL> write. */
    VlRequestStatus vlRequestStatus(CoreId c) const;
    void ackVlRequest(CoreId c);

    /**
     * Abandon core @p c's outstanding <VL> request (livelock-watchdog
     * escalation): drop the pending MsrVL from the EM-SIMD queue and
     * clear the request latch, leaving the core's current ownership
     * untouched. The core falls back to its scalar loop version (§6).
     */
    void cancelVlRequest(CoreId c);

    // --- Architectural state visible to software (MRS reads). ---
    unsigned currentVl(CoreId c) const { return rt_.core(c).vl; }
    unsigned decision(CoreId c) const { return rt_.core(c).decision; }
    unsigned freeBus() const { return rt_.al(); }
    const ResourceTable &resourceTable() const { return rt_; }

    /** @return true when core @p c has nothing in flight (drained). */
    bool coreDrained(CoreId c) const;

    /** Attach a fault injector (null = fault-free; the default). */
    void setFaultInjector(fault::FaultInjector *inj) { injector_ = inj; }

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Quiescence probe for the fast-forward engine: earliest future
     * cycle (> @p now) at which a tick could change architectural,
     * timing, or observable state — the next ROB head retire, LSU
     * queue release, pool head clearing its transmit-retire gate, IQ
     * entry becoming issueable, EM-SIMD queue progress, or pending
     * lane-partition plan publication. Returns kCycleNever when fully
     * drained. Returning now+1 means "cannot skip"; the probe may be
     * conservative (wake early — an extra tick of a quiescent machine
     * is a no-op) but never optimistic.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Account for @p span skipped quiescent cycles. Ticking a
     * quiescent co-processor is a no-op except under FTS, where the
     * issue stage's round-robin pointer advances every cycle; advance
     * it here so arbitration after a skip matches the ticked run.
     */
    void skipCycles(Cycle span);

    // --- Metrics. ---

    /** Lanes of core @p c that executed compute µops this cycle. */
    unsigned busyLanes(CoreId c) const { return busy_lanes_.at(c); }

    /** Lanes currently allocated to core @p c. */
    unsigned allocatedLanes(CoreId c) const;

    /** Lanes on ExeBUs that still work (hard faults excluded). */
    unsigned usableLanes() const { return rt_.usableBus() * kLanesPerBu; }

    /** ExeBU hard faults applied so far. */
    std::uint64_t laneFaults() const { return lane_faults_.value(); }

    std::uint64_t computeIssued(CoreId c) const;
    std::uint64_t memIssued(CoreId c) const;
    std::uint64_t computeIssuedInPhase(CoreId c, unsigned phase) const;
    std::uint64_t renameRegStallCycles(CoreId c) const;
    std::uint64_t renameOtherStallCycles(CoreId c) const;
    std::uint64_t vlSwitches() const { return vl_switches_.value(); }
    std::uint64_t plansMade() const { return lane_mgr_.plansMade(); }

    void regStats(stats::Group &group) const;

    /** Attach/detach the trace sink (null = tracing off); forwarded
     *  to the embedded LaneMgr. */
    void setEventSink(obs::EventSink *sink)
    {
        sink_ = sink;
        lane_mgr_.setEventSink(sink);
    }

    const MachineConfig &config() const { return cfg_; }

    /** Checkpoint state: tables, regfile, lane manager, and every
     *  per-core pipeline structure (pool/ROB/IQ/LSU/EMQ). */
    template <class Ar> void io(Ar &ar);

    /**
     * Consistency check of the derived issue tracking (wakeup lists,
     * wakeup heap, ready lists) after the tick of cycle @p now: every
     * IQ entry sits in exactly one of {ready list, heap, waiting on
     * sources}, each ready list is an age-ordered subset of its IQ,
     * and pending-source counts match the register file. @return an
     * empty string when consistent, else the first violation.
     */
    std::string issueTrackingError(Cycle now) const;

    /** One-line-per-fact state dump for live inspection. @p what
     *  selects a sub-component: "" (summary), "rt", "lanemgr",
     *  "regfile", or a decimal core id for that core's pipeline. */
    void printState(std::ostream &os, const std::string &what) const;

  private:
    /** EM-SIMD queue depth (Fig. 5's small in-order buffer). */
    static constexpr std::size_t kEmqDepth = 8;

    /** An IQ entry, named by core and sequence number. */
    struct IqRef
    {
        CoreId core;
        SeqNum seq;
    };

    /** An operand-complete IQ entry and the cycle it becomes ready. */
    struct Wakeup
    {
        Cycle at;
        IqRef ref;
        bool operator>(const Wakeup &o) const { return at > o.at; }
    };

    /** Per-core pipeline state. The in-flight instruction queues are
     *  arena-backed rings (coproc/inst_ring.hh): each is bounded by
     *  configuration, so one contiguous allocation at construction
     *  serves the machine's lifetime and the per-cycle stage walks
     *  touch consecutive cache lines instead of chasing deque chunks. */
    struct CoreState
    {
        explicit CoreState(const MachineConfig &cfg)
            : pool(cfg.instPoolEntries), rob(cfg.robEntries), lsu(cfg),
              emq(kEmqDepth)
        {
        }

        InstRing pool;                  ///< Instruction pool (FIFO).
        InstRing rob;                   ///< Renamed, program order.
        SeqNum robBase = 0;             ///< seq of rob.front().
        std::vector<SeqNum> iq;         ///< Awaiting issue, age order.
        /** The IQ entries whose operands are ready, age order: the
         *  only entries the issue stage visits (derived from iq and
         *  the register file, never checkpointed). */
        std::vector<SeqNum> ready;
        std::size_t cursor = 0;         ///< FTS issue scan position.
        Lsu lsu;
        InstRing emq;                   ///< EM-SIMD in-order queue.

        VlRequestStatus vlReq;

        /** Injected reconfiguration delay: a granted resize at the emq
         *  head stalls until this cycle (0 = no delay pending). */
        Cycle cfgDelayUntil = 0;

        std::uint64_t computeIssued = 0;
        std::uint64_t memIssued = 0;
        std::vector<std::uint64_t> phaseCompute;  ///< By phaseId.
        std::uint64_t regStallCycles = 0;
        std::uint64_t otherStallCycles = 0;
    };

    DynInst &robEntry(CoreState &cs, SeqNum seq);

    /** The LSU serving core @p c (one shared LSU under FTS). */
    Lsu &lsuFor(CoreId c);

    /** IQ occupancy relevant to core @p c (machine-wide under FTS). */
    std::size_t iqLoad(CoreId c) const;

    /** Apply ExeBU hard faults due at @p now (top of tick). */
    void applyFaults(Cycle now);

    void commitStage(Cycle now);
    void issueStage(Cycle now);
    void renameStage(Cycle now);
    void managerStage(Cycle now);

    /** Try to issue ROB entry @p seq of core @p c, whose operands are
     *  readable. @return true if it issued this cycle. */
    bool tryIssue(CoreId c, SeqNum seq, Cycle now, unsigned &compute_budget,
                  unsigned &mem_budget);

    /** Try to issue entry @p k of core @p c's ready list; on success
     *  drop it from the ready list and the IQ. */
    bool issueReady(CoreId c, std::size_t k, Cycle now,
                    unsigned &compute_budget, unsigned &mem_budget);

    /** Event-driven issue (DESIGN.md §17): a renamed entry waits on
     *  the wakeup list of every source whose producer has not issued,
     *  then is scheduled for the ready list at the cycle its last
     *  source becomes readable. */
    void track(CoreId c, DynInst &inst, Cycle ready_by);

    /** Cycle from which @p inst may issue as far as operands go. */
    Cycle operandsReadyAt(const DynInst &inst) const;

    /** Put an operand-complete entry on its ready list if it is
     *  readable at @p at <= @p ready_by, else on the wakeup heap. */
    void schedule(IqRef ref, Cycle at, Cycle ready_by);

    /** Producer of @p phys issued at @p now: wake its waiters. */
    void wakeDependents(std::int32_t phys, Cycle now);

    /** Move heap entries due by @p now onto the ready lists. */
    void drainWakeups(Cycle now);

    /** Rebuild the derived issue tracking from the IQs and the
     *  register file (checkpoint restore). */
    void rebuildIssueTracking();

    /** Execute the head EM-SIMD instruction of core @p c.
     *  @return true if it retired (pop it). */
    bool execEmSimd(CoreId c, const DynInst &inst, Cycle now);

    /** @return true if @p inst at the head of core @p c's EM-SIMD
     *  queue would wait (MsrVL pipeline-drain condition, or an armed
     *  injected reconfiguration delay) rather than retire if executed
     *  at @p now. Mirrors execEmSimd's wait paths. */
    bool emHeadWaits(CoreId c, const DynInst &inst, Cycle now) const;

    /** Decode the VL (in BUs) a MsrVL instruction requests: its
     *  immediate, or the core's <decision> register (falling back to
     *  the current <VL> when no decision is published). */
    unsigned vlTarget(CoreId c, const DynInst &inst) const;

    /** Apply a successful vector-length retarget for core @p c. */
    void applyVl(CoreId c, unsigned target, Cycle now = 0);

    MachineConfig cfg_;
    const policy::SharingModel &model_;
    MemSystem &mem_;

    ResourceTable rt_;
    ConfigTable dispatch_cfg_;      ///< ExeBU ownership.
    ConfigTable regfile_cfg_;       ///< RegBlk ownership.
    RegFileModel regfile_;
    LaneMgr lane_mgr_;

    std::vector<CoreState> cores_;
    std::vector<unsigned> busy_lanes_;  ///< Per core, this cycle.

    /** Per physical row: IQ entries waiting for its producer. */
    std::vector<std::vector<IqRef>> waiters_;
    /** Min-heap on Wakeup::at of entries not yet on a ready list. */
    std::vector<Wakeup> wakeups_;

    unsigned rr_start_ = 0;             ///< FTS round-robin pointer.

    stats::Counter vl_switches_;
    stats::Counter em_insts_;
    stats::Counter plans_published_;
    stats::Counter lane_faults_;

    obs::EventSink *sink_ = nullptr;    ///< Borrowed, may be null.
    fault::FaultInjector *injector_ = nullptr;  ///< Borrowed, may be null.
};

} // namespace occamy

#endif // OCCAMY_COPROC_COPROC_HH
