/**
 * @file
 * The job front-end (DESIGN.md §18): Section 5's OS layer, i.e. which
 * queued job an idle core takes next, and when. FrontEnd owns every
 * queued job's lifecycle (arrival, admission, placement, completion)
 * and the per-core dispatch state. It knows nothing of the machine:
 * System drives it at fixed points of each ticked cycle, installs the
 * programs it places, and supplies the co-placement score.
 */

#ifndef OCCAMY_SIM_FRONT_END_HH
#define OCCAMY_SIM_FRONT_END_HH

#include <algorithm>
#include <array>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "isa/inst.hh"
#include "obs/sink.hh"
#include "traffic/admission.hh"
#include "traffic/metrics.hh"
#include "traffic/scheduler.hh"
#include "traffic/traffic.hh"

namespace occamy
{

class ClusterArbiter;

/** Queued work and the disciplines that release and place it, as
 *  configured on a System before boot. */
struct JobQueue
{
    /** Queue order; plain enqueueWorkload entries carry only a name
     *  and loops (available at cycle 0, no tenant, no deadline). */
    std::vector<traffic::Arrival> entries;
    /** Any arrival was enqueued; gates every traffic-side artifact so
     *  traffic-off runs stay byte-identical. */
    bool hasTraffic = false;
    const traffic::Dispatcher *dispatcher = nullptr;   ///< Null = fcfs.
    /** Null = no admission layer (see System::setAdmission). */
    const traffic::AdmissionPolicy *admission = nullptr;
    unsigned admissionCap = 4;
    Cycle admissionRefill = 0;
};

/** One booted run's job front-end; all of its state is simulated state
 *  and travels in checkpoints (ioDispatch, ioJobs). */
class FrontEnd
{
  public:
    /** Normalized machine progress if a job whose first phase has OI
     *  @p cand joins core @p core (OI-scoring dispatchers only). */
    using Score = std::function<double(const PhaseOI &cand, CoreId core)>;

    /**
     * @p cfg is the whole machine, @p view the cluster view first-phase
     * OIs are analyzed against. @p queue, @p cfg, @p sink and
     * @p arbiter (null on flat machines) are borrowed for the run.
     */
    FrontEnd(const JobQueue &queue, const MachineConfig &cfg,
             const MachineConfig &view, obs::EventSink *sink,
             ClusterArbiter *arbiter);

    /** Arrivals whose effective cycle has come, then admission verdicts
     *  due at @p now; runs before any placement decision of the cycle.
     *  The guards stay inline so quiet cycles pay no call. */
    void release(Cycle now)
    {
        if (next_arrival_ <= now)
            arrive(now);
        if (next_admission_ <= now)
            admit(now);
    }

    /** Queue entry whose context switch onto @p c completes at @p now,
     *  else traffic::kNoJob. */
    std::size_t due(CoreId c, Cycle now) const
    {
        return dispatch_at_[c] <= now ? pending_wl_[c] : traffic::kNoJob;
    }

    /** The entry due() named now runs on @p c. */
    void started(CoreId c, Cycle now);

    /** @p c is in a context switch towards a placed entry. */
    bool switching(CoreId c) const
    {
        return dispatch_at_[c] != kCycleNever;
    }

    /** Every entry was placed or shed: idle cores are finished. */
    bool exhausted() const { return undispatched_ == 0; }

    /** Core @p c went idle at @p now: close the lifecycle of the
     *  traffic job it ran (SLO check, closed-loop successor release,
     *  admission bookkeeping). */
    void complete(CoreId c, Cycle now);

    /** Pick the next entry for idle core @p c through the dispatcher
     *  (home-cluster entries first on clustered batch runs) and start
     *  its context switch; the core stays idle if none is ready. */
    void place(Cycle now, CoreId c, const Score &score);

    // --- Wake candidates (fast-forward): state changes no component
    // probe can see.

    /** Cycle @p c's context switch completes (kCycleNever = none). */
    Cycle dispatchAt(CoreId c) const { return dispatch_at_[c]; }

    /** Next effective arrival. Unresolved closed-loop arrivals need no
     *  candidate: their predecessor still runs, so a component event
     *  precedes their resolution. */
    Cycle arrivalWake(Cycle at) const
    {
        return unarrived_ > 0 ? std::max(next_arrival_, at + 1)
                              : kCycleNever;
    }

    /** Next admission re-evaluation: a deferred job's backoff expiry
     *  or a fresh arrival's first verdict. */
    Cycle admissionWake(Cycle at) const
    {
        return next_admission_ != kCycleNever
                   ? std::max(next_admission_, at + 1)
                   : kCycleNever;
    }

    bool hasTraffic() const { return traffic_; }
    bool admitting() const { return admission_ != nullptr; }
    /** Always false without an admission policy. */
    bool overloaded() const { return overloaded_; }
    std::size_t undispatched() const { return undispatched_; }

    /** What core @p c runs or is about to run, for placement scores
     *  (the resource table lags behind pending dispatches). */
    const PhaseOI &scheduledOi(unsigned c) const { return sched_oi_[c]; }

    // --- Results (zero or empty when the layer they count is off).

    /** One lifecycle record per entry; empty without traffic. */
    std::vector<traffic::JobRecord> records() const;
    std::uint64_t sloViolations() const { return slo_violations_; }
    std::uint64_t shed() const { return shed_total_; }
    std::uint64_t deferrals() const { return defer_total_; }
    std::uint64_t overloadEnters() const { return overload_enters_; }

    /** The traffic and admission formulas of the "system.run" group. */
    void addStats(stats::Group &run) const;

    /** The traffic and admission lines of `inspect system`. */
    void inspect(std::ostream &os) const;

    /** Checkpoint fields inside System's "engine" section. */
    template <class Ar> void ioDispatch(Ar &ar);
    /** The "traffic" and "admit" sections, each present only when its
     *  layer is on. */
    template <class Ar> void ioJobs(Ar &ar);

  private:
    /** Per-entry lifecycle state. */
    struct Job
    {
        Cycle arrive = 0;           ///< Effective; kCycleNever = unresolved.
        Cycle admitAt = kCycleNever;    ///< Dispatch decision cycle.
        Cycle doneAt = kCycleNever;     ///< Completion cycle.
        Cycle deferUntil = 0;           ///< Admission backoff expiry.
        std::size_t dependent = traffic::kNoJob; ///< Closed-loop successor.
        PhaseOI oi;         ///< First phase (OI-scoring dispatchers).
        std::uint32_t defers = 0;
        bool arrived = true;        ///< Dispatchable (traffic runs wait).
        bool dispatched = false;    ///< Placed on a core, or shed.
        bool latched = false;       ///< Admission granted (one-time).
        bool shed = false;          ///< Rejected permanently.
    };

    /** Per-tenant admission state. */
    struct Tenant
    {
        unsigned inflight = 0;      ///< Latched, unfinished.
        std::uint64_t tokens = 0;
        Cycle lastRefill = 0;
    };

    void arrive(Cycle now);
    void admit(Cycle now);
    /** Entry @p q's closed-loop successor arrives after its think time:
     *  on completion and on a shed alike, the client carries on. */
    void releaseSuccessor(std::size_t q, Cycle now);
    /** Dispatchable: unplaced, arrived, and (under admission) latched.
     *  Shed entries count as dispatched. */
    bool available(const Job &j) const
    {
        return !j.dispatched && j.arrived && (!admission_ || j.latched);
    }
    std::size_t select(Cycle now, CoreId c, const Score &score) const;
    /** Service EMA of workload class @p cls (null if unknown). */
    Cycle *classEma(const std::string &cls);
    Cycle delayP95() const;
    void updateOverload(Cycle now);

    // Configuration, fixed at boot: later System setter calls apply
    // to the next boot only.
    const JobQueue &queue_;
    const MachineConfig &cfg_;
    obs::EventSink *sink_;
    ClusterArbiter *arbiter_;
    const bool traffic_;
    const traffic::Dispatcher *dispatcher_;
    /** Null unless the run has traffic and a policy is installed. */
    const traffic::AdmissionPolicy *admission_;
    const unsigned cap_;        ///< Admission knob.

    std::vector<Job> jobs_;
    std::size_t undispatched_ = 0;
    std::size_t unarrived_ = 0;
    Cycle next_arrival_ = kCycleNever;  ///< Min arrive, unarrived.
    std::uint64_t slo_violations_ = 0;

    // Per core.
    std::vector<Cycle> dispatch_at_;
    std::vector<std::size_t> pending_wl_;
    std::vector<PhaseOI> sched_oi_;
    std::vector<std::size_t> core_job_;  ///< Traffic entry running.

    // Admission control.
    std::vector<Tenant> tenants_;
    Cycle refill_period_ = 0;   ///< Cycles per token; 0 = no tokens.
    std::size_t ready_ = 0;     ///< Arrived, not dispatched/shed.
    bool overloaded_ = false;
    std::uint64_t overload_enters_ = 0;
    std::uint64_t shed_total_ = 0;
    std::uint64_t defer_total_ = 0;
    /** Ring of the last 32 queueing delays (p95 detector input). */
    std::array<Cycle, 32> delay_ring_{};
    std::uint32_t delay_n_ = 0;     ///< Total delays ever pushed.
    /** Per-workload-class service EMA, sorted by class name for a
     *  deterministic checkpoint order. */
    std::vector<std::pair<std::string, Cycle>> class_ema_;
    Cycle mean_ema_ = 0;
    /** Earliest cycle an admission verdict can change without any
     *  other wake: a backoff expiry or a fresh arrival. Token refills
     *  are lazy (computed when a verdict is taken) and never a wake
     *  of their own. Recomputed from scratch by every verdict pass. */
    Cycle next_admission_ = kCycleNever;
};

} // namespace occamy

#endif // OCCAMY_SIM_FRONT_END_HH
