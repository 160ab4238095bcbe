/**
 * @file
 * LaneMgr: the hardware lane-partitioning manager (Section 5).
 *
 * LaneMgr monitors MSR writes to <OI> (phase-changing points). On each
 * such event it gathers the co-running workloads' phase behaviours and,
 * after a fixed re-planning latency, publishes a new lane-partition plan
 * into the per-core <decision> registers of the resource table.
 */

#ifndef OCCAMY_LANEMGR_LANEMGR_HH
#define OCCAMY_LANEMGR_LANEMGR_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "lanemgr/partitioner.hh"
#include "lanemgr/roofline.hh"
#include "obs/sink.hh"

namespace occamy
{

/** The hardware lane manager embedded in the co-processor's Manager. */
class LaneMgr
{
  public:
    /**
     * @param params Roofline ceilings of this machine.
     * @param total_bus ExeBUs available for partitioning.
     * @param latency Cycles from phase event to plan publication.
     */
    LaneMgr(const RooflineParams &params, unsigned total_bus,
            unsigned latency)
        : params_(params), total_bus_(total_bus), latency_(latency)
    {
    }

    /**
     * A phase-changing point was observed (some core wrote <OI>).
     * Schedules a re-plan completing at now + latency.
     */
    void notifyPhaseEvent(Cycle now) { plan_ready_at_ = now + latency_; }

    /** @return true if a scheduled re-plan completes at/before @p now. */
    bool planDue(Cycle now) const
    {
        return plan_ready_at_ != kCycleNever && now >= plan_ready_at_;
    }

    /** Cycle the pending re-plan publishes (kCycleNever when none is
     *  scheduled). Wake event for the fast-forward engine: a plan
     *  publication changes partition state even if every pipeline is
     *  otherwise drained. */
    Cycle planReadyAt() const { return plan_ready_at_; }

    /**
     * Produce the plan for the current <OI> values.
     *
     * @param ois Per-core operational intensities from the resource
     *        table (inactive phases have OI == 0).
     * @param now Cycle of the plan (trace timestamping only).
     * @return ExeBUs per core.
     */
    std::vector<unsigned>
    makePlan(const std::vector<PhaseOI> &ois, Cycle now = 0)
    {
        plan_ready_at_ = kCycleNever;
        ++plans_made_;
        auto plan = greedyPartition(params_, ois, total_bus_);
        if (sink_ && sink_->wants(obs::EventKind::PartitionDecision))
            recordPlan(ois, plan, now);
        return plan;
    }

    /** Attach/detach the trace sink (null = tracing off). */
    void setEventSink(obs::EventSink *sink) { sink_ = sink; }

    /** An ExeBU hard fault shrank the machine: partition over
     *  @p usable_bus from now on (greedy roofline re-runs on the
     *  degraded pool at the next plan publication). */
    void degrade(unsigned usable_bus) { total_bus_ = usable_bus; }

    std::uint64_t plansMade() const { return plans_made_.value(); }
    const RooflineParams &params() const { return params_; }
    unsigned totalBus() const { return total_bus_; }

    /** Checkpoint state (src/ckpt/components.cc): pending-plan timer,
     *  fault-degraded pool size and the plan counter. */
    template <class Ar> void io(Ar &ar);

  private:
    /** Trace one published plan: per active core a roofline
     *  evaluation with its marginal-gain pair (Eq. 2-4 inputs), per
     *  core the published share, then the plan summary. */
    void
    recordPlan(const std::vector<PhaseOI> &ois,
               const std::vector<unsigned> &plan, Cycle now)
    {
        unsigned used = 0;
        for (std::size_t c = 0; c < plan.size(); ++c) {
            const CoreId core = static_cast<CoreId>(c);
            if (ois[c].active())
                obs::note(sink_, obs::EventKind::RooflineEval, now, core,
                          static_cast<std::uint64_t>(ois[c].level), plan[c],
                          attainable(params_, ois[c], plan[c]),
                          attainable(params_, ois[c], plan[c] + 1));
            obs::note(sink_, obs::EventKind::PartitionDecision, now, core, 0,
                      plan[c]);
            used += plan[c];
        }
        obs::note(sink_, obs::EventKind::PartitionPlan, now, kNoCore, used,
                  total_bus_);
    }

    RooflineParams params_;
    unsigned total_bus_;
    unsigned latency_;
    Cycle plan_ready_at_ = kCycleNever;
    stats::Counter plans_made_;
    obs::EventSink *sink_ = nullptr;    ///< Borrowed, may be null.
};

} // namespace occamy

#endif // OCCAMY_LANEMGR_LANEMGR_HH
