/**
 * @file
 * The one path from a run description to a ready simulation.
 *
 * A runner::JobSpec is the only description of a run. build() turns
 * it into a System plus the RunOptions it runs under and the storage
 * those options borrow; Runner::runOne and occamy-serve both go
 * through it, so a spec means the same simulation everywhere. The
 * option rows the tools share (--max-cycles, --fault-plan,
 * --topology, ...) bind onto a JobSpec here, once, together with the
 * small catalog helpers every tool needs.
 */

#ifndef OCCAMY_RUNNER_BUILD_HH
#define OCCAMY_RUNNER_BUILD_HH

#include <memory>
#include <string>
#include <vector>

#include "common/cliopts.hh"
#include "fault/fault.hh"
#include "runner/runner.hh"

namespace occamy::runner
{

/**
 * A System built from one JobSpec, not yet booted, with the options
 * it runs under and what they borrow. Neither copyable nor movable:
 * `opt` points into it.
 */
struct BuiltRun
{
    fault::FaultPlan plan;                  ///< Behind opt.faultPlan.
    std::unique_ptr<obs::RingSink> sink;    ///< Behind opt.sink.
    FastForwardStats ff;                    ///< Behind opt.ffStats.
    RunOptions opt;
    std::unique_ptr<System> sys;
    bool hasAdmission = false;  ///< An admission policy is installed.

    BuiltRun() = default;
    BuiltRun(const BuiltRun &) = delete;
    BuiltRun &operator=(const BuiltRun &) = delete;
};

/**
 * Build @p spec into @p out: machine, pinned workloads, batch queue,
 * traffic stream with its dispatcher and admission policy, fault plan
 * and event sink (a RingSink only when spec.traceEvents != 0). The
 * System is left unbooted so the caller may run(), boot() or
 * restoreCheckpoint() it. Throws std::exception on a bad spec (an
 * unknown traffic process, scheduler or admission policy, a cap
 * below 1, a malformed fault plan, more workloads than cores);
 * whatever was built before the throw stays in @p out.
 */
void build(const JobSpec &spec, BuiltRun &out);

/**
 * Machine for @p policy with @p clusters co-processor clusters of
 * @p cores_per_cluster cores. A flat machine (one cluster) is the
 * MachineConfig::forPolicy preset byte-for-byte.
 */
MachineConfig machineFor(SharingPolicy policy, unsigned clusters,
                         unsigned cores_per_cluster);

/**
 * Register the option rows the tools share onto @p set: max-cycles,
 * watchdog-cycles, fault-plan, fault-seed, snapshot-every,
 * fast-forward and sim-threads bind to the same-named @p spec fields;
 * topology (CxK) sets @p clusters and @p cores_per_cluster.
 */
void addRunOptions(cliopts::OptionSet &set, JobSpec &spec,
                   unsigned &clusters, unsigned &cores_per_cluster);

/** Copy the fields addRunOptions binds (all but the topology) from
 *  @p from onto @p to. */
void copyRunOptions(const JobSpec &from, JobSpec &to);

/** Resolve a registered policy name or alias; false with @p err set
 *  ("unknown policy: ...") otherwise. */
bool parsePolicy(const std::string &name, SharingPolicy &out,
                 std::string &err);

} // namespace occamy::runner

#endif // OCCAMY_RUNNER_BUILD_HH
