#include "runner/build.hh"

#include <stdexcept>

#include "policy/sharing_model.hh"
#include "traffic/admission.hh"
#include "traffic/scheduler.hh"

namespace occamy::runner
{

void
build(const JobSpec &spec, BuiltRun &out)
{
    if (spec.traceEvents != 0) {
        out.sink = std::make_unique<obs::RingSink>(spec.traceCapacity,
                                                   spec.traceEvents);
        out.opt.sink = out.sink.get();
    }
    out.sys = std::make_unique<System>(spec.cfg);
    System &sys = *out.sys;
    // System::setWorkload range-checks the core id, so a spec with
    // more slots than cores fails here.
    for (std::size_t c = 0; c < spec.workloads.size(); ++c)
        sys.setWorkload(static_cast<CoreId>(c), spec.workloads[c].first,
                        spec.workloads[c].second);
    for (const auto &[name, loops] : spec.batch)
        sys.enqueueWorkload(name, loops);
    // The arrival stream is a pure function of the traffic config, so
    // the same spec yields the same arrivals on any thread.
    if (spec.traffic.enabled()) {
        const traffic::TrafficConfig &tc = spec.traffic;
        const traffic::Dispatcher *disp =
            traffic::dispatcherByName(tc.scheduler);
        if (!disp)
            throw std::invalid_argument("unknown traffic scheduler: " +
                                        tc.scheduler);
        for (const traffic::Arrival &a : traffic::generate(tc))
            sys.enqueueArrival(a);
        sys.setDispatcher(disp);
        // "none" (the default) installs nothing at all, keeping the
        // run byte-identical to pre-admission builds.
        if (tc.admissionEnabled()) {
            const traffic::AdmissionPolicy *adm =
                traffic::admissionByName(tc.admission);
            if (!adm)
                throw std::invalid_argument("unknown admission policy: " +
                                            tc.admission);
            if (tc.admissionCap < 1)
                throw std::invalid_argument("admission cap must be >= 1");
            sys.setAdmission(adm, tc.admissionCap,
                             static_cast<Cycle>(tc.meanGapCycles));
            out.hasAdmission = true;
        }
    }

    RunOptions &o = out.opt;
    o.maxCycles = spec.maxCycles;
    o.bucket = spec.bucket;
    o.snapshotEvery = spec.snapshotEvery;
    o.fastForward = spec.fastForward;
    o.watchdogCycles = spec.watchdogCycles;
    o.wallClockLimitSec = spec.wallClockLimitSec;
    o.checkpointOut = spec.checkpointOut;
    o.checkpointEvery = spec.checkpointEvery;
    o.simThreads = spec.simThreads;
    o.ffStats = &out.ff;
    if (!spec.faultPlan.empty())
        out.plan = fault::FaultPlan::parse(spec.faultPlan);
    else if (spec.faultSeed)
        out.plan = fault::FaultPlan::random(spec.faultSeed, spec.cfg);
    if (!out.plan.empty())
        o.faultPlan = &out.plan;
}

MachineConfig
machineFor(SharingPolicy policy, unsigned clusters,
           unsigned cores_per_cluster)
{
    if (clusters == 1)
        return MachineConfig::forPolicy(policy, cores_per_cluster);
    return MachineConfig::Builder(policy)
        .topology(clusters, cores_per_cluster)
        .build();
}

void
addRunOptions(cliopts::OptionSet &set, JobSpec &spec, unsigned &clusters,
              unsigned &cores_per_cluster)
{
    set.custom("topology", "CxK",
               "C co-processor clusters of K cores each (default\n"
               "1x2); clustered machines add the inter-cluster\n"
               "bandwidth arbiter and work migration",
               [&clusters, &cores_per_cluster](const std::string &v,
                                               std::string &err) {
                   return cliopts::parseTopology(v, clusters,
                                                 cores_per_cluster, err);
               })
        .value("max-cycles", &spec.maxCycles, "N",
               "simulation cap (default 4e7)")
        .value("snapshot-every", &spec.snapshotEvery, "N",
               "metric snapshot each N cycles, rendered as counter\n"
               "tracks in the Chrome trace")
        .onOff("fast-forward", &spec.fastForward,
               "skip quiescent cycle spans (default on; results are\n"
               "identical either way)")
        .value("fault-plan", &spec.faultPlan, "S",
               "deterministic fault plan, entries ';'-joined:\n"
               "lane@CYC:bu=N | vldeny@CYC+DUR:core=N |\n"
               "dram@CYC+DUR:lat=N,bw=N |\n"
               "cfgdelay@CYC+DUR:core=N,cycles=N")
        .value("fault-seed", &spec.faultSeed, "N",
               "seeded random fault plan (ignored when --fault-plan\n"
               "is given); same seed, same plan")
        .value("watchdog-cycles", &spec.watchdogCycles, "N",
               "escalate a <VL> retry spin older than N cycles to\n"
               "the scalar fallback (default off)")
        .value("sim-threads", &spec.simThreads, "N",
               "tick clustered machines with N worker threads between\n"
               "deterministic horizons; results are byte-identical\n"
               "for any N (default 1 = serial)");
}

void
copyRunOptions(const JobSpec &from, JobSpec &to)
{
    to.maxCycles = from.maxCycles;
    to.snapshotEvery = from.snapshotEvery;
    to.fastForward = from.fastForward;
    to.faultPlan = from.faultPlan;
    to.faultSeed = from.faultSeed;
    to.watchdogCycles = from.watchdogCycles;
    to.simThreads = from.simThreads;
}

bool
parsePolicy(const std::string &name, SharingPolicy &out, std::string &err)
{
    if (const policy::SharingModel *m = policy::modelByName(name)) {
        out = m->id();
        return true;
    }
    err = "unknown policy: " + name + " (see --list-policies)";
    return false;
}

} // namespace occamy::runner
