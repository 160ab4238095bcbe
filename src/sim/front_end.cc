#include "sim/front_end.hh"

#include <ostream>

#include "ckpt/ckpt.hh"
#include "kir/analysis.hh"
#include "lanemgr/cluster_arbiter.hh"

namespace occamy
{

FrontEnd::FrontEnd(const JobQueue &queue, const MachineConfig &cfg,
                   const MachineConfig &view, obs::EventSink *sink,
                   ClusterArbiter *arbiter)
    : queue_(queue), cfg_(cfg), sink_(sink), arbiter_(arbiter),
      traffic_(queue.hasTraffic),
      dispatcher_(queue.dispatcher ? queue.dispatcher
                                   : traffic::dispatcherByName("fcfs")),
      admission_(traffic_ ? queue.admission : nullptr),
      cap_(queue.admissionCap),
      jobs_(queue.entries.size()), undispatched_(jobs_.size()),
      dispatch_at_(cfg.numCores, kCycleNever),
      pending_wl_(cfg.numCores, 0), sched_oi_(cfg.numCores),
      core_job_(cfg.numCores, traffic::kNoJob)
{
    // An OI-scoring discipline gets each queued workload's first-phase
    // behaviour pre-analyzed.
    if (dispatcher_->wantsOiScore())
        for (std::size_t q = 0; q < jobs_.size(); ++q)
            if (!queue.entries[q].loops.empty())
                jobs_[q].oi = kir::phaseOI(queue.entries[q].loops.front(),
                                           view.vecCache.sizeBytes,
                                           view.l2.sizeBytes);

    // Under traffic each entry waits for its effective arrival cycle
    // (closed-loop entries resolve theirs when the predecessor ends).
    if (traffic_) {
        unarrived_ = jobs_.size();
        for (std::size_t q = 0; q < jobs_.size(); ++q) {
            const traffic::Arrival &m = queue.entries[q];
            jobs_[q].arrived = false;
            if (m.dependsOn == traffic::kNoJob) {
                jobs_[q].arrive = m.arriveAt;
                next_arrival_ = std::min(next_arrival_, m.arriveAt);
            } else {
                jobs_[q].arrive = kCycleNever;
                jobs_[m.dependsOn].dependent = q;
            }
        }
    }

    if (!admission_)
        return;
    unsigned tenants = 1;
    for (const traffic::Arrival &m : queue.entries)
        tenants = std::max(tenants, m.tenant + 1);
    tenants_.resize(tenants);
    if (admission_->wantsTokens()) {
        refill_period_ =
            queue.admissionRefill ? queue.admissionRefill : 100'000;
        // Buckets start full: a tenant may burst up to `cap` jobs
        // before the per-period refill becomes the binding rate.
        for (Tenant &t : tenants_)
            t.tokens = cap_;
    }
    std::vector<std::string> classes;
    for (const traffic::Arrival &e : queue.entries)
        classes.push_back(e.workload);
    std::sort(classes.begin(), classes.end());
    classes.erase(std::unique(classes.begin(), classes.end()),
                  classes.end());
    for (const std::string &cls : classes)
        class_ema_.emplace_back(cls, 0);
}

void
FrontEnd::arrive(Cycle now)
{
    Cycle next = kCycleNever;
    for (std::size_t q = 0; q < jobs_.size(); ++q) {
        Job &j = jobs_[q];
        if (j.arrived)
            continue;
        if (j.arrive > now) {
            next = std::min(next, j.arrive);
            continue;
        }
        j.arrived = true;
        --unarrived_;
        if (admission_) {
            ++ready_;
            next_admission_ = now;  // Evaluate on sight.
        }
        // Interning changes the checkpointed string table, so it runs
        // only when the event is recorded.
        if (sink_ && sink_->wants(obs::EventKind::JobArrival))
            obs::note(sink_, obs::EventKind::JobArrival, now, kNoCore,
                      sink_->internString(queue_.entries[q].workload),
                      (std::uint64_t{queue_.entries[q].tenant} << 32) | q);
    }
    next_arrival_ = next;
}

void
FrontEnd::admit(Cycle now)
{
    Cycle next = kCycleNever;
    for (std::size_t q = 0; q < jobs_.size(); ++q) {
        Job &j = jobs_[q];
        if (j.dispatched || !j.arrived || j.latched)
            continue;
        if (j.deferUntil > now) {
            next = std::min(next, j.deferUntil);
            continue;
        }
        const traffic::Arrival &m = queue_.entries[q];
        Tenant &tn = tenants_[m.tenant];
        // Deterministic lazy token refill: one token per tenant per
        // period, capped at the bucket size.
        if (refill_period_) {
            const std::uint64_t add =
                (now - tn.lastRefill) / refill_period_;
            if (add) {
                tn.tokens = std::min<std::uint64_t>(tn.tokens + add, cap_);
                tn.lastRefill += add * refill_period_;
            }
        }
        traffic::AdmissionContext ac;
        ac.now = now;
        ac.tenant = m.tenant;
        ac.sloBudget = m.sloBudget;
        if (m.sloBudget != kCycleNever)
            ac.deadline = j.arrive + m.sloBudget;
        ac.estCost = static_cast<Cycle>(m.estCost);
        if (const Cycle *ema = classEma(queue_.entries[q].workload))
            ac.classServiceEma = *ema;
        ac.meanServiceEma = mean_ema_;
        ac.readyJobs = ready_;
        ac.inFlight = tn.inflight;
        ac.tokens = tn.tokens;
        ac.overloaded = overloaded_;
        ac.cores = cfg_.numCores;
        ac.deferCount = j.defers;
        ac.cap = cap_;

        switch (admission_->decide(ac)) {
          case traffic::AdmissionDecision::Admit:
            // One-time latch; tokens are consumed here, at admission,
            // never at dispatch.
            j.latched = true;
            ++tn.inflight;
            if (admission_->wantsTokens() && tn.tokens > 0)
                --tn.tokens;
            break;
          case traffic::AdmissionDecision::Defer: {
            const Cycle backoff = traffic::admissionBackoff(j.defers);
            ++j.defers;
            ++defer_total_;
            j.deferUntil = now + backoff;
            next = std::min(next, j.deferUntil);
            obs::note(sink_, obs::EventKind::JobDefer, now, kNoCore, q,
                      backoff);
            break;
          }
          case traffic::AdmissionDecision::Shed:
            j.shed = true;
            j.dispatched = true;
            --undispatched_;
            --ready_;
            ++shed_total_;
            obs::note(sink_, obs::EventKind::JobShed, now, kNoCore, q,
                      (std::uint64_t{m.tenant} << 32) | j.defers);
            releaseSuccessor(q, now);
            break;
        }
    }
    next_admission_ = next;
    updateOverload(now);
}

void
FrontEnd::releaseSuccessor(std::size_t q, Cycle now)
{
    const std::size_t dep = jobs_[q].dependent;
    if (dep == traffic::kNoJob)
        return;
    jobs_[dep].arrive = now + queue_.entries[dep].thinkGap;
    next_arrival_ = std::min(next_arrival_, jobs_[dep].arrive);
}

Cycle *
FrontEnd::classEma(const std::string &cls)
{
    auto it = std::lower_bound(
        class_ema_.begin(), class_ema_.end(), cls,
        [](const std::pair<std::string, Cycle> &e, const std::string &k) {
            return e.first < k;
        });
    return it != class_ema_.end() && it->first == cls ? &it->second
                                                       : nullptr;
}

Cycle
FrontEnd::delayP95() const
{
    const std::size_t n =
        std::min<std::size_t>(delay_n_, delay_ring_.size());
    if (n == 0)
        return 0;
    std::array<Cycle, 32> tmp{};
    std::copy_n(delay_ring_.begin(), n, tmp.begin());
    std::sort(tmp.begin(), tmp.begin() + n);
    const std::size_t rank = std::max<std::size_t>((95 * n + 99) / 100, 1);
    return tmp[rank - 1];
}

void
FrontEnd::updateOverload(Cycle now)
{
    // Hysteresis: trip when the ready backlog reaches 4x the core count
    // or the p95 queueing delay reaches 4x the mean observed service
    // time; exit only once the backlog drains to <= cores AND the p95
    // falls back under 2x. The asymmetry prevents enter/exit flapping.
    const Cycle p95 = delayP95();
    if (!overloaded_) {
        const bool deep = ready_ >= 4ull * cfg_.numCores;
        const bool slow = mean_ema_ > 0 && p95 > 4 * mean_ema_;
        if (!deep && !slow)
            return;
        overloaded_ = true;
        ++overload_enters_;
        obs::note(sink_, obs::EventKind::OverloadEnter, now, kNoCore,
                  ready_, p95);
    } else if (ready_ <= cfg_.numCores &&
               (mean_ema_ == 0 || p95 <= 2 * mean_ema_)) {
        overloaded_ = false;
        obs::note(sink_, obs::EventKind::OverloadExit, now, kNoCore,
                  ready_, p95);
    }
}

void
FrontEnd::started(CoreId c, Cycle now)
{
    const std::size_t q = pending_wl_[c];
    if (traffic_)
        core_job_[c] = q;
    if (sink_ && sink_->wants(obs::EventKind::BatchDispatch))
        obs::note(sink_, obs::EventKind::BatchDispatch, now, c,
                  sink_->internString(queue_.entries[q].workload), q);
    dispatch_at_[c] = kCycleNever;
}

void
FrontEnd::complete(CoreId c, Cycle now)
{
    const std::size_t q = core_job_[c];
    if (q == traffic::kNoJob)
        return;
    core_job_[c] = traffic::kNoJob;
    Job &j = jobs_[q];
    j.doneAt = now;
    const Cycle lat = now - j.arrive;
    obs::note(sink_, obs::EventKind::JobComplete, now, c, q, lat);
    const traffic::Arrival &m = queue_.entries[q];
    if (m.sloBudget != kCycleNever && lat > m.sloBudget) {
        ++slo_violations_;
        obs::note(sink_, obs::EventKind::SloViolation, now, c, q,
                  lat - m.sloBudget);
    }
    releaseSuccessor(q, now);
    if (!admission_)
        return;
    // The tenant's slot frees, and the observed service time (dispatch
    // decision to completion) feeds the per-class and mean EMAs the
    // slo-aware policy predicts with. Integer EMA, alpha = 1/4.
    Tenant &tn = tenants_[m.tenant];
    if (tn.inflight > 0)
        --tn.inflight;
    const Cycle service = now - j.admitAt;
    if (Cycle *ema = classEma(queue_.entries[q].workload))
        *ema = *ema ? (3 * *ema + service) / 4 : service;
    mean_ema_ = mean_ema_ ? (3 * mean_ema_ + service) / 4 : service;
}

std::size_t
FrontEnd::select(Cycle now, CoreId c, const Score &score) const
{
    // Clustered machines without traffic prefer batch entries whose
    // home cluster (q % numClusters) is the idle core's own: the
    // dispatcher sees only home entries while any is ready. Adopting a
    // foreign entry is the work-migration path, taken only when the
    // home entries are exhausted.
    const unsigned ncl = cfg_.numClusters;
    const unsigned here = cfg_.clusterOf(c);
    auto isHome = [&](std::size_t q) { return q % ncl == here; };
    bool home_only = false;
    if (ncl > 1 && !traffic_)
        for (std::size_t q = 0; q < jobs_.size() && !home_only; ++q)
            home_only = available(jobs_[q]) && isHome(q);
    std::vector<traffic::PendingJob> pending;
    for (std::size_t q = 0; q < jobs_.size(); ++q) {
        const Job &j = jobs_[q];
        if (!available(j) || (home_only && !isHome(q)))
            continue;
        const traffic::Arrival &m = queue_.entries[q];
        traffic::PendingJob pj;
        pj.queueIdx = q;
        pj.arrived = j.arrive;
        pj.tenant = m.tenant;
        pj.estCost = m.estCost;
        if (m.sloBudget != kCycleNever)
            pj.deadline = j.arrive + m.sloBudget;
        pending.push_back(pj);
    }
    if (pending.empty())
        return traffic::kNoJob;
    traffic::DispatchContext dc{now, c, pending, {}};
    if (dispatcher_->wantsOiScore())
        dc.progressScore = [&](std::size_t i) {
            return score(jobs_[pending[i].queueIdx].oi, c);
        };
    const std::size_t sel = dispatcher_->select(dc);
    if (sel >= pending.size())
        return traffic::kNoJob;     // kDefer: leave the core idle.
    return pending[sel].queueIdx;
}

void
FrontEnd::place(Cycle now, CoreId c, const Score &score)
{
    const std::size_t q = select(now, c, score);
    if (q == traffic::kNoJob)
        return;     // Nothing ready; the core idles until a wake.
    Job &j = jobs_[q];
    pending_wl_[c] = q;
    j.dispatched = true;
    sched_oi_[c] = j.oi;
    --undispatched_;
    dispatch_at_[c] = now + cfg_.contextSwitchCycles;
    // Cross-cluster adoption (work migration) pays the extra
    // state-movement cost and is accounted by the arbiter.
    if (arbiter_) {
        const unsigned home = static_cast<unsigned>(q % cfg_.numClusters);
        const unsigned here = cfg_.clusterOf(c);
        if (home != here) {
            dispatch_at_[c] += cfg_.clusterMigrationCycles;
            arbiter_->noteMigration(home, here);
            obs::note(sink_, obs::EventKind::ClusterArbiterMigrate, now, c,
                      q, (std::uint64_t{home} << 32) | here);
        }
    }
    if (!traffic_)
        return;
    j.admitAt = now;
    obs::note(sink_, obs::EventKind::JobAdmit, now, c, q, now - j.arrive);
    if (!admission_)
        return;
    --ready_;
    delay_ring_[delay_n_ % delay_ring_.size()] = now - j.arrive;
    ++delay_n_;
    updateOverload(now);
}

std::vector<traffic::JobRecord>
FrontEnd::records() const
{
    std::vector<traffic::JobRecord> out;
    if (!traffic_)
        return out;
    out.resize(jobs_.size());
    for (std::size_t q = 0; q < jobs_.size(); ++q) {
        traffic::JobRecord &r = out[q];
        r.tenant = queue_.entries[q].tenant;
        r.arrive = jobs_[q].arrive;
        r.admit = jobs_[q].admitAt;
        r.finish = jobs_[q].doneAt;
        r.sloBudget = queue_.entries[q].sloBudget;
        r.shed = jobs_[q].shed;
        r.defers = jobs_[q].defers;
    }
    return out;
}

void
FrontEnd::addStats(stats::Group &run) const
{
    auto add = [&run](const char *name, double v, const char *desc) {
        run.addFormula(name, [v] { return v; }, desc);
    };
    if (!traffic_)
        return;
    const auto done = std::count_if(jobs_.begin(), jobs_.end(),
                                    [](const Job &j) {
                                        return j.doneAt != kCycleNever;
                                    });
    add("traffic_jobs", static_cast<double>(jobs_.size()),
        "traffic arrivals enqueued");
    add("traffic_completed", static_cast<double>(done),
        "traffic jobs that ran to completion");
    add("slo_violations", static_cast<double>(slo_violations_),
        "completions whose latency exceeded the SLO budget");
    if (!admission_)
        return;
    add("jobs_shed", static_cast<double>(shed_total_),
        "arrivals rejected by admission control");
    add("job_deferrals", static_cast<double>(defer_total_),
        "admission defer verdicts issued");
    add("overload_enters", static_cast<double>(overload_enters_),
        "times the overload detector tripped");
}

void
FrontEnd::inspect(std::ostream &os) const
{
    if (traffic_)
        os << "traffic_dispatcher " << dispatcher_->key() << '\n'
           << "traffic_unarrived " << unarrived_ << '\n'
           << "slo_violations " << slo_violations_ << '\n';
    if (admission_)
        os << "admission " << admission_->key() << '\n'
           << "admission_cap " << cap_ << '\n'
           << "admission_ready " << ready_ << '\n'
           << "overloaded " << (overloaded_ ? 1 : 0) << '\n'
           << "jobs_shed " << shed_total_ << '\n'
           << "job_deferrals " << defer_total_ << '\n'
           << "overload_enters " << overload_enters_ << '\n';
}

// Restore reads every field below before the checksum is verified, and
// a file with a recomputed trailer passes it anyway, so each value that
// is later used as an index is range-checked where it is read.

template <class Ar>
[[gnu::cold]] void
FrontEnd::ioDispatch(Ar &ar)
{
    ar.len(jobs_.size(), "checkpoint batch queue length mismatch");
    for (Job &j : jobs_)
        ar.b(j.dispatched);
    ar.u64(undispatched_);
    for (PhaseOI &oi : sched_oi_)
        oi.io(ar);
    for (Cycle &d : dispatch_at_)
        ar.u64(d);
    for (std::size_t c = 0; c < pending_wl_.size(); ++c) {
        ar.u64(pending_wl_[c]);
        if constexpr (Ar::kLoading)
            ckpt::Reader::check(dispatch_at_[c] == kCycleNever ||
                                    pending_wl_[c] < jobs_.size(),
                                "checkpoint pending dispatch references "
                                "a queue entry this system lacks");
    }
}

template <class Ar>
[[gnu::cold]] void
FrontEnd::ioJobs(Ar &ar)
{
    if (traffic_) {
        ar.section("traffic");
        ar.len(jobs_.size(), "checkpoint traffic queue length mismatch");
        for (Job &j : jobs_) {
            ar.u64(j.arrive);
            ar.b(j.arrived);
            ar.u64(j.admitAt);
            ar.u64(j.doneAt);
        }
        ar.u64(unarrived_);
        ar.u64(next_arrival_);
        ar.u64(slo_violations_);
        for (std::size_t &q : core_job_) {
            ar.u64(q);
            if constexpr (Ar::kLoading)
                ckpt::Reader::check(q == traffic::kNoJob ||
                                        q < jobs_.size(),
                                    "checkpoint running job references "
                                    "a queue entry this system lacks");
        }
    }
    if (!admission_)
        return;
    ar.section("admit");
    ar.len(jobs_.size(), "checkpoint admission queue length mismatch");
    for (Job &j : jobs_) {
        ar.b(j.latched);
        ar.b(j.shed);
        ar.u64(j.deferUntil);
        ar.u32(j.defers);
    }
    ar.len(tenants_.size(), "checkpoint admission tenant count mismatch");
    for (Tenant &t : tenants_) {
        ar.u32(t.inflight);
        ar.u64(t.tokens);
        ar.u64(t.lastRefill);
    }
    for (Cycle &d : delay_ring_)
        ar.u64(d);
    ar.u32(delay_n_);
    ar.len(class_ema_.size(), "checkpoint admission class table mismatch");
    for (auto &[cls, ema] : class_ema_) {
        std::string saved_cls = cls;
        ar.str(saved_cls);
        if constexpr (Ar::kLoading)
            ckpt::Reader::check(saved_cls == cls,
                                "checkpoint admission class name mismatch");
        ar.u64(ema);
    }
    ar.u64(mean_ema_);
    ar.u64(ready_);
    ar.b(overloaded_);
    ar.u64(overload_enters_);
    ar.u64(shed_total_);
    ar.u64(defer_total_);
    ar.u64(next_admission_);
}

template void FrontEnd::ioDispatch(ckpt::Writer &);
template void FrontEnd::ioDispatch(ckpt::Reader &);
template void FrontEnd::ioJobs(ckpt::Writer &);
template void FrontEnd::ioJobs(ckpt::Reader &);

} // namespace occamy
