/**
 * @file
 * occbench: the in-process half of the repo benchmark (run.py starts it
 * and aggregates its output). It runs the passes of the sim_suite
 * workload (the paper pairs, the 4x4 cluster and the bursty traffic
 * streams) for a time budget and times every call into the simulator's
 * public API from outside: workload build, traffic::generate,
 * System::boot/advance/finalize, trace::toJson and, in the traced mode,
 * Compiler::compile, System::saveCheckpoint/restoreCheckpoint and the
 * obs exporters.
 * Host times are process CPU seconds (all threads), which leave out the
 * time the process waits for a CPU; only the time budget, the tick pool
 * speedup and each pass's wall_s are wall-clock time.
 *
 * Output is NDJSON on stdout: with --trace 1 first one "extra" record
 * (thread, checkpoint and event-sink measurements plus their output
 * checks), then one "pass" record per pass (timings, peak memory so
 * far, work counts and the trace::toJson digest of every System run),
 * and finally a "self" record with each layer's self time derived from
 * the recorded spans. Spans go to --spans FILE at exit.
 *
 * Usage:
 *   occbench --workload sim_suite --seed N --seconds S --trace 0|1
 *            [--spans F]
 *   occbench --provenance
 *   occbench --digests              digest of every fixed System run
 *   occbench --serve-ref LABEL/POLICY...  in-process serve references
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler.hh"
#include "obs/export.hh"
#include "obs/sink.hh"
#include "policy/sharing_model.hh"
#include "sim/system.hh"
#include "sim/trace.hh"
#include "traffic/admission.hh"
#include "traffic/scheduler.hh"
#include "traffic/traffic.hh"
#include "workloads/phases.hh"
#include "workloads/suite.hh"

using namespace occamy;

namespace
{

using Clock = std::chrono::steady_clock;

/** Fixed mid-run cycle of the save/restore check (traced mode). */
constexpr Cycle kCkptCluster = 60'000;
constexpr Cycle kCkptTraffic = 300'000;

/** The paper pairs of a sim_suite pass (allPairs labels; a SPEC then
 *  an OpenCV pair) and the paper's four architectures. Two of the
 *  shortest pairs, so that a run repeats each System often enough for
 *  its fastest repeat to be steady. */
const std::vector<std::string> kPairLabels = {"20+9", "6+1"};
const std::vector<std::string> kPolicies = {"private", "fts", "vls",
                                            "occamy"};

/** The bursty arrival streams of a sim_suite pass (trafficConfig
 *  variants). Each one overloads the machine once, sheds and defers;
 *  together they tick about a quarter of their cycles. */
const std::vector<unsigned> kTrafficVariants = {1, 39};

// ------------------------------------------------------------ helpers

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU seconds used so far by every thread of this process. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** Pin this thread, and the threads it starts, to @p count consecutive
 *  CPUs of the ones the process may use, from the @p first (mod their
 *  number). On a shared host each CPU has slow phases of its own, so
 *  runs are spread over all CPUs and an operation's fastest repeat is
 *  taken over all of them. */
void
pinTo(unsigned first, unsigned count)
{
    static const std::vector<int> allowed = [] {
        cpu_set_t set;
        std::vector<int> cpus;
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus.push_back(c);
        return cpus;
    }();
    if (allowed.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t i = 0; i < std::min<std::size_t>(count, allowed.size());
         ++i)
        CPU_SET(allowed[(first + i) % allowed.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Peak resident memory of the process so far, in MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux.
}

/** @p v as a JSON string literal. */
std::string
quote(const std::string &v)
{
    std::string q = "\"";
    for (char c : v) {
        if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x", c);
            q += esc;
            continue;
        }
        if (c == '"' || c == '\\')
            q += '\\';
        q += c;
    }
    return q + "\"";
}

/** Minimal JSON object writer (numbers at full precision). */
class Json
{
  public:
    Json &num(const char *k, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(k, buf);
    }
    Json &u64(const char *k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Json &str(const char *k, const std::string &v)
    {
        return raw(k, quote(v));
    }
    Json &boolean(const char *k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    Json &list(const char *k, const std::vector<double> &v)
    {
        std::string s = "[";
        char buf[40];
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
            s += buf;
        }
        return raw(k, s + "]");
    }
    Json &raw(const char *k, const std::string &v)
    {
        body_ += (body_.empty() ? "" : ",") + std::string("\"") + k +
                 "\":" + v;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }
    void print() const { std::printf("%s\n", text().c_str()); }

  private:
    std::string body_;
};

/** Discards bytes but counts them: export timings without holding a
 *  hundred-megabyte trace in memory. */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t bytes = 0;

  protected:
    int_type overflow(int_type c) override
    {
        if (c != traits_type::eof())
            ++bytes;
        return c;
    }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<std::uint64_t>(n);
        return n;
    }
};

// ---------------------------------------------------------------- spans

/** One timed call: name, layer, start/end (s since the tracer began),
 *  the enclosing span and the run (System instance) it belongs to. */
struct Span
{
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int root = -1;              ///< Outermost enclosing span (or self).
    unsigned run = 0;
};

/** Spans live in memory and are written once, at exit. Their start
 *  and end are process CPU seconds since the tracer began. When off, a
 *  Scope only reads the clocks. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), origin_(cpuNow()) {}

    bool on() const { return on_; }

    /** While paused, spans are not recorded (untraced passes of a
     *  traced run). */
    void pause(bool p) { paused_ = p; }

    int open(const char *layer, const std::string &name, unsigned run)
    {
        if (!on_ || paused_)
            return -1;
        Span s;
        s.name = name;
        s.layer = layer;
        s.start = cpuNow() - origin_;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.root = stack_.empty() ? static_cast<int>(spans_.size())
                                : spans_[static_cast<std::size_t>(
                                             stack_.back())].root;
        s.run = run;
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = cpuNow() - origin_;
        stack_.pop_back();
    }

    /** Per layer: self time (a span's duration minus that of its
     *  direct children) per traced pass, over the spans of passes. */
    std::map<std::string, double> selfTimesPerPass() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
        std::map<std::string, double> out;
        unsigned passes = 0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &root = spans_[static_cast<std::size_t>(
                spans_[i].root)];
            if (root.name.rfind("pass ", 0) != 0)
                continue;
            passes += spans_[i].root == static_cast<int>(i) ? 1 : 0;
            out[spans_[i].layer] +=
                spans_[i].end - spans_[i].start - child[i];
        }
        for (auto &[layer, sec] : out)
            sec /= passes;
        return out;
    }

    void write(const std::string &path) const
    {
        std::ofstream os(path, std::ios::trunc);
        os << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            Json j;
            j.u64("id", i)
                .str("name", s.name)
                .str("layer", s.layer)
                .num("start_s", s.start)
                .num("end_s", s.end)
                .raw("parent", std::to_string(s.parent))
                .u64("run", s.run);
            os << (i ? ",\n" : "\n") << j.text();
        }
        os << "\n]\n";
    }

  private:
    bool on_;
    bool paused_ = false;
    double origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Times one call and, when tracing, records it as a span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *layer, const std::string &name,
          unsigned run = 0)
        : t_(t), id_(t.open(layer, name, run)), wall0_(Clock::now()),
          cpu0_(cpuNow())
    {
    }
    ~Scope() { stop(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Close the span; @return its duration in CPU seconds. */
    double stop()
    {
        if (!done_) {
            sec_ = cpuNow() - cpu0_;
            wall_ = since(wall0_);
            t_.close(id_);
            done_ = true;
        }
        return sec_;
    }

    /** Wall-clock duration (valid after stop()). */
    double wall() const { return wall_; }

  private:
    Tracer &t_;
    int id_;
    Clock::time_point wall0_;
    double cpu0_;
    double sec_ = 0.0;
    double wall_ = 0.0;
    bool done_ = false;
};

// ----------------------------------------------------------------- jobs

using Slot = std::pair<std::string, std::vector<kir::Loop>>;

/** One System run: the machine, what is bound to it, and the key of its
 *  recorded digest. */
struct Job
{
    std::string key;
    MachineConfig cfg;
    std::vector<Slot> pinned;
    std::vector<Slot> batch;
    std::vector<traffic::Arrival> arrivals;
    Cycle refill = 0;           ///< Token refill period (traffic only).
    unsigned simThreads = 1;
};

/** CPU seconds of the setup half of a pass. */
struct SetupTimes
{
    double build = 0.0;
    double generate = 0.0;
};

const policy::SharingModel &
policyByKey(const std::string &key)
{
    const policy::SharingModel *m = policy::modelByName(key);
    if (!m)
        throw std::invalid_argument("unknown policy " + key);
    return *m;
}

std::vector<Job>
paperPairJobs(Tracer &tr, SetupTimes &st)
{
    std::vector<workloads::Pair> pairs;
    {
        Scope s(tr, "workloads", "workloads::allPairs");
        pairs = workloads::allPairs();
        st.build += s.stop();
    }
    std::vector<Job> jobs;
    for (const std::string &label : kPairLabels) {
        const auto it = std::find_if(
            pairs.begin(), pairs.end(),
            [&](const workloads::Pair &p) { return p.label == label; });
        if (it == pairs.end())
            throw std::runtime_error("pair " + label + " not in allPairs");
        for (const std::string &pol : kPolicies) {
            Job j;
            j.key = "paper_pairs/" + label + "/" + pol;
            j.cfg = MachineConfig::forPolicy(policyByKey(pol).id(), 2);
            j.pinned = {{it->core0.name, it->core0.loops},
                        {it->core1.name, it->core1.loops}};
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

/** The fig16 scale-out shape on topology(4, 4): even clusters lean
 *  memory, odd clusters compute; the 16 queued jobs drain through
 *  cross-cluster migration. */
std::vector<Job>
clusterJobs(Tracer &tr, SetupTimes &st, unsigned threads)
{
    Job j;
    j.key = "cluster_4x4";
    j.cfg = MachineConfig::Builder(SharingPolicy::Elastic)
                .topology(4, 4)
                .build();
    j.simThreads = threads;
    Scope s(tr, "workloads", "workloads::makeNamedPhase");
    for (unsigned c = 0; c < 16; ++c) {
        const bool mem = (c / 4) % 2 == 0;
        j.pinned.push_back(
            {mem ? "mem" : "comp",
             {workloads::makeNamedPhase(mem ? "rho_eos1" : "wsm51",
                                        mem ? 2048 : 8192)}});
    }
    for (unsigned q = 0; q < 16; ++q)
        j.batch.push_back(
            {"q" + std::to_string(q),
             {workloads::makeNamedPhase(q % 2 ? "wsm51" : "rho_eos1",
                                        4096)}});
    st.build += s.stop();
    return {std::move(j)};
}

/** Four tenants submitting one short OpenCV kernel (CV7, ~19k cycles
 *  alone) as strongly bursty MMPP-2 streams: bursts queue 16 or more
 *  jobs on the 4 cores, so the overload detector trips and slo-aware
 *  admission defers and sheds, and lulls leave the machine idle for
 *  fast-forward. */
traffic::TrafficConfig
trafficConfig(unsigned variant)
{
    traffic::TrafficConfig tc;
    tc.process = "bursty";
    tc.scheduler = "edf";
    tc.admission = "slo-aware";
    tc.tenants = 4;
    tc.seed = 1000 + variant;
    tc.jobsPerTenant = 6;
    tc.meanGapCycles = 80'000.0;
    tc.burstiness = 16.0;
    tc.sloCycles = 200'000;
    tc.admissionCap = 4;
    tc.workloadSet = {"CV7"};
    return tc;
}

std::vector<Job>
trafficJobs(Tracer &tr, SetupTimes &st,
            const std::vector<unsigned> &variants)
{
    std::vector<Job> jobs;
    for (unsigned v : variants) {
        const traffic::TrafficConfig tc = trafficConfig(v);
        Job j;
        j.key = "traffic_bursty/v" + std::to_string(v);
        j.cfg = MachineConfig::forPolicy(SharingPolicy::Elastic, 4);
        j.refill = static_cast<Cycle>(tc.meanGapCycles);
        Scope s(tr, "traffic", "traffic::generate");
        j.arrivals = traffic::generate(tc);
        st.generate += s.stop();
        jobs.push_back(std::move(j));
    }
    return jobs;
}

/** Everything one System run produced. */
struct Outcome
{
    RunResult r;
    FastForwardStats ff;
    std::string json;
    // CPU seconds of each phase.
    double boot = 0.0;          ///< Construction, binding and boot.
    double advance = 0.0;
    double finalize = 0.0;
    double exportSec = 0.0;
    double advanceWall = 0.0;   ///< Wall seconds in System::advance.

    /** CPU seconds of the whole run, boot through trace::toJson. */
    double total() const { return boot + advance + finalize + exportSec; }
};

std::unique_ptr<System>
makeSystem(const Job &j)
{
    auto sys = std::make_unique<System>(j.cfg);
    for (std::size_t c = 0; c < j.pinned.size(); ++c)
        sys->setWorkload(static_cast<CoreId>(c), j.pinned[c].first,
                         j.pinned[c].second);
    for (const auto &[name, loops] : j.batch)
        sys->enqueueWorkload(name, loops);
    if (!j.arrivals.empty()) {
        for (const traffic::Arrival &a : j.arrivals)
            sys->enqueueArrival(a);
        sys->setDispatcher(traffic::dispatcherByName("edf"));
        sys->setAdmission(traffic::admissionByName("slo-aware"), 4,
                          j.refill);
    }
    return sys;
}

RunOptions
options(const Job &j, FastForwardStats *ff, obs::EventSink *sink)
{
    RunOptions o;
    o.simThreads = j.simThreads;
    o.ffStats = ff;
    o.sink = sink;
    return o;
}

/** One System::advance call: to completion, as users run it, or to
 *  @p stopAt (the checkpoint check). */
void
advanceTimed(System &sys, Outcome &o, Tracer &tr, unsigned run,
             Cycle stopAt = kCycleNever)
{
    Scope s(tr, "sim", "System::advance", run);
    sys.advance(stopAt);
    o.advance += s.stop();
    o.advanceWall += s.wall();
}

void
finish(System &sys, Outcome &o, Tracer &tr, unsigned run)
{
    {
        Scope s(tr, "sim", "System::finalize", run);
        o.r = sys.finalize();
        o.finalize = s.stop();
    }
    Scope s(tr, "sim", "trace::toJson", run);
    o.json = trace::toJson(o.r);
    o.exportSec = s.stop();
}

Outcome
runJob(const Job &j, Tracer &tr, unsigned run,
       obs::EventSink *sink = nullptr)
{
    Outcome o;
    Scope job(tr, "bench", j.key, run);
    std::unique_ptr<System> sys;
    {
        Scope s(tr, "sim", "System::boot", run);
        sys = makeSystem(j);
        sys->boot(options(j, &o.ff, sink));
        o.boot = s.stop();
    }
    advanceTimed(*sys, o, tr, run);
    finish(*sys, o, tr, run);
    return o;
}

// ------------------------------------------------------------ counters

/** Sum every "<prefix>...<suffix> value" line of a stats dump. */
double
statSum(const std::string &text, const std::string &suffix)
{
    double sum = 0.0;
    std::istringstream is(text);
    std::string name;
    double value = 0.0;
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        if (!(ls >> name >> value))
            continue;
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += value;
    }
    return sum;
}

/** Jobs that moved to another cluster during the run. */
std::uint64_t
migrations(const RunResult &r)
{
    std::uint64_t n = 0;
    for (const ClusterRunResult &c : r.clusters)
        n += c.migratedIn;
    return n;
}

/** Deterministic work counts of one pass, summed over its runs. */
struct Counts
{
    std::map<std::string, double> v;

    void add(const Outcome &o, unsigned cores)
    {
        const RunResult &r = o.r;
        v["cycles_simulated"] += static_cast<double>(o.ff.cyclesSimulated);
        v["cycles_ticked"] += static_cast<double>(o.ff.cyclesTicked);
        v["core_cycles_ticked"] +=
            static_cast<double>(o.ff.cyclesTicked) * cores;
        v["ff_spans"] += static_cast<double>(o.ff.spans);
        for (const CoreRunResult &c : r.cores) {
            v["uops_issued"] +=
                static_cast<double>(c.computeIssued + c.memIssued);
            v["rename_stall_cycles"] +=
                static_cast<double>(c.renameRegStallCycles);
            v["monitor_insts"] += static_cast<double>(c.monitorInsts);
            v["reconfig_wait_cycles"] +=
                static_cast<double>(c.reconfigWaitCycles);
        }
        v["em_insts"] += statSum(r.statsText, ".coproc.em_insts");
        v["vl_switches"] += static_cast<double>(r.vlSwitches);
        v["plans_published"] += static_cast<double>(r.plansMade);
        v["arbiter_rebalances"] += static_cast<double>(r.arbiterRebalances);
        v["migrations"] += static_cast<double>(migrations(r));
        v["dram_bytes"] += static_cast<double>(r.dramBytes);
        v["vec_cache_hits"] += statSum(r.statsText, ".vec_cache.hits");
        v["vec_cache_misses"] += statSum(r.statsText, ".vec_cache.misses");
        v["l2_hits"] += statSum(r.statsText, ".l2.hits");
        v["l2_misses"] += statSum(r.statsText, ".l2.misses");
        double completed = 0.0;
        for (const traffic::JobRecord &jr : r.trafficJobs)
            completed += jr.completed() ? 1.0 : 0.0;
        v["arrivals"] += static_cast<double>(r.trafficJobs.size());
        v["completed"] += completed;
        v["shed"] += static_cast<double>(r.jobsShed);
        v["deferrals"] += static_cast<double>(r.jobDeferrals);
        v["overload_enters"] += static_cast<double>(r.overloadEnters);
        v["slo_violations"] += static_cast<double>(r.sloViolations);
    }

    std::string text() const
    {
        Json j;
        for (const auto &[k, x] : v)
            j.num(k.c_str(), x);
        return j.text();
    }
};

/** Output checks on one run that need no reference; an empty string
 *  means the run is sound. The digest is checked by run.py against the
 *  recorded table. A run must also exercise what it is in the suite
 *  for: a traffic run the overload detector, deferral and shedding, the
 *  cluster run cross-cluster migration. */
std::string
soundness(const Job &j, const Outcome &o)
{
    if (o.r.timedOut)
        return "hit the cycle cap";
    if (o.r.wallKilled)
        return "wall-clock kill";
    if (!j.arrivals.empty()) {
        std::uint64_t completed = 0;
        for (const traffic::JobRecord &jr : o.r.trafficJobs)
            completed += jr.completed() ? 1 : 0;
        if (o.r.trafficJobs.size() != j.arrivals.size() ||
            completed + o.r.jobsShed != j.arrivals.size())
            return "completed + shed != arrivals";
        if (o.r.overloadEnters == 0 || o.r.jobDeferrals == 0 ||
            o.r.jobsShed == 0)
            return "no overload, deferral or shed: the admission path "
                   "went unexercised";
    }
    if (!j.batch.empty() && migrations(o.r) == 0)
        return "no cross-cluster migration: the batch queue drained "
               "without it";
    return "";
}

// --------------------------------------------------------------- passes

/** Checkpoint round trips of the traced mode, summed. */
struct CkptTimes
{
    double save = 0.0;
    double restore = 0.0;
    std::uint64_t bytes = 0;
};

struct Bench
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    Tracer tr{false};
    unsigned runs = 0;          ///< System instances started.

    /** The System runs of pass @p pass: the paper pairs, the 4x4
     *  cluster at 2 threads and the traffic streams. Every pass runs
     *  them all, so passes do equal work; the seed sets their order. */
    std::vector<Job> jobs(SetupTimes &st, unsigned pass)
    {
        std::vector<Job> js = paperPairJobs(tr, st);
        for (Job &j : clusterJobs(tr, st, 2))
            js.push_back(std::move(j));
        for (Job &j : trafficJobs(tr, st, kTrafficVariants))
            js.push_back(std::move(j));
        for (std::size_t i = js.size(); i > 1; --i)
            std::swap(js[i - 1],
                      js[splitmix(seed * 1000003 + pass * 64 + i) % i]);
        return js;
    }

    /** Compile every workload of @p js as System::boot would. Traced
     *  passes only, after their wall time is taken: it is extra work. */
    double compileSec(const std::vector<Job> &js)
    {
        double sec = 0.0;
        for (const Job &j : js) {
            const policy::SharingModel &m = policy::model(j.cfg.policy);
            auto compile = [&](const Slot &s, CoreId c) {
                Compiler comp(CompileOptions::forMachine(
                    j.cfg, m.perCoreFixedVl(j.cfg, c)));
                Scope sc(tr, "compiler", "Compiler::compile");
                (void)comp.compile(s.first, s.second);
                sec += sc.stop();
            };
            for (std::size_t c = 0; c < j.pinned.size(); ++c)
                compile(j.pinned[c], static_cast<CoreId>(c));
            for (const Slot &s : j.batch)
                compile(s, 0);
            for (const traffic::Arrival &a : j.arrivals)
                compile({a.workload, a.loops}, 0);
        }
        return sec;
    }

    /** One pass: set up and run every job of the workload once. */
    void pass(unsigned index, bool record)
    {
        tr.pause(!record);
        Scope whole(tr, "bench", "pass " + std::to_string(index));
        const auto t0 = Clock::now();
        const double cpu0 = cpuNow();
        SetupTimes st;
        const std::vector<Job> js = jobs(st, index);

        Json out;
        // Per run, parallel to keys: CPU seconds of the whole run, of
        // its boot and of its advance, and the cycles it simulated.
        std::vector<double> runSec, runBoot, runAdvance, runCycles;
        std::vector<std::string> keys, digests, errors;
        double advance = 0.0, boot = 0.0, fin = 0.0, exp = 0.0;
        Counts counts;
        for (const Job &j : js) {
            const unsigned run = ++runs;
            pinTo(run, j.simThreads);
            try {
                const Outcome o = runJob(j, tr, run);
                boot += o.boot;
                advance += o.advance;
                fin += o.finalize;
                exp += o.exportSec;
                runSec.push_back(o.total());
                runBoot.push_back(o.boot);
                runAdvance.push_back(o.advance);
                runCycles.push_back(
                    static_cast<double>(o.ff.cyclesSimulated));
                counts.add(o, j.cfg.numCores);
                keys.push_back(j.key);
                digests.push_back(hex(fnv1a(o.json)));
                errors.push_back(soundness(j, o));
            } catch (const std::exception &e) {
                keys.push_back(j.key);
                digests.push_back("");
                errors.push_back(e.what());
                for (auto *v : {&runSec, &runBoot, &runAdvance, &runCycles})
                    v->push_back(0.0);
            }
        }
        const double cpu = cpuNow() - cpu0;
        const double wall = since(t0);
        const double rss = peakRssMb();
        double compile = 0.0;
        if (record && tr.on())
            compile = compileSec(js);
        whole.stop();
        tr.pause(false);

        out.str("kind", "pass")
            .u64("index", index)
            .boolean("traced", record && tr.on())
            .num("cpu_s", cpu)
            .num("wall_s", wall)
            .num("peak_rss_mb", rss)
            .num("advance_s", advance)
            .num("boot_s", boot)
            .num("finalize_s", fin)
            .num("export_s", exp)
            .num("build_s", st.build)
            .num("generate_s", st.generate)
            .num("compile_s", compile)
            .list("run_s", runSec)
            .list("run_boot_s", runBoot)
            .list("run_advance_s", runAdvance)
            .list("run_cycles", runCycles)
            .raw("counts", counts.text());
        // keys, digests and errors are parallel, one entry per run; an
        // empty error means the run passed the checks made here.
        out.raw("keys", strList(keys))
            .raw("digests", strList(digests))
            .raw("errors", strList(errors));
        out.print();
        std::fflush(stdout);
    }

    static std::string strList(const std::vector<std::string> &v)
    {
        std::string s = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            s += (i ? "," : "") + quote(v[i]);
        return s + "]";
    }

    void extras();
    void extrasCluster(Json &out, std::vector<std::string> &errors);
    void extrasPairs(Json &out, std::vector<std::string> &errors);
    void checkpointCheck(const Job &j, Cycle at, CkptTimes &sum,
                         std::vector<std::string> &errors);
};

/** Mid-run save/restore: pause at @p at, save, restore into a fresh
 *  System and finish; the result must equal the uninterrupted run. */
void
Bench::checkpointCheck(const Job &j, Cycle at, CkptTimes &sum,
                       std::vector<std::string> &errors)
{
    const unsigned run = ++runs;
    Outcome whole = runJob(j, tr, run);

    Outcome first;
    auto sys = makeSystem(j);
    sys->boot(options(j, &first.ff, nullptr));
    at = std::min(at, whole.r.cycles / 2);
    advanceTimed(*sys, first, tr, run, at);
    std::ostringstream saved;
    double save_sec = 0.0;
    {
        Scope s(tr, "ckpt", "System::saveCheckpoint", run);
        sys->saveCheckpoint(saved);
        save_sec = s.stop();
    }
    const std::string bytes = saved.str();
    sys.reset();

    Outcome resumed;
    auto fresh = makeSystem(j);
    double restore_sec = 0.0;
    {
        std::istringstream is(bytes);
        Scope s(tr, "ckpt", "System::restoreCheckpoint", run);
        fresh->restoreCheckpoint(is, options(j, &resumed.ff, nullptr));
        restore_sec = s.stop();
    }
    advanceTimed(*fresh, resumed, tr, run);
    finish(*fresh, resumed, tr, run);
    if (resumed.json != whole.json)
        errors.push_back(j.key + ": save/restore at cycle " +
                         std::to_string(at) +
                         " diverged from the uninterrupted run");
    sum.save += save_sec;
    sum.restore += restore_sec;
    sum.bytes += bytes.size();
}

void
Bench::extrasCluster(Json &out, std::vector<std::string> &errors)
{
    SetupTimes st;
    const Job two = clusterJobs(tr, st, 2).front();
    Job one = two;
    one.simThreads = 1;
    // Alternate 1 and 2 threads; the speedup is the ratio of median
    // wall times (CPU time counts both threads).
    std::vector<double> t1, t2;
    for (int rep = 0; rep < 3; ++rep) {
        const Outcome a = runJob(one, tr, ++runs);
        const Outcome b = runJob(two, tr, ++runs);
        t1.push_back(a.advanceWall);
        t2.push_back(b.advanceWall);
        if (a.json != b.json)
            errors.push_back("cluster_4x4: 1-thread and 2-thread results "
                             "differ");
    }
    std::sort(t1.begin(), t1.end());
    std::sort(t2.begin(), t2.end());
    out.num("advance_1thread_s", t1[1])
        .num("advance_2thread_s", t2[1])
        .num("tick_pool_speedup", t1[1] / t2[1]);
}

/** Event recording cost and exporter speed on the SPEC pair under
 *  Occamy. */
void
Bench::extrasPairs(Json &out, std::vector<std::string> &errors)
{
    SetupTimes st;
    const std::vector<Job> js = paperPairJobs(tr, st);
    const auto it = std::find_if(js.begin(), js.end(), [](const Job &x) {
        return x.key == "paper_pairs/20+9/occamy";
    });
    if (it == js.end())
        throw std::logic_error("20+9/occamy missing from the subset");
    const Job &pick = *it;
    std::vector<double> off, on;
    obs::TraceBuffer buf;
    std::uint64_t events = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const Outcome plain = runJob(pick, tr, ++runs);
        obs::RingSink sink(1u << 19, obs::kEvAll);
        const Outcome rec = runJob(pick, tr, ++runs, &sink);
        off.push_back(plain.advance);
        on.push_back(rec.advance);
        if (rec.json != plain.json)
            errors.push_back(pick.key + ": attaching a RingSink changed "
                             "the result");
        events = sink.size() + sink.dropped();
        if (rep == 0)
            buf = sink.take();
    }
    std::sort(off.begin(), off.end());
    std::sort(on.begin(), on.end());

    CountingBuf chrome_bytes, binary_bytes;
    double chrome = 0.0, binary = 0.0;
    {
        std::ostream os(&chrome_bytes);
        Scope s(tr, "obs", "obs::writeChromeTrace");
        obs::writeChromeTrace(os, buf);
        chrome = s.stop();
    }
    {
        std::ostream os(&binary_bytes);
        Scope s(tr, "obs", "obs::writeBinaryTrace");
        obs::writeBinaryTrace(os, buf);
        binary = s.stop();
    }
    out.num("record_overhead_x", on[1] / off[1])
        .u64("events", events)
        .u64("events_exported", buf.events.size())
        .num("chrome_export_s", chrome)
        .num("binary_export_s", binary)
        .u64("chrome_bytes", chrome_bytes.bytes)
        .u64("binary_bytes", binary_bytes.bytes);
}

void
Bench::extras()
{
    Json out;
    std::vector<std::string> errors;
    CkptTimes ckpt;
    try {
        extrasPairs(out, errors);
        extrasCluster(out, errors);
        SetupTimes st;
        checkpointCheck(clusterJobs(tr, st, 2).front(), kCkptCluster, ckpt,
                        errors);
        checkpointCheck(
            trafficJobs(tr, st, {kTrafficVariants.front()}).front(),
            kCkptTraffic, ckpt, errors);
    } catch (const std::exception &e) {
        errors.push_back(std::string("traced checks: ") + e.what());
    }
    out.str("kind", "extra")
        .num("ckpt_save_s", ckpt.save)
        .num("ckpt_restore_s", ckpt.restore)
        .u64("ckpt_bytes", ckpt.bytes)
        .u64("attempted", 1)
        .u64("failed", errors.empty() ? 0 : 1)
        .raw("errors", strList(errors));
    out.print();
}

std::string
sanitizer()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#else
    return "none";
#endif
}

void
provenance()
{
    Json j;
    j.str("kind", "provenance")
        .u64("nproc", std::thread::hardware_concurrency())
        .str("compiler", std::string("g++ ") + __VERSION__)
        .str("build_type", OCCBENCH_BUILD_TYPE)
        .str("occamy_sanitize", OCCBENCH_SANITIZE)
        .str("sanitizer_compiled", sanitizer());
    j.print();
}

/** Digest of every System run a pass can make, for the recorded
 *  table. */
int
recordDigests()
{
    Tracer tr(false);
    SetupTimes st;
    std::vector<Job> all = paperPairJobs(tr, st);
    for (Job &j : clusterJobs(tr, st, 2))
        all.push_back(std::move(j));
    for (Job &j : trafficJobs(tr, st, kTrafficVariants))
        all.push_back(std::move(j));
    int bad = 0;
    for (const Job &j : all) {
        const Outcome o = runJob(j, tr, 0);
        const std::string why = soundness(j, o);
        Json out;
        out.str("key", j.key)
            .str("digest", hex(fnv1a(o.json)))
            .u64("cycles", o.r.cycles)
            .u64("shed", o.r.jobsShed)
            .u64("deferrals", o.r.jobDeferrals)
            .u64("overload_enters", o.r.overloadEnters)
            .u64("migrations", migrations(o.r))
            .u64("arbiter_rebalances", o.r.arbiterRebalances)
            .num("tick_ratio", static_cast<double>(o.ff.cyclesTicked) /
                                   static_cast<double>(o.ff.cyclesSimulated))
            .num("advance_s", o.advance)
            .str("error", why);
        out.print();
        std::fflush(stdout);
        bad += why.empty() ? 0 : 1;
    }
    return bad ? 1 : 0;
}

/** In-process runs of the specs an occamy-serve session used: each
 *  @p specs entry is "LABEL/POLICY", a flat 2-core machine of POLICY
 *  running allPairs' LABEL. */
int
serveReference(const std::vector<std::string> &specs)
{
    Tracer tr(false);
    SetupTimes st;
    const std::vector<Job> js = paperPairJobs(tr, st);
    for (const std::string &spec : specs) {
        const auto it = std::find_if(js.begin(), js.end(), [&](const Job &j) {
            return j.key == "paper_pairs/" + spec;
        });
        if (it == js.end()) {
            std::fprintf(stderr, "occbench: no spec %s\n", spec.c_str());
            return 2;
        }
        const Outcome o = runJob(*it, tr, 0);
        Json out;
        out.str("kind", "reference")
            .str("spec", spec)
            .str("digest", hex(fnv1a(o.json)))
            .u64("cycles", o.r.cycles)
            .str("error", soundness(*it, o));
        out.print();
    }
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: occbench --workload sim_suite --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n"
                 "       occbench --provenance | --digests | "
                 "--serve-ref LABEL/POLICY...\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 1 && args[0] == "--provenance") {
        provenance();
        return 0;
    }
    if (args.size() == 1 && args[0] == "--digests")
        return recordDigests();
    if (args.size() > 1 && args[0] == "--serve-ref")
        return serveReference({args.begin() + 1, args.end()});

    Bench b;
    std::string spans_path;
    for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
        const std::string &k = args[i], &v = args[i + 1];
        if (k == "--workload")
            b.workload = v;
        else if (k == "--seed")
            b.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            b.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            b.traced = v == "1";
        else if (k == "--spans")
            spans_path = v;
        else
            return usage();
    }
    if (b.workload != "sim_suite" || args.size() % 2 || b.seconds <= 0.0)
        return usage();
    b.tr = Tracer(b.traced);

    try {
        // The traced checks that need extra runs come first, inside the
        // time budget. Then a traced run alternates untraced and traced
        // passes, so the tracing overhead is the difference of their
        // CPU times. A pass starts only if one more pass, as long as
        // the slowest so far, still ends within --seconds (wall time).
        const auto t0 = Clock::now();
        if (b.traced)
            b.extras();
        const unsigned min_passes = b.traced ? 2 : 1;
        double slowest = 0.0;
        for (unsigned index = 0;
             index < min_passes || since(t0) + slowest <= b.seconds;
             ++index) {
            const auto p0 = Clock::now();
            b.pass(index, b.traced && index % 2 == 1);
            slowest = std::max(slowest, since(p0));
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "occbench: %s\n", e.what());
        return 1;
    }

    Json self;
    self.str("kind", "self");
    for (const auto &[layer, sec] : b.tr.selfTimesPerPass())
        self.num(layer.c_str(), sec);
    self.print();
    if (!spans_path.empty())
        b.tr.write(spans_path);
    return 0;
}
