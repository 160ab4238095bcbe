#include "runner/runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "runner/build.hh"

namespace occamy::runner
{

const char *
jobStatusName(JobStatus s)
{
    return s == JobStatus::Ok ? "ok" : "failed";
}

std::size_t
SweepResult::failed() const
{
    std::size_t n = 0;
    for (const auto &j : jobs)
        if (!j.ok())
            ++n;
    return n;
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("OCCAMY_JOBS")) {
        const long n = std::atol(env);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::function<void(const Progress &)>
stderrProgress()
{
    return [](const Progress &p) {
        std::fprintf(stderr,
                     "\r[%zu/%zu] running=%zu failed=%zu "
                     "elapsed=%.1fs eta=%.1fs   ",
                     p.done, p.total, p.running, p.failed, p.elapsedSec,
                     p.etaSec);
        if (p.done == p.total)
            std::fprintf(stderr, "\n");
        std::fflush(stderr);
    };
}

JobResult
Runner::runOne(const JobSpec &spec, unsigned transient_retries)
{
    JobResult out;
    out.id = spec.id;
    out.label = spec.label;
    out.policy = spec.cfg.policy;
    out.retryBudget = transient_retries;

    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned attempt = 0;; ++attempt) {
        out.status = JobStatus::Ok;
        out.error.clear();
        out.result = RunResult{};
        out.trace = obs::TraceBuffer{};
        // Everything the run borrows lives on this worker thread for
        // exactly this job (stats.hh concurrency contract). Held
        // outside the try so a throwing or timed-out run still hands
        // back the partial trace it captured.
        BuiltRun run;
        bool transient = false;
        try {
            // A bad spec (unknown traffic name, malformed fault plan,
            // more workloads than cores) fails this job, not the sweep.
            build(spec, run);
            if (!spec.restoreFrom.empty()) {
                // Resume mid-run: boot + load + run the remainder.
                std::ifstream ckpt_is(spec.restoreFrom,
                                      std::ios::binary);
                if (!ckpt_is)
                    throw std::runtime_error(
                        "cannot open checkpoint file: " +
                        spec.restoreFrom);
                run.sys->restoreCheckpoint(ckpt_is, run.opt);
                run.sys->advance();
                out.result = run.sys->finalize();
            } else {
                out.result = run.sys->run(run.opt);
            }
            if (spec.traffic.enabled()) {
                out.hasTraffic = true;
                out.trafficTenants = spec.traffic.tenants;
                out.trafficMetrics = traffic::computeMetrics(
                    out.result.trafficJobs, spec.traffic.tenants,
                    out.result.cycles);
            }
            if (out.result.timedOut) {
                out.status = JobStatus::Failed;
                out.error = "hit the " + std::to_string(spec.maxCycles) +
                            "-cycle cap (partial result retained)";
            } else if (out.result.wallKilled) {
                out.status = JobStatus::Failed;
                out.error = "killed by the " +
                            std::to_string(spec.wallClockLimitSec) +
                            "s wall-clock limit (partial result "
                            "retained)";
            }
        } catch (const std::bad_alloc &) {
            out.status = JobStatus::Failed;
            out.error = "out of memory";
            transient = true;
        } catch (const std::system_error &e) {
            out.status = JobStatus::Failed;
            out.error = e.what();
            transient = true;
        } catch (const std::exception &e) {
            out.status = JobStatus::Failed;
            out.error = e.what();
        } catch (...) {
            out.status = JobStatus::Failed;
            out.error = "unknown exception";
        }
        if (run.sink)
            out.trace = run.sink->take();
        out.ff = run.ff;
        out.hasAdmission |= run.hasAdmission;
        out.retriesUsed = attempt;
        if (out.ok() || !transient || attempt >= transient_retries)
            break;
        // Host-condition failure with retries left: back off and rerun.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10LL << attempt));
    }
    out.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return out;
}

SweepResult
Runner::run(std::vector<JobSpec> jobs) const
{
    SweepResult sweep;
    const std::size_t n = jobs.size();
    sweep.jobs.resize(n);
    if (n == 0)
        return sweep;

    unsigned threads = opt_.numThreads ? opt_.numThreads : defaultJobs();
    if (threads > n)
        threads = static_cast<unsigned>(n);

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> running{0};
    std::atomic<std::size_t> failed{0};
    std::mutex done_mtx;
    std::condition_variable done_cv;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            ++running;
            // Results land at the spec's position, so completion order
            // (and thus thread count) never affects sweep output.
            sweep.jobs[i] = runOne(jobs[i], opt_.transientRetries);
            if (!sweep.jobs[i].ok())
                ++failed;
            --running;
            {
                std::lock_guard<std::mutex> lock(done_mtx);
                ++done;
            }
            done_cv.notify_one();
        }
    };

    auto progress = [&]() {
        Progress p;
        p.total = n;
        p.done = done.load();
        p.running = running.load();
        p.failed = failed.load();
        p.elapsedSec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        p.etaSec = p.done ? p.elapsedSec / static_cast<double>(p.done) *
                                static_cast<double>(p.total - p.done)
                          : 0.0;
        return p;
    };

    if (threads <= 1 && !opt_.onProgress) {
        // Inline fast path: no pool needed, still fault-contained.
        for (std::size_t i = 0; i < n; ++i) {
            sweep.jobs[i] = runOne(jobs[i], opt_.transientRetries);
            if (!sweep.jobs[i].ok())
                ++failed;
            ++done;
        }
        return sweep;
    }

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);

    if (opt_.onProgress) {
        std::unique_lock<std::mutex> lock(done_mtx);
        while (done.load() < n) {
            opt_.onProgress(progress());
            done_cv.wait_for(lock, std::chrono::milliseconds(500));
        }
    }
    for (auto &t : pool)
        t.join();
    if (opt_.onProgress)
        opt_.onProgress(progress());
    return sweep;
}

} // namespace occamy::runner
