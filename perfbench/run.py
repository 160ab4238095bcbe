#!/usr/bin/env python3
"""Repo benchmark: simulator host speed end to end and per layer.

Builds the simulator library, occamy-serve and the occbench harness from
source (perfbench/CMakeLists.txt, into .bench_build/ at the checkout
root), runs one workload for a time budget, checks every output, and
prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload sim_suite --seed 1 \\
        --seconds 60 --trace 0

--trace 0 prints the end-to-end metrics (measured untraced); --trace 1
prints the per-layer metrics from a run that records spans around every
call into the simulator, plus the tracing overhead. Host times are CPU
seconds of the simulating process, except serve request latencies,
which the client times on the wall clock. Workloads, metrics and what
each should move are described in perfbench/README.md.

Maintenance:
    python3 perfbench/run.py --record-digests   rewrite digests.json
    python3 perfbench/run.py ... --sanitize ON  ASan/UBSan build (traced
                                                runs only; end-to-end
                                                numbers are refused)
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ["sim_suite", "serve_session"]

# Metric names and units come from BENCHMARK.json; a per-layer value of
# 0 means the workload does not exercise that layer (see README.md).
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

CHILD_TIMEOUT_S = 150
SESSION_TIMEOUT_S = 60      # a hung daemon is killed after this


def log(*a):
    print(*a, file=sys.stderr, flush=True)


class Fail(Exception):
    """Ends the run without a result line (exit code 1)."""


# ------------------------------------------------------------------ build

def build(sanitize):
    """Configure once and build; returns the build directory."""
    bdir = os.path.join(OUT, "build" if sanitize == "OFF"
                        else "build-" + sanitize.lower())
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DOCCAMY_SANITIZE=" + sanitize]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            raise Fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise Fail("build failed")
    return bdir


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def harness(bdir, args, timeout=CHILD_TIMEOUT_S):
    """Run occbench; returns its NDJSON records."""
    try:
        r = subprocess.run([os.path.join(bdir, "occbench")] + args,
                           capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise Fail("occbench timed out")
    if r.returncode != 0:
        raise Fail("occbench failed (%d): %s" % (r.returncode,
                                                  r.stderr.strip()))
    return [json.loads(line) for line in r.stdout.splitlines() if line]


# --------------------------------------------------------------- helpers

def median(xs):
    return statistics.median(xs) if xs else 0.0


def fastest(samples):
    """{identity: least value} over (identity, value) pairs. Every pass
    repeats the same operations, so an operation's fastest repeat is its
    cost with the least interference from the rest of the host."""
    best = {}
    for key, v in samples:
        best[key] = min(v, best.get(key, v))
    return best


def process_cpu_s(pid):
    """CPU seconds used so far by the live threads of process @p pid."""
    total = 0.0
    for tid in os.listdir("/proc/%d/task" % pid):
        try:
            with open("/proc/%d/task/%s/sched" % (pid, tid)) as f:
                for line in f:
                    if line.startswith("se.sum_exec_runtime"):
                        total += float(line.split(":")[1]) / 1e3   # ms
        except OSError:
            pass        # the thread ended
    return total


def count(p, key):
    """A work count of pass record @p p (absent when every run failed)."""
    return p["counts"].get(key, 0.0)


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def check_digests(passes, table, problems):
    """Per-run failures: a soundness error or a digest that differs
    from the recorded one."""
    attempted = failed = 0
    for p in passes:
        for key, digest, err in zip(p["keys"], p["digests"], p["errors"]):
            attempted += 1
            want = table.get(key, {}).get("digest")
            if err:
                problems.append("%s: %s" % (key, err))
            elif digest != want:
                problems.append("%s: digest %s, recorded %s"
                                % (key, digest, want))
            else:
                continue
            failed += 1
    return attempted, failed


# ------------------------------------------------------ in-process runs

def run_inprocess(bdir, a, spans_path):
    recs = harness(bdir, ["--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds),
                          "--trace", str(a.trace), "--spans", spans_path],
                   timeout=a.seconds + CHILD_TIMEOUT_S)
    passes = [r for r in recs if r["kind"] == "pass"]
    extra = next((r for r in recs if r["kind"] == "extra"), None)
    self_t = next(r for r in recs if r["kind"] == "self")

    problems = []
    attempted, failed = check_digests(passes, load_digests(), problems)
    if extra is not None:
        attempted += extra["attempted"]
        failed += extra["failed"]
        problems += extra["errors"]

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    def best(field):
        return fastest((k, v) for p in plain
                       for k, v in zip(p["keys"], p[field]))

    run, boot, adv = best("run_s"), best("run_boot_s"), best("run_advance_s")
    cycles = dict((k, c) for p in plain
                  for k, c in zip(p["keys"], p["run_cycles"]))
    build = min(p["build_s"] + p["generate_s"] for p in plain)
    m = {
        "pass_cpu_s": build + sum(run.values()),
        "sim_cycles_per_cpu_s": sum(cycles.values()) / sum(adv.values()),
        "setup_s": build + sum(boot.values()),
        # The peak by the end of the first pass: the heap grows a little
        # with every pass, so later peaks depend on how many passes fit.
        "peak_rss_mb": plain[0]["peak_rss_mb"],
        "req_p50_ms": median(list(run.values())) * 1e3,
        "req_tail_ms": max(run.values()) * 1e3,
    }
    info = {"req": "one System run, boot through trace::toJson, in CPU "
                   "time, at its fastest over the passes",
            "req_fastest_ms": {k: v * 1e3 for k, v in sorted(run.items())},
            "req_kinds": len(run),
            "req_samples": sum(len(p["keys"]) for p in plain),
            "passes_untraced": len(plain), "passes_traced": len(traced)}

    if a.trace:
        layer = per_layer_inprocess(traced, plain, extra or {}, self_t)
        layer["bench.failed_frac"] = failed / max(attempted, 1)
        layer["bench.pass_wall_s"] = median([p["wall_s"] for p in plain])
        m = layer
    return m, info, attempted, failed, problems


def per_layer_inprocess(traced, plain, extra, self_t):
    def med(f):
        return median([f(p) for p in traced])

    def cnt(k):
        return med(lambda p: count(p, k))

    def rate(num, den):
        return med(lambda p: num(p) / den(p) if den(p) else 0.0)

    m = {
        "sim.advance_s": med(lambda p: p["advance_s"]),
        "sim.ns_per_core_cycle": rate(
            lambda p: p["advance_s"] * 1e9,
            lambda p: count(p, "core_cycles_ticked")),
        "sim.cycles_simulated": cnt("cycles_simulated"),
        "sim.cycles_ticked": cnt("cycles_ticked"),
        "sim.tick_ratio": rate(lambda p: count(p, "cycles_ticked"),
                               lambda p: count(p, "cycles_simulated")),
        "sim.ff_spans": cnt("ff_spans"),
        "sim.boot_ms": med(lambda p: p["boot_s"]) * 1e3,
        "sim.finalize_ms": med(lambda p: p["finalize_s"]) * 1e3,
        "sim.export_ms": med(lambda p: p["export_s"]) * 1e3,
        "tick_pool.speedup": extra.get("tick_pool_speedup", 0.0),
        "compiler.compile_ms": med(lambda p: p["compile_s"]) * 1e3,
        "workloads.build_ms": med(lambda p: p["build_s"]) * 1e3,
        "traffic.generate_ms": med(lambda p: p["generate_s"]) * 1e3,
        "coproc.ns_per_uop": rate(lambda p: p["advance_s"] * 1e9,
                                  lambda p: count(p, "uops_issued")),
        "mem.vec_cache_miss_rate": rate(
            lambda p: count(p, "vec_cache_misses"),
            lambda p: count(p, "vec_cache_hits") +
            count(p, "vec_cache_misses")),
        "mem.l2_miss_rate": rate(
            lambda p: count(p, "l2_misses"),
            lambda p: count(p, "l2_hits") + count(p, "l2_misses")),
        "ckpt.save_ms": extra.get("ckpt_save_s", 0.0) * 1e3,
        "ckpt.restore_ms": extra.get("ckpt_restore_s", 0.0) * 1e3,
        "ckpt.bytes": extra.get("ckpt_bytes", 0),
        "obs.record_overhead_x": extra.get("record_overhead_x", 0.0),
        "obs.events": extra.get("events", 0),
        "obs.chrome_export_ms": extra.get("chrome_export_s", 0.0) * 1e3,
        "obs.binary_export_ms": extra.get("binary_export_s", 0.0) * 1e3,
        "bench.trace_overhead_s":
            min(p["cpu_s"] for p in traced) -
            min(p["cpu_s"] for p in plain),
    }
    # Work counts whose per-layer name is "<layer>.<count key>".
    for name in ["traffic.arrivals", "traffic.completed", "traffic.shed",
                 "traffic.deferrals", "traffic.overload_enters",
                 "traffic.slo_violations", "coproc.uops_issued",
                 "coproc.rename_stall_cycles", "coproc.em_insts",
                 "coproc.vl_switches", "lanemgr.plans_published",
                 "lanemgr.arbiter_rebalances", "lanemgr.migrations",
                 "mem.dram_bytes", "core.monitor_insts",
                 "core.reconfig_wait_cycles"]:
        m[name] = cnt(name.split(".", 1)[1])
    for layer in ["sim", "compiler", "workloads", "traffic"]:
        m[layer + ".self_s"] = self_t.get(layer, 0.0)
    return m


# ---------------------------------------------------------- serve_session

# Every session runs the same work, so sessions are alike in cost; the
# seed sets the order of the runs, where the checkpoint and the inspect
# fall among the steps, and which component is inspected.
SERVE_LABEL, SERVE_PAIR = "20+9", "20+9"    # allPairs label, serve "pair"
SERVE_POLICIES = ["private", "fts", "vls", "occamy"]
SESSION_POLICY = "occamy"                   # the stepped session
STEPS, STEP_CYCLES = 12, 5000               # 60k of its 83k cycles
INSPECT_PATHS = ["system.mem", "system.coproc", "system.coproc.lanemgr",
                 "system.core0"]
FINAL_EVENTS = {"hello", "pooled", "done", "loaded", "stepped", "inspect",
                "checkpointed", "restored", "finalized", "bye"}


class Spans:
    """Serve-side spans, kept in memory and written at exit."""

    def __init__(self, on):
        self.on = on
        self.t0 = time.perf_counter()
        self.spans = []

    def add(self, name, start, end, parent, run):
        if not self.on:
            return -1
        self.spans.append({"id": len(self.spans), "name": name,
                           "layer": "serve" if parent >= 0 else "bench",
                           "start_s": start - self.t0,
                           "end_s": end - self.t0,
                           "parent": parent, "run": run})
        return len(self.spans) - 1

    def self_time_per_session(self, layer):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end_s"] - s["start_s"]
        sessions = sum(1 for s in self.spans if s["parent"] < 0)
        return sum(s["end_s"] - s["start_s"] - child[i]
                   for i, s in enumerate(self.spans)
                   if s["layer"] == layer) / max(1, sessions)


class Daemon:
    """One occamy-serve process driven over stdin/stdout by a closed-loop
    client: one request in flight. The daemon runs on CPU @p cpu: on a
    shared host each CPU has slow phases of its own, so sessions are
    spread over all CPUs and a request's fastest repeat is taken over all
    of them."""

    def __init__(self, binary, workdir, cpu):
        self.proc = subprocess.Popen(
            [binary], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1, cwd=workdir,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        self.next_id = 0
        # A killed daemon closes stdout, so a blocked read ends in Fail.
        self.watchdog = threading.Timer(SESSION_TIMEOUT_S, self.kill)
        self.watchdog.start()

    def kill(self):
        """SIGKILL without reaping (Popen.kill may reap, and close() needs
        the wait4 rusage)."""
        os.kill(self.proc.pid, signal.SIGKILL)

    def request(self, cmd, **kv):
        """Send one request; returns (final reply, latency seconds)."""
        self.next_id += 1
        req = dict(cmd=cmd, id=str(self.next_id), **kv)
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
        except OSError as e:
            raise Fail("occamy-serve gone before %s: %s" % (cmd, e))
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise Fail("occamy-serve exited during %s" % cmd)
            try:
                reply = json.loads(line)
            except ValueError:
                raise Fail("occamy-serve sent a bad line: %r" % line)
            if reply.get("ok") is False or reply.get("event") in FINAL_EVENTS:
                return reply, time.perf_counter() - t0

    def close(self):
        """Shut down and reap; returns the daemon's peak RSS in MB."""
        try:
            self.request("shutdown")
            self.proc.stdin.close()
        except (OSError, Fail):
            self.kill()
        self.watchdog.cancel()
        self.watchdog.join()
        _, _, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = 0
        self.proc.stdout.close()
        return ru.ru_maxrss / 1024.0


def session(binary, workdir, rng, index, spans, traced):
    """One serve pass: spawn, hello, pool prefill, then the request mix.
    Returns the pass record."""
    t0 = time.perf_counter()
    root = spans.add("serve session %d" % index, t0, t0, -1, index) \
        if traced else -1
    rec = {"requests": [], "request_cpu": [], "failed": 0, "attempted": 0,
           "problems": [], "cycles": 0, "pool_hits": 0, "pool_asks": 0,
           "expect": []}
    cpus = sorted(os.sched_getaffinity(0))
    d = Daemon(binary, workdir, cpus[index % len(cpus)])
    try:
        def ask(cmd, **kv):
            start = time.perf_counter()
            reply, lat = d.request(cmd, **kv)
            if traced:
                spans.add(cmd, start, start + lat, root, index)
            rec["attempted"] += 1
            if reply.get("ok") is False or reply.get("timed_out"):
                rec["failed"] += 1
                rec["problems"].append("%s: %s" % (cmd, reply))
            return reply, lat

        runs = SERVE_POLICIES[:]
        rng.shuffle(runs)
        ckpt_after = rng.randrange(3, 10)
        inspect_after = rng.randrange(1, STEPS)
        session = dict(policy=SESSION_POLICY, pair=SERVE_PAIR)

        ask("hello")
        for pol in runs:
            ask("pool", policy=pol, pair=SERVE_PAIR, count="1")
        ask("pool", count="1", **session)
        rec["setup_s"] = process_cpu_s(d.proc.pid)

        def timed(cmd, what="", **kv):
            """A request of the mix; "cmd/what" names it across
            sessions. Records its latency and the daemon's CPU seconds
            for it (the daemon is idle between requests)."""
            cpu0 = process_cpu_s(d.proc.pid)
            reply, lat = ask(cmd, **kv)
            name = cmd + "/" + what
            rec["requests"].append((name, lat))
            rec["request_cpu"].append((name,
                                       process_cpu_s(d.proc.pid) - cpu0))
            return reply, lat

        for pol in runs:
            reply, lat = timed("run", pol, policy=pol, pair=SERVE_PAIR)
            rec["pool_asks"] += 1
            rec["pool_hits"] += bool(reply.get("pool_hit"))
            rec["cycles"] += reply.get("cycles_simulated", 0)
            if reply.get("ok"):
                rec["expect"].append((SERVE_LABEL + "/" + pol,
                                      reply["cycles"]))
        reply, _ = timed("load", **session)
        rec["pool_asks"] += 1
        rec["pool_hits"] += bool(reply.get("pool_hit"))
        ckpt = os.path.join(workdir, "session.ckpt")
        for step in range(1, STEPS + 1):
            timed("step", str(step), cycles=str(STEP_CYCLES))
            if step == inspect_after:
                timed("inspect", path=rng.choice(INSPECT_PATHS))
            if step == ckpt_after:
                reply, _ = timed("checkpoint", file=ckpt)
                rec["ckpt_bytes"] = reply.get("bytes", 0)
                timed("restore", file=ckpt, **session)
        reply, _ = timed("finalize")
        rec["cycles"] += reply.get("cycles", 0)
        if reply.get("ok"):
            rec["expect"].append((SERVE_LABEL + "/" + SESSION_POLICY,
                                  reply["cycles"]))
    except Fail as e:
        # The daemon died or spoke garbage: the session is one failed
        # operation and is left out of the timings.
        rec["attempted"] += 1
        rec["failed"] += 1
        rec["problems"].append(str(e))
        rec["broken"] = True
    finally:
        rec["peak_rss_mb"] = d.close()
    rec["wall_s"] = time.perf_counter() - t0
    if traced and root >= 0:
        spans.spans[root]["end_s"] = time.perf_counter() - spans.t0
    return rec


def run_serve(bdir, a, spans_path):
    workdir = os.path.join(OUT, "serve")
    os.makedirs(workdir, exist_ok=True)
    binary = os.path.join(bdir, "occamy-serve")
    spans = Spans(bool(a.trace))
    rng = random.Random(a.seed)
    passes = []
    start = time.perf_counter()
    slowest = 0.0
    # A session starts only if one as long as the slowest so far still
    # ends within --seconds; traced runs alternate untraced and traced.
    while (len(passes) < (2 if a.trace else 1) or
           time.perf_counter() - start + slowest <= a.seconds):
        i = len(passes)
        rec = session(binary, workdir, random.Random(rng.random()), i,
                      spans, a.trace and i % 2 == 1)
        rec["traced"] = bool(a.trace and i % 2 == 1)
        slowest = max(slowest, rec["wall_s"])
        passes.append(rec)

    problems = [p for r in passes for p in r["problems"]]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)

    # Final cycles must equal the in-process run of the same spec.
    specs = sorted({spec for r in passes for spec, _ in r["expect"]})
    refs = {r["spec"]: r for r in harness(bdir, ["--serve-ref"] + specs)}
    table = load_digests()
    for spec in specs:
        ref = refs[spec]
        if ref["error"] or ref["digest"] != \
                table.get("paper_pairs/" + spec, {}).get("digest"):
            problems.append("in-process reference %s unsound" % spec)
    for r in passes:
        for spec, cycles in r["expect"]:
            if cycles != refs[spec]["cycles"]:
                failed += 1
                problems.append("%s: serve cycles %s, in-process %s"
                                % (spec, cycles, refs[spec]["cycles"]))
    if problems and failed == 0:
        failed = 1

    plain = [r for r in passes if not r["traced"] and "broken" not in r]
    if not plain:
        raise Fail("no serve session completed")
    req = fastest(x for r in plain for x in r["requests"])
    cpu = fastest(x for r in plain for x in r["request_cpu"])
    setup = min(r["setup_s"] for r in plain)
    simulating = sum(v for k, v in cpu.items()
                     if k.split("/")[0] in ("run", "step", "finalize"))
    m = {
        "pass_cpu_s": setup + sum(cpu.values()),
        "sim_cycles_per_cpu_s": plain[0]["cycles"] / simulating,
        "setup_s": setup,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "req_p50_ms": median(list(req.values())) * 1e3,
        "req_tail_ms": max(req.values()) * 1e3,
    }
    info = {"req": "one occamy-serve request, write to final reply, "
                   "at its fastest over the sessions",
            "req_kinds": len(req),
            "req_samples": sum(len(r["requests"]) for r in plain),
            "passes_untraced": len(plain),
            "passes_traced": sum(1 for r in passes if r["traced"])}
    if a.trace:
        traced = [r for r in passes if r["traced"] and "broken" not in r]
        m = {}
        for cmd in ["run", "load", "step", "checkpoint", "restore",
                    "finalize"]:
            m["serve.%s_ms" % cmd] = median(
                [lat for r in traced for c, lat in r["requests"]
                 if c.split("/")[0] == cmd]) * 1e3
        m["serve.pool_hit_rate"] = (sum(r["pool_hits"] for r in traced) /
                                    max(1, sum(r["pool_asks"]
                                               for r in traced)))
        m["serve.self_s"] = spans.self_time_per_session("serve")
        m["ckpt.bytes"] = median([r.get("ckpt_bytes", 0) for r in traced])
        m["bench.trace_overhead_s"] = (
            min(r["wall_s"] for r in traced) -
            min(r["wall_s"] for r in plain))
        m["bench.pass_wall_s"] = median([r["wall_s"] for r in plain])
        m["bench.failed_frac"] = failed / max(attempted, 1)
        with open(spans_path, "w") as f:
            json.dump(spans.spans, f, indent=0)
    return m, info, attempted, failed, problems


# ------------------------------------------------------------------- main

def record_digests(bdir):
    table = {}
    for r in harness(bdir, ["--digests"], timeout=1800):
        if r["error"]:
            raise Fail("%s: %s" % (r["key"], r["error"]))
        table[r["key"]] = {"digest": r["digest"], "cycles": r["cycles"]}
        # What the traffic streams and the cluster run exercise, quoted
        # in README.md.
        if r["key"].startswith("traffic_bursty/"):
            for k in ["shed", "deferrals", "overload_enters"]:
                table[r["key"]][k] = r[k]
            table[r["key"]]["tick_ratio"] = round(r["tick_ratio"], 4)
        if r["key"] == "cluster_4x4":
            for k in ["migrations", "arbiter_rebalances"]:
                table[r["key"]][k] = r[k]
        log("%-28s %s %10d cycles" % (r["key"], r["digest"], r["cycles"]))
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--sanitize", choices=["OFF", "ON", "TSAN"],
                    default="OFF")
    ap.add_argument("--record-digests", action="store_true")
    a = ap.parse_args()

    bdir = build(a.sanitize)
    if a.record_digests:
        record_digests(bdir)
        return 0
    if not a.workload:
        ap.error("--workload is required")

    prov = harness(bdir, ["--provenance"])[0]
    prov.update(seed=a.seed, workload=a.workload, trace=a.trace,
                seconds=a.seconds, git_commit=git_commit())
    if not a.trace and (prov["occamy_sanitize"] != "OFF" or
                        prov["sanitizer_compiled"] != "none"):
        raise Fail("refusing end-to-end numbers from a sanitizer build")

    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d"
                        % (a.workload, a.seed, a.trace))
    spans_path = stem + "-spans.json"
    if a.workload == "serve_session":
        m, info, attempted, failed, problems = run_serve(bdir, a, spans_path)
    else:
        m, info, attempted, failed, problems = run_inprocess(bdir, a,
                                                             spans_path)

    units = {x["name"]: x["unit"]
             for x in SPEC["per_layer" if a.trace else "end_to_end"]}
    metrics = {name: {"value": m.get(name, 0.0), "unit": units[name]}
               for name in units}
    for p in problems:
        print("CHECK FAILED: " + p)
    for name, v in metrics.items():
        print("%-28s %16.6f %s" % (name, v["value"], v["unit"]))
    print("req: %s; %d kinds, %d samples"
          % (info["req"], info["req_kinds"], info["req_samples"]))
    record = {"provenance": prov, "info": info, "problems": problems,
              "spans": spans_path if a.trace else None, "metrics": metrics}
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    info.pop("req_fastest_ms", None)     # in the record file only
    print(json.dumps({"provenance": prov, **info}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fail as e:
        log("perfbench: " + str(e))
        sys.exit(1)
