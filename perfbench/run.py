#!/usr/bin/env python3
"""Fixed-work benchmark of the ACSR SpMV stack: solve, serve and stream.

    python3 perfbench/run.py --workload solve|serve|stream --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload in its own single-threaded process and prints, as the last line of
stdout, one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 the per-layer metrics, from a traced process run after an
untraced one. perfbench/README.md documents workloads, metrics and bounds.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve", "serve", "stream")


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(target="perfbench"):
    """Configure once, then (re)build; build output goes to stderr."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no program sources next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, target)


def child_env():
    """The binary switches the memo plane and the fault plan itself; every
    other plane of the program (profiler, tracer, SLO monitor, sanitizer,
    verifier) stays off, so no ACSR_* variable reaches a run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ACSR_")}


def pin_to_one_cpu():
    """Keep the single-threaded run on one core (the last one this process
    may use): unpinned, the scheduler migrates it between cores mid-run,
    which on a shared 4-core host doubled the run-to-run spread of
    op_ms_p50 in an interleaved A/B (22% -> 10% IQR over median)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_pass(binary, workload, seed, seconds, trace, delay_us=0.0,
             spans_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0"]
    if delay_us:
        cmd += ["--inject-delay-us", repr(float(delay_us))]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, env=child_env(), timeout=170,
                       preexec_fn=pin_to_one_cpu)
    if p.returncode != 0:
        raise SystemExit("perfbench: %s pass failed (exit %d): %s"
                         % (workload, p.returncode, p.stderr.strip()))
    return json.loads(p.stdout.strip().splitlines()[-1])


def det_diff(a, b):
    """Names of the deterministic quantities that are not bitwise equal."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def repeat_gate(binary, res, seconds):
    """Compare this run's deterministic quantities with an earlier run of
    the same binary, workload, seed and size, kept in the build directory.
    Returns the names that differ (empty on the first run)."""
    ddir = os.path.join(build_dir(), "digests")
    os.makedirs(ddir, exist_ok=True)
    key = "%s-%s-%s-%s" % (file_sha256(binary)[:16], res["workload"],
                           res["seed"], repr(float(seconds)))
    path = os.path.join(ddir, key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            return det_diff(json.load(f), res["det"])
    with open(path, "w") as f:
        json.dump(res["det"], f, sort_keys=True)
    return []


def cache_size(level):
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            with open(os.path.join(d, "level")) as f:
                if f.read().strip() != str(level):
                    continue
            with open(os.path.join(d, "type")) as f:
                if f.read().strip() == "Instruction":
                    continue
            with open(os.path.join(d, "size")) as f:
                return f.read().strip()
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(res):
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "l2": cache_size(2), "l3": cache_size(3),
            "acsr_scale": res["acsr_scale"],
            "matrix_bytes": res["matrix_bytes"]}


def metric_specs(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[section]


def main_run(args):
    binary = build()
    untraced = run_pass(binary, args.workload, args.seed, args.seconds, False)
    problems = ["op failed: " + e for e in untraced["errors"]]
    repeat = repeat_gate(binary, untraced, args.seconds)
    if repeat:
        problems.append("determinism: differs from an earlier run of this "
                        "seed in " + ", ".join(repeat))
    if args.trace:
        spans = os.path.join(build_dir(), "spans-%s-%d.tsv"
                             % (args.workload, args.seed))
        traced = run_pass(binary, args.workload, args.seed, args.seconds,
                          True, spans_out=spans)
        diff = det_diff(untraced["det"], traced["det"])
        if diff:
            problems.append("determinism: traced run differs in "
                            + ", ".join(diff))
        if not traced["ledger_ok"]:
            problems.append("ledger: %.4f of the traced run_s unattributed "
                            "(tolerance %g)" % (
                                traced["layer"]["ledger.unattributed_frac"],
                                traced["ledger_tol"]))
        problems += ["op failed (traced): " + e for e in traced["errors"]]
        values = dict(traced["layer"])
        values["trace.overhead_frac"] = (traced["e2e"]["run_s"]
                                         / untraced["e2e"]["run_s"] - 1.0)
        specs = metric_specs("per_layer")
        out = traced
    else:
        values = dict(untraced["e2e"])
        values["ok_frac"] = 1.0 - values["fail_frac"]
        specs = metric_specs("end_to_end")
        out = untraced
    for p in problems:
        log("perfbench:", p)
    print("# host: " + json.dumps(fingerprint(out)))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    print(json.dumps({"correct": not problems and out["failed"] == 0,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))


# --- self-test ------------------------------------------------------------

def check(ok, what):
    log(("ok    " if ok else "FAIL  ") + what)
    return bool(ok)


def selftest():
    ok = True
    unit = build("perfbench_selftest")
    ok &= check(subprocess.run([unit]).returncode == 0,
                "unit tests: percentile rule, self time, ledger closure")
    binary = build()

    # Sensitivity: a busy-wait of d per engine call, injected in the
    # decorator, must raise run_s by about calls x d and land in
    # engine.self_s, not in the self time of the layer that called it.
    # The delays dwarf the run-to-run drift of a 2-second run, so each
    # check's tolerance holds against a shared host's noise.
    for wl, seconds, d_us, parent in (("solve", 2, 20000.0, "apps.self_s"),
                                      ("serve", 2, 1000000.0,
                                       "serve.self_s")):
        base = run_pass(binary, wl, 7, seconds, False)
        slow = run_pass(binary, wl, 7, seconds, False, delay_us=d_us)
        tbase = run_pass(binary, wl, 7, seconds, True)
        tslow = run_pass(binary, wl, 7, seconds, True, delay_us=d_us)
        want = tslow["layer"]["engine.calls"] * d_us * 1e-6
        got = slow["e2e"]["run_s"] - base["e2e"]["run_s"]
        ok &= check(abs(got - want) <= 0.25 * want,
                    "%s: run_s rises by calls x d (%.3f s for %.3f s)"
                    % (wl, got, want))
        eng = tslow["layer"]["engine.self_s"] - tbase["layer"]["engine.self_s"]
        ok &= check(abs(eng - want) <= 0.25 * want,
                    "%s: engine.self_s takes the delay (%.3f s for %.3f s)"
                    % (wl, eng, want))
        par = tslow["layer"][parent] - tbase["layer"][parent]
        ok &= check(abs(par) <= 0.1 * want,
                    "%s: %s does not (%.3f s)" % (wl, parent, par))
        ok &= check(tslow["ledger_ok"] and tbase["ledger_ok"],
                    "%s: traced ledgers close" % wl)
        # Determinism: repeat and traced runs of one seed agree bitwise.
        again = run_pass(binary, wl, 7, seconds, False)
        ok &= check(not det_diff(base["det"], again["det"])
                    and not det_diff(base["det"], tbase["det"]),
                    "%s: deterministic quantities repeat bitwise" % wl)
        # Seed check: another seed changes the inputs, and nothing fails.
        other = run_pass(binary, wl, 8, seconds, False)
        changed = [k for k in ("sim_ms", "vgpu.warps", "vgpu.gmem_bytes")
                   if other["det"][k] != base["det"][k]]
        ok &= check(changed and other["failed"] == 0 and base["failed"] == 0,
                    "%s: seed 8 changes %s, fail_frac stays 0"
                    % (wl, ", ".join(changed) or "nothing"))

    # The layer split of the prediction table, from one traced run each.
    split = {wl: run_pass(binary, wl, 7, 2 if wl != "stream" else 8, True)
             for wl in WORKLOADS}
    for name, home in (("memo.hits", "solve"), ("io.reads", "stream"),
                       ("serve.batches", "serve")):
        ok &= check(all((split[wl]["layer"][name] > 0) == (wl == home)
                        for wl in WORKLOADS),
                    "%s > 0 only on %s" % (name, home))
    ok &= check(all(s["failed"] == 0 and s["ledger_ok"]
                    for s in split.values()),
                "every workload: no failed op, ledger closes")
    log("perfbench selftest: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    main_run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
