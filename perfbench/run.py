"""perfbench: host cost of the reproduction, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload net-tx --seed 1 --seconds 15 --trace 0

Workloads: ``net-tx``, ``blk-mixed``, ``module-churn`` (see
``workloads.py`` and ``BENCHMARK.json``).  One process, one thread; the
program under test is imported from ``src/``.

A run sets the system up several times (reporting the median set-up),
warms it up, then issues ops in a closed loop for ``--seconds`` and
checks every output.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Host times (``setup_s``, ``wall_s``, the ``host_*`` metrics and every
per-layer time) are reported at a reference host speed: a fixed Python
loop is timed between chunks of work and each raw time is scaled by how
much slower or faster than the reference that loop ran (``hostspeed.py``).
The shared host's speed drifts by tens of percent over minutes; the
scaling keeps runs comparable.  Raw wall-clock values are printed beside
the scaled ones, and ``--seconds`` is a budget in reference time (the
timed phase also stops after ``RAW_CAP`` times as much raw time).

``--trace 0`` reports the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` wraps each layer's entry points
(``tracing.py``), reports the per-layer metrics, writes the spans to
``perfbench/out/``, and then runs the same workload untraced in a child
process to report what tracing cost.
"""

from time import perf_counter, perf_counter_ns

#: Process start, as far as the benchmark can see it.
T0 = perf_counter()
T0_NS = perf_counter_ns()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("net-tx", "blk-mixed", "module-churn")
#: Candidate tail percentiles; the reported tail is the highest one with
#: at least ``TAIL_BEYOND`` samples above it.  No rung is a multiple of
#: 1/8: module-churn's eight equally frequent configurations form
#: separate latency clusters, and a percentile on their boundary follows
#: a cluster's extreme samples.
TAIL_LADDER = (99.9, 99.0, 90.0, 80.0, 50.0)
TAIL_BEYOND = 10
#: The timed phase also ends after this many times ``--seconds`` of raw
#: wall time, so a run's length stays bounded on a host running much
#: slower than the reference.
RAW_CAP = 2.5
#: Extra imports of the program, each in a child process, behind the
#: import share of ``setup_s`` (an import cannot be repeated in-process).
IMPORT_PROBES = 2


def nearest_rank(sorted_values, pct: float):
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(sorted_values):
    """``(percentile, value, samples beyond it)`` for the highest ladder
    percentile that leaves at least ``TAIL_BEYOND`` samples above it."""
    n = len(sorted_values)
    for pct in TAIL_LADDER:
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= TAIL_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, nearest_rank(sorted_values, pct), beyond
    raise AssertionError("unreachable")


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def pin_to_one_cpu():
    """Keep this process (and the children it starts) on the CPU it is
    running on, and return that CPU (None where pinning is unavailable).
    The vCPUs of a shared host run at different speeds, so a calibration
    sample only describes the work around it when both ran on the same
    one."""
    try:
        allowed = os.sched_getaffinity(0)
        stat = Path("/proc/self/stat").read_text()
        cpu = int(stat.rsplit(")", 1)[1].split()[36])
        cpu = cpu if cpu in allowed else min(allowed)
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError, IndexError, ValueError):
        return None


def ratio(num, den) -> float:
    return num / den if den else 0.0


def git_sha():
    """The checkout's commit, read from ``.git`` without running git;
    None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over ``src/`` (paths and contents), which identifies the
    program measured even where there is no git metadata."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- the measured run ---------------------------------------------------------


def measure(name: str, seed: int, seconds: float, scale_name: str, tracer,
            speed):
    """Set up, warm up, run the timed phase, check outputs.  Returns a dict
    of raw results (no formatting).  ``speed`` is sampled after every
    set-up and every chunk of timed ops; its time is left out of both."""
    from repro.vm.compiled import TRANSLATION_CACHE
    from workloads import SCALES, WORKLOADS

    scale = SCALES[scale_name]
    cls = WORKLOADS[name]
    wl = cls(seed, scale)
    if tracer is not None:
        tracer.install([(cls, "setup", "bench.setup"), (cls, "op", "bench.op")])

    builds = []
    run_ns = 0
    before_build = speed.sample()
    for k in range(scale.setups):
        if k:
            wl.teardown()
        # Each set-up starts as a fresh process would: with an empty
        # process-wide translation code cache and no pending garbage.
        TRANSLATION_CACHE.clear()
        gc.collect()
        run_ns = perf_counter_ns()
        wl.setup()
        raw = perf_counter_ns() - run_ns
        after_build = speed.sample()
        builds.append((raw, speed.factor(before_build, after_build)))
        before_build = after_build
    wl.warmup()

    rec = wl.rec
    before = wl.counters()
    timed_ns = perf_counter_ns()
    budget_ns = seconds * 1e9
    cap_ns = timed_ns + RAW_CAP * budget_ns
    window = None
    rss_kb = None
    # (ops before the chunk, raw ns, calibration sample after it)
    chunks = [(0, 0, speed.sample())]
    # The budget is in reference-speed time, so a run does about the same
    # work whatever phase the host is in.
    spent = 0.0
    while True:
        t0 = perf_counter_ns()
        wl.run_chunk()
        raw = perf_counter_ns() - t0
        ops = len(rec.host_ns)
        after_chunk = speed.sample()
        chunks.append((ops, raw, after_chunk))
        spent += raw * speed.factor(max(0, after_chunk - 2), after_chunk)
        if window is None and ops >= wl.window_ops:
            rec.in_window = False
            window = wl.sim_counters()
        if rss_kb is None and wl.rss_ops and ops >= wl.rss_ops:
            rss_kb = peak_rss_kb()
        # Stop at the stop_every boundary nearest the deadline.
        if window is not None and ops % wl.stop_every == 0:
            if (spent + spent / (ops // wl.stop_every) / 2 >= budget_ns
                    or perf_counter_ns() >= cap_ns):
                break
    if rss_kb is None:
        rss_kb = peak_rss_kb()
    after = wl.counters()
    failures = wl.finish()
    if after["policy"]["denied"]:
        failures.append(f"policy denied {after['policy']['denied']} accesses")
    verified = perf_counter()
    # Closes the last gap of the reference-speed wall time.
    speed.sample()
    return {
        "workload": wl, "builds": builds, "run_ns": run_ns,
        "timed_ns": timed_ns, "chunks": chunks, "window": window,
        "before": before, "after": after, "failures": failures,
        "verified": verified, "rss_kb": rss_kb,
    }


def scaled_ops(r, speed):
    """Per-op host latencies and the timed phase's duration, raw and at
    reference speed, plus the ops per reference second of each window of
    ``rate_window`` consecutive ops.  Chunk ``j`` is scaled by the median
    of the three calibration samples around it."""
    wl = r["workload"]
    lat = wl.rec.host_ns
    chunks = r["chunks"]
    last = chunks[-1][2]
    scaled, raw_total, ref_total = [], 0, 0.0
    rates, win_ops, win_ns = [], 0, 0.0
    for j in range(1, len(chunks)):
        lo, _, prev_sample = chunks[j - 1]
        hi, raw, _ = chunks[j]
        f = speed.factor(prev_sample, min(prev_sample + 2, last))
        scaled.extend(ns * f for ns in lat[lo:hi])
        raw_total += raw
        ref_total += raw * f
        win_ops += hi - lo
        win_ns += raw * f
        if win_ops >= wl.rate_window:
            rates.append(win_ops / win_ns * 1e9)
            win_ops, win_ns = 0, 0.0
    return scaled, raw_total / 1e9, ref_total / 1e9, rates


def kind_p50(scaled, kinds, n_kinds: int) -> float:
    """The median latency of each op kind, weighted by how many ops of
    that kind ran; the plain median when there is one kind."""
    total = 0.0
    for k in range(n_kinds):
        of_kind = [ns for ns, kind in zip(scaled, kinds) if kind == k]
        if of_kind:
            total += statistics.median(of_kind) * len(of_kind)
    return total / len(scaled)


def end_to_end(r, imports, speed) -> tuple[dict, dict]:
    """The end-to-end metrics, plus the raw values, sample counts and tail
    percentile behind them.  ``imports`` holds ``(raw s, factor)`` of
    each measured import of the program."""
    wl = r["workload"]
    rec = wl.rec
    lat_raw = sorted(rec.host_ns)
    scaled, timed_raw_s, timed_ref_s, rates = scaled_ops(r, speed)
    lat = sorted(scaled)
    pct, tail_ns, beyond = tail(lat)
    sim = sorted(rec.sim_latency)
    import_ref = statistics.median(raw * f for raw, f in imports)
    build_ref = statistics.median(raw * f for raw, f in r["builds"]) / 1e9
    metrics = {
        "setup_s": import_ref + build_ref,
        # Less the benchmark's own calibration passes.
        "wall_s": speed.ref_elapsed_ns(T0_NS) / 1e9,
        # The median window, so a short phase the calibration tracks
        # badly does not move it.
        "host_ops_per_s": (statistics.median(rates) if rates
                           else len(lat) / timed_ref_s),
        "host_op_p50_us": kind_p50(scaled, rec.kinds, wl.op_kinds) / 1e3,
        "host_op_tail_us": tail_ns / 1e3,
        "sim_ops_per_s": len(sim) / wl.machine.seconds(rec.sim_cycles),
        "sim_op_p50_cycles": statistics.median(sim),
        "sim_op_p99_cycles": nearest_rank(sim, 99.0),
        "peak_rss_mb": r["rss_kb"] / 1024,
    }
    attempted = len(lat) + len(wl.warm_rec.host_ns)
    failed = rec.failed + wl.warm_rec.failed + len(r["failures"])
    extra = {
        "host_ops": len(lat),
        "rate_windows": len(rates),
        "host_op_tail_percentile": pct,
        "host_op_tail_beyond": beyond,
        "sim_ops": len(sim),
        "attempted": attempted,
        "failed": failed,
        "error_rate": ratio(failed, attempted),
        "raw": {
            "wall_s": r["verified"] - T0,
            "setup_s": (statistics.median(raw for raw, _ in imports)
                        + statistics.median(raw for raw, _ in r["builds"]) / 1e9),
            "import_s": [raw for raw, _ in imports],
            "setup_builds_s": [raw / 1e9 for raw, _ in r["builds"]],
            "timed_s": timed_raw_s,
            "host_ops_per_s": len(lat) / timed_raw_s,
            "host_op_p50_us": kind_p50(rec.host_ns, rec.kinds, wl.op_kinds) / 1e3,
            "host_op_tail_us": nearest_rank(lat_raw, pct) / 1e3,
        },
        "speed_factor": speed.run_factor(),
        "calibration_samples": len(speed.samples),
    }
    sim_metrics = {k: v for k, v in metrics.items() if k.startswith("sim_")}
    extra["sim_fingerprint"] = hashlib.sha256(json.dumps(
        {"sim": sim_metrics, "counters": r["window"]}, sort_keys=True,
    ).encode()).hexdigest()[:16]
    return metrics, extra


def per_layer(tracer, r, factor: float) -> dict:
    """The per-layer metrics.  Layer times and call counts cover the last
    set-up and everything after it; per-op figures cover the timed phase.
    Host times are scaled to reference speed by the run's ``factor``."""
    run = tracer.self_times(r["run_ns"])
    timed = tracer.self_times(r["timed_ns"])
    ops = len(r["workload"].rec.host_ns)
    before, after = r["before"], r["after"]
    pb, pa = before["policy"], after["policy"]

    def secs(name, agg=run):
        return agg.get(name, (0, 0))[1] / 1e9 * factor

    def calls(name, agg=run):
        return agg.get(name, (0, 0))[0]

    def delta(key):
        return after[key] - before[key]

    def pdelta(key):
        return pa[key] - pb[key]

    compiles = [c for c in tracer.compiles if c[0] >= r["run_ns"]]
    instr = delta("instructions")
    hits, misses = after["tcache"]
    m = {
        "minicc.s": secs("minicc"),
        "ir.verify.s": secs("ir.verify"),
        "ir.verify.calls": calls("ir.verify"),
    }
    for p in ("mem2reg", "peephole", "dce", "kop-guard", "kop-guard-opt"):
        m[f"passes.{p}.s"] = secs(f"passes.{p}")
    m.update({
        "absint.s": secs("absint"),
        "absint.guards_proven": sum(c[2] for c in compiles),
        "absint.guards_dynamic": sum(c[3] for c in compiles),
        "signing.s": secs("signing"),
        "compile.self_s": secs("compile"),
        "compile.calls": len(compiles),
        "compile.repeat_ratio": ratio(
            len(compiles) - len({c[1] for c in compiles}), len(compiles)),
        "insmod.s": secs("insmod"),
        "insmod.reverify.s": secs("insmod.reverify"),
        "rmmod.s": secs("rmmod"),
        "vm.translate.s": secs("vm.translate"),
        "vm.translate.calls": calls("vm.translate"),
        "vm.translation_cache_hit_ratio": ratio(hits, hits + misses),
        "vm.exec.self_s": secs("vm.exec"),
        "vm.instr_per_op": ratio(instr, ops),
        "vm.host_ns_per_instr": ratio(secs("vm.exec", timed) * 1e9, instr),
        "policy.check.s": secs("policy.check"),
        "policy.checks_per_op": ratio(pdelta("checks"), ops),
        "policy.comparisons_per_check": ratio(pdelta("comparisons"), pdelta("checks")),
        "policy.guard_cache_hit_ratio": ratio(
            pdelta("guard_cache_hits"),
            pdelta("guard_cache_hits") + pdelta("guard_cache_misses")),
        "policy.denied": pa["denied"],
        "e1000e.mmio.s": secs("e1000e.mmio"),
        "e1000e.mmio_per_op": ratio(calls("e1000e.mmio", timed), ops),
        "net.sendmsg.self_s": secs("net.sendmsg"),
        "net.stalls_per_op": ratio(delta("net_stalls"), ops),
        "vblk.mmio.s": secs("vblk.mmio"),
        "vblk.mmio_per_op": ratio(calls("vblk.mmio", timed), ops),
        "vblk.dma_sectors_per_op": ratio(delta("dma_sectors"), ops),
        "blk.submit.self_s": secs("blk.submit"),
        "blk.stalls_per_op": ratio(delta("blk_stalls"), ops),
        "policy.mutate.s": secs("policy.mutate"),
        "policy.mutations": calls("policy.mutate"),
        "kernel.verify_demotions": after["verify_demotions"],
        "bench.op.self_s": secs("bench.op"),
        "trace.spans": len(tracer),
        "trace.nesting_violations": tracer.nesting_violations(),
    })
    return m


def probe_import(args) -> tuple[float, float]:
    """``(raw s, factor)`` of one import of the program in a fresh child
    process, measured the way this process measured its own."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--probe-import"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    raw, factor = json.loads(proc.stdout.strip().splitlines()[-1])
    return raw, factor


def untraced_reference(args) -> dict:
    """Run the same workload and seed untraced in a child process (so no
    wrapper is ever installed in it) and return its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0",
           "--scale", args.scale]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"untraced reference run failed: rc={proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: short runs for the benchmark's self-test")
    ap.add_argument("--probe-import", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {src}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from hostspeed import HostSpeed

    # Calibrate right after the import, not before it: the first passes
    # of a fresh process run slow.
    speed = HostSpeed()
    import workloads  # noqa: F401  (imports the program)
    import_s = perf_counter() - T0
    first = speed.sample()
    speed.sample()
    import_factor = speed.factor(first, speed.sample())
    if args.probe_import:
        print(json.dumps([import_s, import_factor]))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    r = measure(args.workload, args.seed, args.seconds, args.scale, tracer,
                speed)
    # After the result is verified, so wall_s does not include them.
    imports = [(import_s, import_factor)] + [
        probe_import(args) for _ in range(IMPORT_PROBES)]
    e2e, extra = end_to_end(r, imports, speed)
    failures = r["failures"]
    correct = extra["failed"] == 0

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    units = load_units()
    if tracer is None:
        metrics = e2e
    else:
        metrics = per_layer(tracer, r, extra["speed_factor"])
        tracer.uninstall()
        tracer.write(OUT / f"{stem}.spans.gz")
        ref = untraced_reference(args)
        ref_m = ref["metrics"]
        metrics["trace.wall_overhead_s"] = e2e["wall_s"] - ref_m["wall_s"]["value"]
        metrics["trace.ops_slowdown"] = ratio(
            ref_m["host_ops_per_s"]["value"], e2e["host_ops_per_s"])
        correct = correct and ref["correct"] and metrics["trace.nesting_violations"] == 0
        if metrics["trace.nesting_violations"]:
            failures.append(f"{metrics['trace.nesting_violations']} spans "
                            "outside their parent")

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "traced": bool(args.trace),
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(), "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:>16.6g} {units.get(key, '')}")
    print(f"  ops timed {extra['host_ops']}; tail = p{extra['host_op_tail_percentile']:g} "
          f"({extra['host_op_tail_beyond']} samples beyond); "
          f"sim window {extra['sim_ops']} ops")
    raw = ", ".join(f"{k} {v:.6g}" for k, v in extra["raw"].items()
                    if not isinstance(v, list))
    print(f"  host-speed factor {extra['speed_factor']:.4f} "
          f"({extra['calibration_samples']} samples); raw: {raw}")
    print(f"  error_rate {extra['error_rate']:.6g} "
          f"({extra['failed']}/{extra['attempted']}); "
          f"sim_fingerprint {extra['sim_fingerprint']}")
    for note in r["workload"].notes[:20] + failures:
        print(f"  FAILED: {note}")
    report = {"meta": meta, "extra": extra, "end_to_end": e2e, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("perfbench-meta " + json.dumps({**meta, **extra}))
    print(json.dumps({
        "correct": correct,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
