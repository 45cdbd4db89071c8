"""Benchmark runner for landau: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload table --seed 1 --seconds 15 --trace 0

Set-up runs SETUP_REPS times (`setup_s` is their median).  Then passes over
the workload's requests repeat until --seconds have been spent in them; every
output is checked against perfbench/reference.json right after its request,
outside the request's timing.  With --trace 0 the last stdout line carries
the end-to-end metrics, in reference seconds (see bench_calib.py); with
--trace 1 half the time runs untraced and half traced, and the line carries
the per-layer metrics, in raw seconds.  The line before it is a full report
(machine note, error rate, failures); the same report, and the spans of the
first traced pass, are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3
SETUP_SLICES = 10  # calibration slices before and after each set-up
NEAR_SLICES = 8  # a request is scaled by the slices this close to its end, either side
IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"

sys.path.insert(0, str(HERE))
import bench_workloads as bw  # noqa: E402
from bench_calib import CHILD_EVERY_S, REF_CHILD_S, REF_IMPORT_S, Calibration, child_kernel  # noqa: E402
from bench_trace import COMPUTED_COUNTS, Tracer  # noqa: E402

# single-threaded numeric libraries here and in every child process
os.environ.update({v: "1" for v in bw.THREAD_VARS})


def load_landau():
    """Import landau from this checkout's src/, or fail."""
    src = ROOT / "src"
    if not (src / "landau" / "__init__.py").is_file():
        raise ImportError(f"no landau package under {src}")
    sys.path.insert(0, str(src))
    import landau
    import landau.cli  # noqa: F401

    if Path(landau.__file__).resolve().parent != (src / "landau").resolve():
        raise ImportError(f"imported landau from {landau.__file__}, not {src}")
    return landau


def import_probe_s(module: str) -> float:
    """`import <module>` in a fresh interpreter, as the child measures it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(module)],
        env=bw.child_env(ROOT),
        stdout=subprocess.PIPE,
        check=True,
        timeout=bw.CHILD_TIMEOUT_S,
    )
    return float(proc.stdout.split()[-1])


def machine_note(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
        commit = proc.stdout.decode().strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "landau").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def check(req, out, reference):
    """None when the output matches its reference, else the failure."""
    if req.key not in reference:
        return {"key": req.key, "reason": "no reference output"}
    try:
        got = req.fingerprint(out)
    except Exception as exc:  # a broken output is a failed request
        return {"key": req.key, "reason": f"fingerprint raised {exc!r}"}
    if not bw.same(got, reference[req.key]):
        return {"key": req.key, "reason": "differs from reference", "got": got}
    return None


class Pass(NamedTuple):
    wall: float  # sum of the request latencies
    latencies: dict  # request key -> seconds
    failures: list
    attempted: int
    stats: dict | None  # layer stats of a traced pass
    ref_latencies: dict | None  # request key -> reference seconds (with calibration)


def run_pass(workload, state, rng, reference, tracer=None, in_process=False, cal=None):
    """One closed-loop sweep.  Each output is checked, then dropped, right
    after its request, outside the request's timing; the pass's wall time is
    the sum of its request latencies.  With `cal`, calibration slices run at
    the start and end of the pass and between its requests, also outside
    their timing, and each latency is also given in reference seconds by the
    slices nearest its request."""
    requests = workload.plan(state, rng, in_process=in_process)
    if tracer is not None:
        tracer.begin_pass()
    latencies, failures, ends = {}, [], {}
    gc.collect()  # every pass starts from the same heap state
    if cal is not None:
        first = len(cal.slices)
        cal.slice()
    for i, req in enumerate(requests):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = req.run()
            else:
                tracer.request = i
                with tracer.span("request"):
                    out = req.run()
            failure = None
        except Exception as exc:  # a failed request is counted, not fatal
            out, failure = None, {"key": req.key, "reason": f"raised {type(exc).__name__}: {exc}"}
        latencies[req.key] = time.perf_counter() - t0
        if cal is not None:
            ends[req.key] = len(cal.slices)  # slices[ends[key]] is the first one after the request
        if tracer is not None:
            tracer.request = None
            for k, v in workload.request_stats(out).items():
                tracer.stats[k] = tracer.stats.get(k, 0) + v
        failure = failure or check(req, out, reference)
        if failure:
            failures.append(failure)
        del out
        if cal is not None:
            cal.maybe()
    ref = None
    if cal is not None:
        cal.slice()
        ref = {
            key: cal.to_ref(lat, max(first, ends[key] - NEAR_SLICES), ends[key] + NEAR_SLICES)
            for key, lat in latencies.items()
        }
    stats = None
    if tracer is not None:
        stats = {k: v for k, v in tracer.stats.items() if k != "request.s"}
    return Pass(sum(latencies.values()), latencies, failures, len(latencies), stats, ref)


def timed_passes(seconds, *args, **kwargs):
    """Passes until `seconds` have been spent inside them (at least one)."""
    passes, spent = [], 0.0
    while not passes or spent < seconds:
        passes.append(run_pass(*args, **kwargs))
        spent += passes[-1].wall
    return passes


def per_layer_metrics(traced_stats: list[dict], probes: dict, overhead: float, layer_names) -> dict:
    med = {name: statistics.median(s.get(name, 0) for s in traced_stats) for name in layer_names}
    med.update(probes)
    cells, dp_s = med["gtable.landau_g.cells"], med["gtable.landau_g.s"]
    med["gtable.landau_g.cells_per_s"] = cells / dp_s if dp_s > 0 else 0.0
    tried = med["windows.enumerate_B.pairs_tried"]
    med["windows.enumerate_B.kept_ratio"] = med["windows.enumerate_B.kept"] / tried if tried else 0.0
    med["trace.overhead_s"] = overhead
    return med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(bw.SIZES), default="full")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = ap.parse_args(argv)

    try:
        L = load_landau()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    note = machine_note(args.seed)
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(args, spec, L, note, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spec, L, note, workdir) -> int:
    workload = bw.WORKLOADS[args.workload](L, bw.SIZES[args.size][args.workload], ROOT, workdir)
    setup_cal = Calibration()
    setup_cal.burst(SETUP_SLICES)  # warm the kernel up: its first calls are slower
    setup_cal.slices.clear()
    setup_times, setup_ref, numpy_times = [], [], []
    for rep in range(SETUP_REPS):
        # the child's import is scaled by numpy imports around it, the
        # in-process rest by kernel slices around it
        numpy_s = import_probe_s("numpy")
        t_import = import_probe_s("landau")
        numpy_s = (numpy_s + import_probe_s("numpy")) / 2
        first = len(setup_cal.slices)
        setup_cal.burst(SETUP_SLICES)
        t0 = time.perf_counter()
        reference = json.loads(args.reference.read_text())[args.size][args.workload]
        state = workload.setup(rep)
        t_rest = time.perf_counter() - t0
        setup_cal.burst(SETUP_SLICES)
        setup_times.append(t_import + t_rest)
        numpy_times.append(numpy_s)
        setup_ref.append(t_import * REF_IMPORT_S / numpy_s + setup_cal.to_ref(t_rest, first))
    rng = random.Random(args.seed)
    in_process = bool(args.trace) and args.workload == "cli-warm"
    # checked like the rest, but not timed: the first pass pays for cold caches
    warm = [run_pass(workload, state, rng, reference, in_process=in_process) for _ in range(workload.warmup_passes)]

    report = {"workload": args.workload, "size": args.size, "trace": args.trace, "seconds": args.seconds}
    if args.trace:
        plain = timed_passes(args.seconds / 2, workload, state, rng, reference, in_process=in_process)
        tracer = Tracer(L)
        tracer.install()
        try:
            traced = timed_passes(args.seconds / 2, workload, state, rng, reference, tracer, in_process=in_process)
        finally:
            tracer.uninstall()
        probes = workload.trace_probes()
        overhead = statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
        layer_names = [m["name"] for m in spec["per_layer"]]
        values = per_layer_metrics([p.stats for p in traced], probes, overhead, layer_names)
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
        passes = plain + traced
        report["untraced_pass_walls"] = [p.wall for p in plain]
        report["traced_pass_walls"] = [p.wall for p in traced]
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps({"fields": ["id", "name", "start", "end", "parent", "request"], "spans": tracer.spans})
        )
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        if workload.calibrate_in_child:
            cal = Calibration(child_kernel(bw.child_env(ROOT), bw.CHILD_TIMEOUT_S), REF_CHILD_S, CHILD_EVERY_S)
        else:
            cal = Calibration()
        passes = timed_passes(args.seconds, workload, state, rng, reference, cal=cal)
        who = resource.RUSAGE_CHILDREN if workload.rss_who == "children" else resource.RUSAGE_SELF
        failed = sum(len(p.failures) for p in warm + passes)
        values = {
            "setup_s": statistics.median(setup_ref),
            "wall_s": statistics.median(sum(p.ref_latencies.values()) for p in passes),
            "latency_p50_s": statistics.median(lat for p in passes for lat in p.ref_latencies.values()),
            "success_rate": 1 - failed / sum(p.attempted for p in warm + passes),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        report["pass_walls"] = [p.wall for p in passes]
        report["ref_pass_walls"] = [sum(p.ref_latencies.values()) for p in passes]
        report["raw_seconds"] = {
            "wall_s": statistics.median(p.wall for p in passes),
            "latency_p50_s": statistics.median(lat for p in passes for lat in p.latencies.values()),
            "setup_s": statistics.median(setup_times),
        }
        report["calibration"] = {
            "slices": len(cal.slices),
            "median_slice_s": cal.median(),
            "setup_median_slice_s": setup_cal.median(),
            "setup_numpy_import_s": numpy_times,
        }

    attempted = sum(p.attempted for p in warm + passes)
    failures = [f for p in warm + passes for f in p.failures]
    by_kind = {}
    for p in passes:
        for key, lat in p.latencies.items():
            by_kind.setdefault(key.split("#")[0], []).append(lat)
    report["request_latency_s"] = {k: statistics.median(v) for k, v in sorted(by_kind.items())}
    note["loadavg_end"] = list(os.getloadavg())
    report.update(
        {
            "machine": note,
            "setup_times": setup_times,
            "warmup_passes": len(warm),
            "passes": len(passes),
            "attempted": attempted,
            "failed": len(failures),
            "error_rate": len(failures) / attempted,
            "failures": failures[:20],
            "computed_counts": list(COMPUTED_COUNTS),
            "metrics": metrics,
        }
    )
    (OUT_DIR / f"report-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    print(json.dumps(report, default=str))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
