"""hadtrunc benchmark: one closed-loop, single-client workload per process.

    python3 perfbench/run.py --workload {law,cesaro,duality,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
src/ tree, never from an installed copy.  The run repeats the workload's job
list ("a pass") for about S seconds, then checks every result against an
independent oracle (untimed) and prints one JSON object as the last stdout
line.  With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 untraced and traced passes alternate and it reports the
per-layer metrics, and writes every span to .perfbench_out/.

The run pins itself and its children to one CPU with single-threaded BLAS,
and every time it reports is rescaled to a reference host speed by the
calibration kernel of hostspeed.py, which runs on that CPU throughout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostspeed  # imports no numpy: BLAS threads are set before that

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_PROBES = 9  # fresh-interpreter set-ups per run; setup_s is their median
PROBES_PER_ROUND = 2
# Timed rounds per run (untraced / untraced+traced).  Two keep a law or
# cesaro run, warm-up and probes included, near 30 s on a slow host.
MIN_ROUNDS = {False: 2, True: 2}
LAYERS = ("specs", "matrices", "magic", "spectra", "dita", "duality", "cli", "linalg",
          "process")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import hadtrunc from this checkout's src/ and nothing else."""
    if not (SRC / "hadtrunc" / "__init__.py").is_file():
        die(f"no hadtrunc source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import hadtrunc

    if Path(hadtrunc.__file__).resolve().parent != SRC / "hadtrunc":
        die(f"imported hadtrunc from {hadtrunc.__file__}, not from {SRC}")


def blas_threads():
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def source_commit():
    """The git commit of the checkout, when it is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref[5:]


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "commit": source_commit(), "src_sha256": digest.hexdigest()}


def setup_probe(spec_strings):
    """Import + build + validate times of one fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *spec_strings],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        die(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def rss_probe(workload, seed):
    """Peak RSS (MB) of one pass in a fresh interpreter; see rss_probe.py."""
    proc = subprocess.run([sys.executable, str(HERE / "rss_probe.py"), workload, str(seed)],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        die(f"memory probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["peak_rss_mb"]


def summarize_setup(probes, speed):
    """Median set-up times at reference speed.  The probe's perf_counter
    stamps share the system-wide clock with the sampler's."""
    keys = ("setup_s", "import_s", "build_s", "validate_s")
    scaled = []
    for p in probes:
        scale = speed.reference_seconds(p["start"], p["end"]) / p["setup_s"]
        scaled.append({key: p[key] * scale for key in keys})
    times = {key: statistics.median(p[key] for p in scaled) for key in keys}
    times["raw_setup_s"] = statistics.median(p["setup_s"] for p in probes)
    return times, all(p["valid"] for p in probes)


@dataclass
class Pass:
    wall: float
    results: list  # one result, or the exception raised, per job
    job_starts: list  # perf_counter stamps
    job_seconds: list
    traced: bool
    spans: list
    requests: list
    ref: float = 0.0  # wall at reference host speed, set once the run ends

    def scale(self):
        return self.ref / self.wall


def run_pass(jobs, tracer):
    if tracer is not None:
        tracer.reset()
        tracer.install()
    results, job_starts, job_seconds = [], [], []
    start = perf_counter()
    try:
        for job in jobs:
            t0 = perf_counter()
            try:
                results.append(job.run(tracer))
            except Exception as exc:  # counted as a failed job; the run goes on
                results.append(exc)
            job_starts.append(t0)
            job_seconds.append(perf_counter() - t0)
    finally:
        wall = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if tracer is None:
        return Pass(wall, results, job_starts, job_seconds, False, [], [])
    return Pass(wall, results, job_starts, job_seconds, True, list(tracer.spans),
                list(tracer.requests))


def measure(jobs, seconds, tracer, probe):
    """After one untimed warm-up pass (the first pass of cesaro took twice
    as long as the next), repeat rounds of passes (one untraced, plus one
    traced when tracing) until the next round would end after `seconds`.
    Set-up probes run between rounds, so they sample the machine over the
    whole run.  The host-speed sampler runs throughout; a pass's reference
    time is the sum of its jobs' times at reference speed."""
    kinds = (None, tracer) if tracer is not None else (None,)
    passes, probes = [], []
    with hostspeed.SpeedSampler() as speed:
        warmup = run_pass(jobs, None)
        deadline = perf_counter() + seconds
        while True:
            start = perf_counter()
            passes += [run_pass(jobs, kind) for kind in kinds]
            round_s = perf_counter() - start
            probes += [probe() for _ in range(PROBES_PER_ROUND)]
            rounds = len(passes) // len(kinds)
            if rounds >= MIN_ROUNDS[tracer is not None] and perf_counter() + round_s > deadline:
                break
        while len(probes) < MIN_PROBES:
            probes.append(probe())
    for p in passes:  # each job against the host speed while it ran
        p.ref = sum(speed.reference_seconds(t0, t0 + dt)
                    for t0, dt in zip(p.job_starts, p.job_seconds))
    return warmup, passes, probes, speed


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def per_layer(untraced, traced, requests_fraction, setup, cli_stats, checks):
    import tracing

    summaries = [tracing.summarize(p.spans) for p in traced]
    scales = [p.scale() for p in traced]

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def total(name, key="s"):
        """Seconds at reference speed, or a call count."""
        values = [s.get(name, {}).get(key, 0) for s in summaries]
        if key != "calls":
            values = [v * k for v, k in zip(values, scales)]
        return statistics.median(values)

    def count(name, key):
        return med(lambda s: s.get(name, {}).get("counts", {}).get(key, 0))

    metrics = {}
    for name in ("linalg.eigh", "linalg.eigvalsh"):
        metrics[f"{name}.s"] = total(name)
        metrics[f"{name}.calls"] = total(name, "calls")
        metrics[f"{name}.dim3"] = count(name, "dim3")
    for name in ("spectra.truncated_law", "spectra.moment_table", "spectra.cesaro_moments",
                 "duality.duality_residual", "duality.dita_selfduality_residual"):
        metrics[f"{name}.self_s"] = total(name, "self_s")
    for name in ("spectra.gram_matrix", "magic.truncation_tensor", "dita.structured_moments",
                 "cli.main"):
        metrics[f"{name}.s"] = total(name)
    metrics["spectra.gram_matrix.bytes"] = count("spectra.gram_matrix", "bytes")
    metrics["spectra.cesaro_moments.matmuls"] = count("spectra.cesaro_moments", "matmuls")
    metrics["magic.truncation_tensor.max_dim"] = count("magic.truncation_tensor", "max_dim")
    metrics["magic.truncation_tensor.chunk_bytes"] = count("magic.truncation_tensor",
                                                           "chunk_bytes")
    metrics["dita.structured_moments.bytes"] = count("dita.structured_moments", "bytes")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(k * sum(
            v["self_s"] for name, v in s.items() if name.split(".")[0] == layer)
            for s, k in zip(summaries, scales))
    metrics["specs.build_matrix.s"] = setup["build_s"]
    metrics["matrices.validate.s"] = setup["validate_s"]
    metrics["cli.import_s"] = setup["import_s"]
    metrics["cli_p50_ms"] = cli_stats.get("p50_ms", 0.0)
    metrics["cli_tail_ms"] = cli_stats.get("tail_ms", 0.0)
    metrics["spectra.repeat_frac"] = requests_fraction
    metrics["trace.coverage_frac"] = statistics.median(
        sum(v["self_s"] for v in s.values()) / p.wall for s, p in zip(summaries, traced))
    for flag in ("cli.cap_refusals", "spectra.haar.wrong_rounded", "spectra.haar.unconverged"):
        metrics[flag] = checks["flags"].get(flag.split(".")[-1], 0)
    metrics["failed_frac"] = checks["failed"] / checks["attempted"]
    metrics["oracle.max_rel_err"] = checks["max_err"]
    metrics["trace.overhead_frac"] = (statistics.median(p.ref for p in traced)
                                      / statistics.median(p.ref for p in untraced) - 1.0)
    return metrics


def check_all(jobs, passes):
    """Oracle-check every job execution.  Flags are counted on the first
    (warm-up) pass."""
    attempted = failed = 0
    max_err = 0.0
    failures, flags = [], {}
    for index, p in enumerate(passes):
        for job, result in zip(jobs, p.results):
            attempted += 1
            if isinstance(result, Exception):
                ok, reason = False, f"{type(result).__name__}: {result}"
            else:
                check = job.check(result)
                ok, reason = check.ok, f"oracle error {check.err:.3e}"
                if check.err != float("inf"):
                    max_err = max(max_err, check.err)
                if index == 0:
                    for key, value in check.flags.items():
                        flags[key] = flags.get(key, 0) + value
            if not ok:
                failed += 1
                failures.append(f"{job.name}: {reason}")
    return {"attempted": attempted, "failed": failed, "max_err": max_err,
            "failures": failures, "flags": flags}


def spectrum_requests(requests):
    from hadtrunc import matrices

    expanded = []
    for kind, arr, depths in requests:
        if kind == "q":
            arr = matrices.dita(arr.shape[0], arr.shape[1], arr).array
        expanded += [(arr, r) for r in depths]
    return expanded


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        die("BENCHMARK.json not found at the checkout root")
    declared = json.loads(spec_file.read_text())
    cpu = hostspeed.pin_to_one_cpu()  # before numpy is imported
    sys.path.insert(0, str(HERE))
    load_library()
    import jobs as workloads
    import oracle
    import tracing

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = environment()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    warmup, passes, probes, speed = measure(workload.jobs, args.seconds, tracer,
                                            lambda: setup_probe(workload.specs))
    setup, setup_valid = summarize_setup(probes, speed)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    checks = check_all(workload.jobs, [warmup, *passes])
    if not setup_valid:
        checks["failed"] += 1
        checks["failures"].append("set-up: a workload matrix failed validation")

    cli_stats = {}
    latencies = [speed.reference_seconds(r.start, r.start + r.seconds) * 1e3
                 for p in untraced for r in p.results if isinstance(r, workloads.CliResult)]
    if latencies:
        tail_ms, pct = tail(latencies)
        cli_stats = {"p50_ms": statistics.median(latencies), "tail_ms": tail_ms,
                     "tail_percentile": pct, "samples": len(latencies)}

    if args.trace:
        fraction = oracle.repeat_fraction(spectrum_requests(traced[0].requests))
        computed = per_layer(untraced, traced, fraction, setup, cli_stats, checks)
        declared_metrics = declared["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "passes": [p.spans for p in traced]}))
    else:
        computed = {"wall_ref_s": statistics.median(p.ref for p in untraced),
                    "setup_s": setup["setup_s"],
                    "peak_rss_mb": rss_probe(args.workload, args.seed)}
        declared_metrics = declared["end_to_end"]

    missing = [m["name"] for m in declared_metrics if m["name"] not in computed]
    if missing:
        die(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in declared_metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": dict(env, pinned_cpu=cpu), "setup": setup, "cli": cli_stats,
        "host_speed": speed.summary(),
        "passes": {"untraced_ref": [p.ref for p in untraced],
                   "untraced_wall": [p.wall for p in untraced],
                   "traced_ref": [p.ref for p in traced],
                   "traced_wall": [p.wall for p in traced]},
        "jobs": {job.name: statistics.median(p.job_seconds[i] for p in untraced)
                 for i, job in enumerate(workload.jobs)},
        "failures": checks["failures"][:20],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": checks["failed"] == 0, "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
