"""The four workloads: job lists built from a workload seed, and the
independent oracle check of every job's result.

Every dita phase seed is derived from the workload seed, so hadtrunc only
ever sees spec strings (and, for the dita_* entry points, the phase matrix
those specs resolve to).  A job's `run` is timed; its `check` is not.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

import oracle
import tracing

dita_mod = importlib.import_module("hadtrunc.dita")  # the package attribute is a function
duality_mod = importlib.import_module("hadtrunc.duality")
matrices = importlib.import_module("hadtrunc.matrices")
specs = importlib.import_module("hadtrunc.specs")
spectra = importlib.import_module("hadtrunc.spectra")

TAO6_SPEC = "file=perfbench/tao6.json"
CLI_CHILD = os.path.join("perfbench", "cli_child.py")
REL_TOL = 1e-9
CLUSTER_REL_TOL = 1e-6  # truncated_law merges eigenvalues closer than 1e-6 * N


@dataclass
class Check:
    ok: bool
    err: float = 0.0
    flags: dict = field(default_factory=dict)


@dataclass
class Job:
    name: str
    run: Callable  # run(tracer or None) -> result; timed
    check: Callable  # check(result) -> Check; untimed


@dataclass
class Workload:
    specs: list  # matrices the set-up builds and validates
    jobs: list


def derive_seed(seed, label):
    """64-bit phase seed for one matrix family, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _once(fn):
    """Compute an oracle value on first use (outside the timed region)."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


# -- law -----------------------------------------------------------------------

def _atoms_check(h, r):
    """Check (x, w) atoms of mu^r against the oracle spectrum, total weight 1
    and, for Fourier matrices, (1 - 1/N) delta_0 + (1/N) delta_N."""
    n = h.n
    want = _once(lambda: oracle.gram_spectrum(h.array, r))

    def check(atoms):
        got = oracle.atoms_to_values(atoms, n, r)
        if got is None or len(got) != n**r:
            return Check(False, float("inf"))
        err = float(np.abs(got - want()).max()) / n
        total = abs(sum(w for _, w in atoms) - 1.0)
        ok = err <= CLUSTER_REL_TOL and total <= 1e-12
        if h.provenance.startswith("fourier:"):
            closed = ((0.0, 1.0 - 1.0 / n), (float(n), 1.0 / n))
            ok &= len(atoms) == 2 and all(
                abs(x - x0) <= CLUSTER_REL_TOL * n and abs(w - w0) <= 1e-12
                for (x, w), (x0, w0) in zip(atoms, closed))
        return Check(ok, max(err, total))

    return check


def law(seed):
    s23, s33 = derive_seed(seed, "dita(2,3)"), derive_seed(seed, "dita(3,3)")
    cases = [(f"transpose(dita(2,3;seed={s23}))", 4), (f"dita(3,3;seed={s33})", 3),
             ("fourier:8", 3), (TAO6_SPEC, 3)]
    jobs = []
    for spec, r in cases:
        h = specs.build_matrix(spec)
        jobs.append(Job(f"truncated_law({spec}, r={r})",
                        lambda tracer, h=h, r=r: spectra.truncated_law(h, r),
                        lambda measure, check=_atoms_check(h, r): check(measure.atoms)))
    return Workload([spec for spec, _ in cases], jobs)


# -- cesaro --------------------------------------------------------------------

def _haar_check(h, p, k_max):
    lam = _once(lambda: oracle.t_spectrum(h.array, p))

    def check(est):
        want = oracle.cesaro_averages(lam(), k_max)[-1]
        err = oracle.rel_err(est.estimate, want)
        wrong = est.rounded != oracle.unit_multiplicity(lam())
        # A rounded answer flagged unconverged is the documented defect, not
        # a failure; claiming convergence on a wrong integer is.
        ok = err <= REL_TOL and not (est.converged and wrong)
        return Check(ok, err, {"wrong_rounded": int(wrong),
                               "unconverged": int(not est.converged)})

    return check


def _cesaro_check(h, p, k_max):
    lam = _once(lambda: oracle.t_spectrum(h.array, p))

    def check(seq):
        err = oracle.rel_err(seq.partial_averages, oracle.cesaro_averages(lam(), k_max))
        return Check(err <= REL_TOL, err)

    return check


def _moments_t_check(h, p, r):
    lam = _once(lambda: oracle.t_spectrum(h.array, p))

    def check(value):
        err = max(oracle.rel_err(value, (lam() ** r).sum()),
                  oracle.rel_err(value, float(h.n) ** (p - 1)))  # Fourier closed form
        return Check(err <= REL_TOL, err)

    return check


def cesaro(seed):
    s33, s22 = derive_seed(seed, "dita(3,3)"), derive_seed(seed, "dita(2,2)")
    d33, d22 = f"dita(3,3;seed={s33})", f"dita(2,2;seed={s22})"
    built = {spec: specs.build_matrix(spec) for spec in (d33, "fourier:5", d22, TAO6_SPEC)}
    h33, f5, h22, tao = built.values()
    jobs = [
        Job(f"haar_moment_estimate({d33}, p=3)",
            lambda tracer: spectra.haar_moment_estimate(h33, 3), _haar_check(h33, 3, 32)),
        Job("moments_via_T(fourier:5, p=4, r=2)",
            lambda tracer: spectra.moments_via_T(f5, 4, 2), _moments_t_check(f5, 4, 2)),
        Job(f"cesaro_moments({d22}, p=4, k=32)",
            lambda tracer: spectra.cesaro_moments(h22, 4, 32), _cesaro_check(h22, 4, 32)),
        Job(f"haar_moment_estimate({TAO6_SPEC}, p=3)",
            lambda tracer: spectra.haar_moment_estimate(tao, 3), _haar_check(tao, 3, 32)),
    ]
    return Workload(list(built), jobs)


# -- duality -------------------------------------------------------------------

def _report_check(report):
    return Check(bool(report.passed) and report.max_residual < report.tolerance,
                 report.max_residual)


def _structured_check(h, r, p_max):
    """One dense moment table and one oracle spectrum serve every p."""
    dense = _once(lambda: spectra.moment_table(h, p_max, r).c[:, r])
    own = _once(lambda: oracle.gram_spectrum(h.array, r))

    def check_p(p):
        def check(value):
            err = max(oracle.rel_err(value, dense()[p - 1]),
                      oracle.rel_err(value, (own() ** p).sum() / h.n**r))
            return Check(err <= REL_TOL, err)

        return check

    return check_p


def duality(seed):
    s23, s33, s22 = (derive_seed(seed, f"dita({m},{n})") for m, n in ((2, 3), (3, 3), (2, 2)))
    d23, d33 = f"dita(2,3;seed={s23})", f"dita(3,3;seed={s33})"
    grids = [(d23, 4), (d33, 3), ("fourier:6", 3), ("fouriergroup:2x3", 3)]
    built = {spec: specs.build_matrix(spec) for spec, _ in grids}
    q23 = specs.resolve_phase_matrix(2, 3, ("seed", s23))
    q22 = specs.resolve_phase_matrix(2, 2, ("seed", s22))
    jobs = []
    for spec, side in grids:
        h = built[spec]
        jobs.append(Job(f"duality_residual({spec}, {side}x{side})",
                        lambda tracer, h=h, side=side:
                        duality_mod.duality_residual(h, side, side),
                        _report_check))
    for (m, n, q, seed_mn), (p_max, r_max) in (((2, 3, q23, s23), (3, 3)),
                                               ((2, 2, q22, s22), (4, 4))):
        jobs.append(Job(f"dita_selfduality_residual(dita({m},{n};seed={seed_mn}), "
                        f"{p_max}x{r_max})",
                        lambda tracer, m=m, n=n, q=q, p_max=p_max, r_max=r_max:
                        duality_mod.dita_selfduality_residual(m, n, q, p_max, r_max),
                        _report_check))
    structured_check = _structured_check(built[d23], 4, 4)
    for p in (2, 3, 4):
        jobs.append(Job(f"structured_moments({d23}, p={p}, r=4)",
                        lambda tracer, p=p: dita_mod.structured_moments(q23, p, 4),
                        structured_check(p)))
    return Workload([spec for spec, _ in grids] + [f"dita(2,2;seed={s22})"], jobs)


# -- cli -----------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    out: str
    start: float  # perf_counter stamp
    seconds: float


def _invoke(args, tracer):
    env = dict(os.environ)
    span = None
    if tracer is not None:
        env["PERFBENCH_TRACE"] = "1"
        span = tracer.open_span("process.cli")
    start = perf_counter()
    proc = subprocess.run([sys.executable, CLI_CHILD, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    seconds = perf_counter() - start
    if span is not None:
        _, _, spans = proc.stderr.rpartition(tracing.SPANS_MARKER)
        tracer.close_span(span, json.loads(spans) if spans else ())
    return CliResult(proc.returncode, proc.stdout, start, seconds)


def _cli_job(args, code, parse):
    """Run `hadtrunc ARGS`; pass when the exit code is `code` and
    parse(stdout) returns a Check that passes."""

    def check(res):
        result = Check(False, float("inf"))
        if res.code == code:
            try:
                result = parse(res.out) if parse else Check(True)
            except (ValueError, KeyError, IndexError, ET.ParseError):
                pass
        result.flags["cap_refusals"] = int(res.code == 3)
        return result

    return Job("hadtrunc " + " ".join(args), lambda tracer: _invoke(args, tracer), check)


def _json_pass(key):
    return lambda out: Check(json.loads(out)[key] is True)


def _csv_atoms(check):
    def parse(out):
        return check([(float(row["x"]), float(row["w"]))
                      for row in csv.DictReader(io.StringIO(out))])

    return parse


def _json_atoms(check):
    return lambda out: check([(a["x"], a["w"]) for a in json.loads(out)["atoms"]])


def _svg_bars(weights):
    """Bar heights are proportional to the atom weights."""
    def parse(out):
        heights = np.array(sorted(float(el.get("height")) for el in ET.fromstring(out)
                                  if el.get("fill") == "steelblue"))
        if len(heights) != len(weights):
            return Check(False, float("inf"))
        err = float(np.abs(heights / heights.sum() - sorted(weights)).max())
        return Check(err <= 1e-3, err)

    return parse


def _moment_csv(h, p_max, r_max):
    lam = {r: _once(lambda r=r: oracle.gram_spectrum(h.array, r)) for r in range(1, r_max + 1)}

    def parse(out):
        err = 0.0
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            p, r = int(row["p"]), int(row["r"])
            want = float(h.n**p) if r == 0 else (lam[r]() ** p).sum() / h.n**r
            err = max(err, oracle.rel_err(float(row["c"]), want))
        return Check(len(rows) == p_max * (r_max + 1) and err <= REL_TOL, err)

    return parse


def _fourier_moments(n):
    def parse(out):
        c = np.array(json.loads(out)["c"])
        p = np.arange(1, c.shape[0] + 1)[:, None]
        want = np.where(np.arange(c.shape[1])[None, :] == 0, n**p, n ** (p - 1)) * 1.0
        err = oracle.rel_err(c, want)
        return Check(err <= REL_TOL, err)

    return parse


def _cesaro_fourier(n, p, k_max):
    def parse(out):
        rows = list(csv.DictReader(io.StringIO(out)))
        got = [float(row["s_k"]) for row in rows]
        err = oracle.rel_err(got, [float(n) ** (p - 1)] * k_max)
        return Check(len(got) == k_max and err <= REL_TOL, err)

    return parse


def _hadamard_json(n):
    def parse(out):
        entries = np.array(json.loads(out)["entries"])
        dev = oracle.hadamard_dev(entries[..., 0] + 1j * entries[..., 1])
        return Check(entries.shape == (n, n, 2) and dev <= 1e-12, dev)

    return parse


def cli(seed):
    s22, s23 = derive_seed(seed, "dita(2,2)"), derive_seed(seed, "dita(2,3)")
    d22, d23 = f"dita(2,2;seed={s22})", f"dita(2,3;seed={s23})"
    h22, h23 = specs.build_matrix(d22), specs.build_matrix(d23)
    jobs = [
        _cli_job(["validate", "fourier:5"], 0, _json_pass("passed")),
        _cli_job(["validate", TAO6_SPEC], 0, _json_pass("passed")),
        _cli_job(["gen", d22], 0, _hadamard_json(4)),
        _cli_job(["measure", "fourier:4", "--r", "2"], 0,
                 _json_atoms(_atoms_check(specs.build_matrix("fourier:4"), 2))),
        _cli_job(["measure", d22, "--r", "3", "--format", "csv"], 0,
                 _csv_atoms(_atoms_check(h22, 3))),
        _cli_job(["measure", "tensor(fourier:2,fourier:3)", "--r", "2", "--format", "svg"],
                 0, _svg_bars([5 / 6, 1 / 6])),
        _cli_job(["moments", d23, "--p-max", "3", "--r-max", "2", "--format", "csv"],
                 0, _moment_csv(h23, 3, 2)),
        _cli_job(["moments", "fouriergroup:2x2", "--p-max", "3", "--r-max", "3"],
                 0, _fourier_moments(4)),
        _cli_job(["cesaro", "fourier:4", "--p", "2", "--k-max", "10", "--format", "csv"],
                 0, _cesaro_fourier(4, 2, 10)),
        _cli_job(["duality", d22, "--p-max", "3", "--r-max", "3"], 0, _json_pass("pass")),
        _cli_job(["dita-check", "--m", "2", "--n", "2", "--seed", str(s22),
                  "--p-max", "3", "--r-max", "3"], 0, _json_pass("pass")),
        _cli_job(["bench", "--m", "2", "--n", "2", "--seed", str(s22), "--p", "3",
                  "--r", "3", "--reps", "1"], 0, _json_pass("verified")),
        # Expected refusals: the dense size cap (exit 3) and a parse error (exit 2).
        _cli_job(["measure", "fourier:8", "--r", "3", "--cap", "100"], 3, None),
        _cli_job(["cesaro", "fourier:6", "--p", "4", "--k-max", "2", "--cap", "1000"], 3, None),
        _cli_job(["measure", "dita(2,2;seed=", "--r", "1"], 2, None),
    ]
    return Workload(["fourier:5", TAO6_SPEC, d22, d23, "fourier:4",
                     "tensor(fourier:2,fourier:3)", "fouriergroup:2x2"], jobs)


WORKLOADS = {"law": law, "cesaro": cesaro, "duality": duality, "cli": cli}
