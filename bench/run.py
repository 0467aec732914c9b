#!/usr/bin/env python3
"""oddkg benchmark: whole scenarios through `oddkg.cli.main`, checked and timed.

Run from the repository root:

    python3 bench/run.py --workload decay --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # every workload, both modes
    python3 bench/run.py --record-references             # rewrite bench/references.json

One process measures one workload.  It runs one scenario at a time, each
only after the previous one has finished (closed loop, one client), and
checks every run's output.  `--trace 0` reports the end-to-end metrics
from untraced runs; `--trace 1` reports the per-layer metrics from traced
runs (see tracer.py).  The metric names, units and bounds live in
BENCHMARK.json; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  bench/README.md explains
the workloads, the metrics and the checks.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere in this process or its children
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH))
from tracer import ROOT_SPAN, STANDALONE, TraceError, Tracer, self_times, write_spans  # noqa: E402

#: virial-check batteries draw their seeds from this pool, whose reference
#: summaries are recorded in references.json
VIRIAL_SEED_POOL = tuple(12345 + 7919 * k for k in range(16))
VIRIAL_SEEDS_PER_RUN = 4

#: summary floats must agree with the references to rtol * |ref| + atol
RTOL = 1e-6
ATOL = 1e-12
#: wider absolute tolerances: the pencil bisection stops at a 1e-6 bracket,
#: and the H decomposition residual is roundoff
ATOL_BY_KEY_SUFFIX = {"coercivity_min_ratio": 2e-6, "max_rel_H_decomp": 1e-13}

#: fresh interpreters timed for setup_s, spread over the invocation so that
#: they fall in different speed regimes of the host
SETUP_SAMPLES = 16
#: timed runs per invocation at least: the byte-identity check needs a repeat
MIN_RUNS = 3
#: median seconds of each calibration kernel (see make_calibration) on the
#: machine the benchmark was written on: 2-core Xeon under KVM, Python 3.11,
#: numpy 2.4.  The reported timings are rescaled to that speed.
CAL_NOMINAL_S = {"ufunc": 9.5e-3, "bytecode": 3.1e-3, "dispatch": 1.9e-3,
                 "temporaries": 2.6e-3}
INVOCATION_LIMIT_S = 150.0
COUNT_KEYS = (
    "integrator.steps", "models.f_calls", "virial.make_record_calls",
    "virial.standalone_calls", "grid.quadratures_per_record",
    "grid.derivatives_per_record", "spectral.sturm_evals",
    "spectral.pencil_evals", "experiments.csv_bytes",
)


class RunTimeout(BaseException):
    """Raised by SIGALRM when a scenario run exceeds its wall-clock limit.

    A BaseException, so that no `except Exception` inside the package
    swallows it.
    """


@dataclass(frozen=True)
class Workload:
    scenario: str
    config: str
    overrides: tuple
    timeout_s: float
    #: sector problems solved (spectral) or fields evaluated (virial-check)
    #: per run; None for time-stepping workloads, whose passes are steps
    passes: int | None = None

    def argv(self, outdir: Path, seed: int | None) -> list[str]:
        args = [self.scenario, "--config", str(CONFIGS / self.config)]
        sets = list(self.overrides) + [f"output_dir={outdir}"]
        if seed is not None:
            sets.append(f"seed={seed}")
        for item in sets:
            args += ["--set", item]
        return args


#: The decay workloads shorten T so that one run takes about a second or
#: less: the bounded timings are medians over many short runs, each rescaled
#: by the host slowdown (see main_one).  The step/record mix of the shipped
#: config is kept.
WORKLOADS = {
    "decay": Workload("decay", "decay_sine_gordon.cfg", ("T=20",), timeout_s=10.0),
    "decay-dense": Workload("decay", "decay_sine_gordon.cfg", ("record_every=1", "T=2"),
                            timeout_s=5.0),
    "spectral": Workload("spectral", "spectral.cfg", (), timeout_s=10.0, passes=10),
    "virial-check": Workload("virial-check", "virial_check.cfg", (), timeout_s=5.0,
                             passes=100),
}


def case_name(workload: str, seed: int | None) -> str:
    return workload if seed is None else f"{workload}/seed={seed}"


def parse_summary(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def compare_summary(got: dict, ref: dict) -> list[str]:
    """Mismatches between a run's summary and its reference, as messages."""
    bad = []
    for key, want in ref.items():
        have = got.get(key)
        if have is None:
            bad.append(f"summary lacks {key}")
            continue
        if have == want:
            continue
        try:
            hv = [float(t) for t in have.split()]
            wv = [float(t) for t in want.split()]
        except ValueError:
            bad.append(f"{key}: {have!r} != {want!r}")
            continue
        atol = next((a for suffix, a in ATOL_BY_KEY_SUFFIX.items()
                     if key.endswith(suffix)), ATOL)
        if len(hv) != len(wv) or any(
                not abs(h - w) <= RTOL * abs(w) + atol for h, w in zip(hv, wv)):
            bad.append(f"{key}: {have} differs from reference {want}")
    return bad


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile_tail(values: list[float]) -> dict | None:
    """The highest of p50..p99.9 with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        idx = max(math.ceil(p / 100.0 * n) - 1, 0)
        if n - 1 - idx >= 10:
            return {"percentile": p, "value": s[idx], "beyond": n - 1 - idx}
    return None


def _on_alarm(signum, frame):
    raise RunTimeout()


def make_calibration():
    """Return a function that times a fixed loop and gives the host's slowdown.

    The loop runs four small kernels of the kinds of work oddkg does: a
    ufunc over an 8000-point array, interpreter bytecode, numpy calls on
    tiny arrays, and array temporaries.  The slowdown is the mean of each
    kernel's time over its CAL_NOMINAL_S entry: 1.0 at the reference speed,
    about 2.0 when the shared host runs this process at half speed.  It
    does not touch oddkg, so a change to oddkg cannot move it.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 8000)
    y = np.empty_like(x)
    tiny = x[:16].copy()

    def ufunc():
        for _ in range(100):
            np.sin(x, out=y)

    def bytecode():
        total = 0
        for k in range(50000):
            total += k

    def dispatch():
        for _ in range(2000):
            tiny + tiny

    def temporaries():
        for _ in range(200):
            z = x * 2.0
            z = z + x

    kernels = {"ufunc": ufunc, "bytecode": bytecode, "dispatch": dispatch,
               "temporaries": temporaries}

    def slowdown() -> float:
        total = 0.0
        for name, kernel in kernels.items():
            t0 = time.perf_counter()
            kernel()
            total += (time.perf_counter() - t0) / CAL_NOMINAL_S[name]
        return total / len(kernels)

    return slowdown


class Bench:
    """Runs scenarios of one workload and checks each run's output."""

    def __init__(self, workload: str, seed: int, references: dict):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.references = references
        self.outdir = OUT / workload
        self.outdir.mkdir(parents=True, exist_ok=True)
        if workload == "virial-check":
            self.seeds = random.Random(seed).sample(VIRIAL_SEED_POOL, VIRIAL_SEEDS_PER_RUN)
        else:
            self.seeds = [None]
        self.digests: dict[str, tuple] = {}
        self.runs = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_attempts: set[str] = set()
        self.grid_N = None
        #: (minor page faults, system CPU seconds) of the latest run
        self.last_rusage = (0, 0.0)
        self.slowdown = make_calibration()

    def fail(self, attempt: str, message: str) -> None:
        self.failures.append(f"{attempt}: {message}")
        self.failed_attempts.add(attempt)

    def run_once(self, main) -> tuple[float, float] | None:
        """One scenario through `main`; returns (wall_s, sites) or None on failure."""
        seed = self.seeds[self.runs % len(self.seeds)]
        case = case_name(self.name, seed)
        attempt = f"run {self.runs} ({case})"
        argv = self.workload.argv(self.outdir, seed)
        self.runs += 1
        self.attempted += 1
        sink = io.StringIO()
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.workload.timeout_s)
        try:
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                rc = main(argv)
            wall = time.perf_counter() - t0
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            self.last_rusage = (r1.ru_minflt - r0.ru_minflt, r1.ru_stime - r0.ru_stime)
        except RunTimeout:
            self.fail(attempt, f"timed out after {self.workload.timeout_s} s")
            return None
        except (Exception, SystemExit) as exc:
            self.fail(attempt, f"raised {exc!r}")
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        problems, summary = self.check(case, rc)
        if problems:
            self.fail(attempt, "; ".join(problems))
            return None
        self.grid_N = int(summary["N"])
        if self.workload.passes is None:
            passes = round(float(summary["T"]) / float(summary["dt"]))
        else:
            passes = self.workload.passes
        return wall, self.grid_N * passes

    def check(self, case: str, rc) -> tuple[list[str], dict]:
        """Problems with the outputs of one run, and its parsed summary."""
        if rc != 0:
            return [f"exit code {rc}"], {}
        csv_path = self.outdir / "timeseries.csv"
        summary_path = self.outdir / "summary.txt"
        try:
            summary = parse_summary(summary_path.read_text(encoding="utf-8"))
            digests = (file_digest(csv_path), file_digest(summary_path))
        except OSError as exc:
            return [f"cannot read outputs: {exc}"], {}
        problems = []
        if summary.get("status") != "ok":
            problems.append(f"status {summary.get('status')!r}")
        ref = self.references.get(case)
        if ref is None:
            problems.append("no reference summary recorded")
        else:
            problems += compare_summary(summary, ref)
        first = self.digests.setdefault(case, digests)
        if digests != first:
            problems.append("outputs differ from the first run of the same case")
        return problems, summary

    def measure(self, main, budget_s: float, min_runs: int, deadline: float,
                after_run=None) -> list[tuple]:
        """Back-to-back runs until the next one would overrun `budget_s`.

        Returns (wall_s, sites, slowdown) of each run that passed its
        checks; the host's slowdown is timed just before the run.
        `after_run` is called between runs, outside the timed region.
        """
        results = []
        walls = []
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            slowdown = self.slowdown()
            res = self.run_once(main)
            walls.append(time.perf_counter() - start)
            if res is not None:
                results.append((*res, slowdown))
            if after_run is not None:
                after_run()
            now = time.perf_counter()
            est = statistics.median(walls)
            if now + est > deadline:
                break
            if len(walls) >= min_runs and now - t0 + est > budget_s:
                break
        return results


def setup_samples(bench: Bench, n: int) -> list[tuple[float, float]]:
    """import oddkg plus config resolution, each in a fresh interpreter.

    Returns (seconds, slowdown) per sample, the host's slowdown timed just
    before the interpreter starts.
    """
    probe = (
        "import time; t0 = time.perf_counter()\n"
        "import contextlib, io, sys; sys.path.insert(0, sys.argv[1])\n"
        "from oddkg import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(sys.argv[2:] + ['--describe'])\n"
        "print(repr(time.perf_counter() - t0) if rc == 0 else 'failed')\n"
    )
    argv = bench.workload.argv(OUT / "setup", None)
    times = []
    for _ in range(n):
        bench.attempted += 1
        slowdown = bench.slowdown()
        try:
            proc = subprocess.run([sys.executable, "-c", probe, str(SRC), *argv],
                                  capture_output=True, text=True, timeout=60, cwd=ROOT)
            times.append((float(proc.stdout.strip()), slowdown))
        except (subprocess.TimeoutExpired, ValueError) as exc:
            bench.fail(f"setup sample {bench.attempted}", f"failed: {exc!r}")
    return times


def commit() -> str:
    """HEAD of this checkout; the benchmark also runs from plain file trees."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    return _run_text(["git", "rev-parse", "HEAD"]) or "unknown"


def _run_text(cmd: list[str]) -> str | None:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(grid_N: int | None) -> dict:
    import numpy

    lscpu = {}
    for line in (_run_text(["lscpu"]) or "").splitlines():
        key, _, value = line.partition(":")
        lscpu[key.strip()] = value.strip()
    per_array = None if grid_N is None else grid_N * 8
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": lscpu.get("Model name", "unknown"),
        "l2_cache": lscpu.get("L2 cache", "unknown"),
        "l3_cache": lscpu.get("L3 cache", "unknown"),
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "per_array_bytes": per_array,
        "note": "each state array is N x 8 bytes and fits in L2, so bandwidth "
                "and roofline metrics are left out",
    }


def layer_metrics(spans: list, counters: dict, untraced_wall: float) -> dict:
    """Per-layer numbers from one traced run (spans rooted at cli.main)."""
    own = self_times(spans)
    total = {}
    calls = {}
    layer_self = {}
    under_record = {"grid.integrate_fullline": 0, "grid.derivative": 0}
    f_in_run_ns = 0
    run_self_ns = 0
    pencil = 0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0) + dur
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + own[i]
        pname = spans[parent][0] if parent >= 0 else None
        if pname == "virial.make_record" and name in under_record:
            under_record[name] += 1
        if name == "models.f" and pname == "integrator.run":
            f_in_run_ns += dur
        if name == "integrator.run":
            run_self_ns += own[i]
        if name == "spectral._sturm_count" and pname == "spectral.coercivity_certificate":
            pencil += 1

    def s(name):
        return total.get(name, 0) / 1e9

    def per(num, den):
        return num / den if den else 0.0

    steps = counters.get("integrator.steps", 0)
    records = calls.get("virial.make_record", 0)
    root_s = (spans[0][2] - spans[0][1]) / 1e9
    return {
        "integrator.steps": steps,
        "integrator.step_us": per(run_self_ns + f_in_run_ns, steps) / 1e3,
        "integrator.stencil_us": per(run_self_ns, steps) / 1e3,
        "integrator.self_s": layer_self.get("integrator", 0) / 1e9,
        "models.f_calls": calls.get("models.f", 0),
        "models.f_us": per(total.get("models.f", 0), calls.get("models.f", 0)) / 1e3,
        "models.self_s": layer_self.get("models", 0) / 1e9,
        "virial.make_record_calls": records,
        "virial.make_record_us": per(total.get("virial.make_record", 0), records) / 1e3,
        "virial.make_record_s": s("virial.make_record"),
        "virial.fill_dI_dt_s": s("virial.fill_dI_dt_numeric"),
        "virial.standalone_s": sum(s(f"virial.{n}") for n in STANDALONE),
        "virial.standalone_calls": sum(calls.get(f"virial.{n}", 0) for n in STANDALONE),
        "virial.self_s": layer_self.get("virial", 0) / 1e9,
        "grid.quadratures_per_record": per(under_record["grid.integrate_fullline"], records),
        "grid.derivatives_per_record": per(under_record["grid.derivative"], records),
        "grid.self_s": layer_self.get("grid", 0) / 1e9,
        "spectral.sturm_evals": calls.get("spectral._sturm_count", 0),
        "spectral.sturm_ns_per_pivot": per(total.get("spectral._sturm_count", 0),
                                           counters.get("spectral.pivots", 0)),
        "spectral.lowest_eigs_s": s("spectral.lowest_eigs"),
        "spectral.pencil_evals": pencil,
        "spectral.certificate_s": s("spectral.coercivity_certificate"),
        "spectral.index_check_s": s("spectral.index_check"),
        "spectral.self_s": layer_self.get("spectral", 0) / 1e9,
        "experiments.probe_us": per(total.get("experiments.on_record", 0),
                                    calls.get("experiments.on_record", 0)) / 1e3,
        "experiments.write_timeseries_s": s("experiments.write_timeseries"),
        "experiments.csv_bytes": counters.get("experiments.csv_bytes", 0),
        "experiments.write_summary_s": s("experiments.write_summary"),
        "experiments.initial_data_s": s("experiments.make_initial_data"),
        "experiments.random_fields_s": s("experiments.random_odd_field"),
        "experiments.self_s": layer_self.get("experiments", 0) / 1e9,
        "cli.self_s": layer_self.get("cli", 0) / 1e9,
        "trace.root_s": root_s,
        "trace.overhead_frac": root_s / untraced_wall - 1.0,
    }


def load_oddkg():
    """Import oddkg from this checkout's src/, never from an installed copy."""
    if not (SRC / "oddkg" / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise SystemExit(f"oddkg sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import oddkg.cli

    if not Path(oddkg.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported oddkg from {oddkg.cli.__file__}, not from {SRC}")
    return oddkg.cli


def main_one(args, spec: dict) -> int:
    t_start = time.perf_counter()
    deadline = t_start + INVOCATION_LIMIT_S
    cli = load_oddkg()
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))["summaries"]
    bench = Bench(args.workload, args.seed, references)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"# oddkg benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "virial_seeds": bench.seeds if args.workload == "virial-check" else None}

    # The first run in a process is cold: its heap is still growing and it
    # pays page faults the later runs do not (the process.* metrics report
    # them).  It is checked but left out of the timings.
    #
    # The bounded timings are rescaled to the reference host speed.  On a
    # shared host the same code switches between speed regimes that last
    # from seconds to minutes and differ by up to 2x (55 ms to 113 ms for
    # one fixed numpy loop within 150 s), and drifts by a third within five
    # minutes.  So each run is divided by the slowdown of a calibration
    # loop timed just before it, and the median is reported.  Per run, that
    # ratio is noisier than the raw time; over 30 s windows its median moved
    # by 3-5% (IQR over median) where the raw median moved by 6-14% and the
    # raw minimum by 4-34% (spectral and decay-dense, 0.3-1 s runs).  The
    # raw times are printed and saved alongside.
    if args.trace == 0:
        setup = setup_samples(bench, 1)
        last_setup = time.perf_counter()

        def spread_setup():
            nonlocal last_setup
            if (len(setup) < SETUP_SAMPLES - 1
                    and time.perf_counter() - last_setup >= args.seconds / SETUP_SAMPLES):
                setup.extend(setup_samples(bench, 1))
                last_setup = time.perf_counter()

        bench.run_once(cli.main)
        results = bench.measure(cli.main, args.seconds - (time.perf_counter() - t_start),
                                MIN_RUNS, deadline, after_run=spread_setup)
        setup += setup_samples(bench, SETUP_SAMPLES - len(setup))
        if not results or not setup:
            raise SystemExit("no run succeeded:\n" + "\n".join(bench.failures))
        walls = [w / f for w, _, f in results]
        setups = [t / f for t, f in setup]
        metrics = {
            "wall_s": statistics.median(walls),
            "site_updates_per_s": statistics.median(n * f / w for w, n, f in results),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = [m["name"] for m in spec["end_to_end"]]
        detail["samples"] = {
            "wall_s": walls, "setup_s": setups,
            "raw_wall_s": [w for w, _, _ in results], "raw_setup_s": [t for t, _ in setup],
        }
        detail["slowdown"] = {"runs": [f for _, _, f in results], "setup": [f for _, f in setup]}
        detail["tails"] = {k: percentile_tail(v) for k, v in detail["samples"].items()}
        for key, vals in detail["samples"].items():
            tail = detail["tails"][key]
            tail_txt = (f"p{tail['percentile']:g}={tail['value']:.6g} s "
                        f"({tail['beyond']} beyond)" if tail else "no tail (n < 20)")
            lines.append(f"#   {key}: min {min(vals):.6g} s, median {statistics.median(vals):.6g} s, "
                         f"n={len(vals)}, {tail_txt}")
        lines.append(f"#   host slowdown before runs: median "
                     f"{statistics.median(detail['slowdown']['runs']):.4g}, "
                     f"min {min(detail['slowdown']['runs']):.4g}, "
                     f"max {max(detail['slowdown']['runs']):.4g}")
    else:
        cold = bench.run_once(cli.main)
        first_run_minflt, first_run_sys_s = bench.last_rusage
        untraced = bench.measure(cli.main, args.seconds / 3.0, 1, deadline)
        if not untraced:
            raise SystemExit("no untraced run succeeded:\n" + "\n".join(bench.failures))
        untraced_wall = statistics.median(w for w, _, _ in untraced)
        tracer = Tracer()
        root = tracer.wrap(ROOT_SPAN, cli.main)
        traced = []

        def traced_main(argv):
            try:
                return root(argv)
            finally:
                traced.append((f"run {bench.runs - 1}", *tracer.take()))

        tracer.install({name: sys.modules[name] for name in
                        ("oddkg.cli", "oddkg.experiments", "oddkg.integrator",
                         "oddkg.virial", "oddkg.spectral")})
        try:
            bench.measure(traced_main, args.seconds - (time.perf_counter() - t_start),
                          MIN_RUNS, deadline)
        finally:
            tracer.restore()
        if not traced:
            raise SystemExit("no traced run succeeded:\n" + "\n".join(bench.failures))
        per_run = []
        for attempt, spans, counters in traced:
            try:
                m = layer_metrics(spans, counters, untraced_wall)
            except TraceError as exc:
                bench.fail(attempt, f"trace check: {exc}")
                continue
            changed = [k for k in COUNT_KEYS if per_run and m[k] != per_run[0][k]]
            if changed:
                bench.fail(attempt, f"counts differ from the first traced run: {changed}")
            per_run.append(m)
        if not per_run or cold is None:
            raise SystemExit("no traced run passed the trace checks:\n"
                             + "\n".join(bench.failures))
        for m in per_run:
            m["process.first_run_minflt"] = first_run_minflt
            m["process.first_run_sys_s"] = first_run_sys_s
        metrics = {k: per_run[0][k] if k in COUNT_KEYS else statistics.median(m[k] for m in per_run)
                   for k in per_run[0]}
        names = [m["name"] for m in spec["per_layer"]]
        root_s = metrics["trace.root_s"]
        detail["layer_share_of_root"] = {
            k[: -len(".self_s")]: metrics[k] / root_s for k in metrics if k.endswith(".self_s")}
        write_spans(traced[-1][1], OUT / f"{args.workload}.spans.jsonl")
        lines.append(f"#   traced runs: {len(per_run)}, untraced median {untraced_wall:.6g} s; "
                     f"spans in {OUT.name}/{args.workload}.spans.jsonl")
        lines.append("#   self-time share of root: " + ", ".join(
            f"{k} {v:.1%}" for k, v in detail["layer_share_of_root"].items()))

    if set(names) != set(metrics):
        raise SystemExit(f"metric set differs from {SPEC.name}: {sorted(metrics)}")
    detail["provenance"] = provenance(bench.grid_N)
    detail["failures"] = bench.failures
    failed = len(bench.failed_attempts)
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
    }
    prov = detail["provenance"]
    lines.append(f"# provenance: commit {prov['commit'][:12]}, python {prov['python']}, "
                 f"numpy {prov['numpy']}, nproc {prov['nproc']}, {prov['cpu_model']}, "
                 f"L2 {prov['l2_cache']}, L3 {prov['l3_cache']}, "
                 f"{prov['per_array_bytes']} B per array ({prov['note']})")
    for k in names:
        lines.append(f"{k:32s} {metrics[k]:>16.6g} {units[k]}")
    lines.append(f"{'failed_frac':32s} {failed / bench.attempted:>16.6g} "
                 f"({failed}/{bench.attempted})")
    lines += [f"# FAILED {msg}" for msg in bench.failures]
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**detail, **result}, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def main_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace} (exit {proc.returncode})")
            print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stderr)
            try:
                ok = ok and proc.returncode == 0 and json.loads(lines[-1])["correct"]
            except (IndexError, ValueError, KeyError):
                ok = False
    return 0 if ok else 1


def record_references() -> int:
    """Run every case once and store its summary as the reference."""
    cli = load_oddkg()
    summaries = {}
    for name, wl in WORKLOADS.items():
        seeds = VIRIAL_SEED_POOL if name == "virial-check" else (None,)
        outdir = OUT / "references" / name
        for seed in seeds:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(wl.argv(outdir, seed))
            summary = parse_summary((outdir / "summary.txt").read_text(encoding="utf-8"))
            if rc != 0 or summary.get("status") != "ok":
                raise SystemExit(f"{case_name(name, seed)} did not run cleanly")
            summaries[case_name(name, seed)] = summary
    doc = {
        "commit": commit(),
        "tolerance": {"rtol": RTOL, "atol": ATOL, "atol_by_key_suffix": ATOL_BY_KEY_SUFFIX},
        "summaries": summaries,
    }
    REFERENCES.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(summaries)} reference summaries to {REFERENCES}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if args.record_references:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return main_all(args)
    return main_one(args, json.loads(SPEC.read_text(encoding="utf-8")))


if __name__ == "__main__":
    sys.exit(main())
