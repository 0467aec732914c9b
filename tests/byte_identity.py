"""Byte identity of the scenario outputs against a git revision.

    python tests/byte_identity.py <rev>

Exports the `src` of <rev> with `git archive` into a temporary directory,
then runs a fixed list of scenarios twice, once on that tree and once on
this working tree, each in a fresh interpreter that imports `oddkg` from
its own `src`.  Both sides read the same config files.  Every
`summary.txt` and `timeseries.csv` is compared byte for byte; one line
per file says whether it is identical.  Under a file that differs, one
line per CSV column gives its largest deviation as a fraction of the
column's max |value| on <rev>, and one line per summary key gives its
relative deviation, or names the key when its value is text.  A last
line gives the `src/oddkg/*.py` line count of both sides, which is
tracked next to speed.  Exits 1 on any difference.

Each worker also counts the calls of `oddkg.spectral._sturm_count` (Sturm
counts) and `_sturm_slope` (Newton passes) in every run that makes any, by
patching the module attributes, which `spectral` looks up at call time;
a revision without `_sturm_slope` reports 0 passes.
One line per such run prints both sides' figures, so that a change meant
to keep the spectral work shows that it does.  They are not output files
and do not set the exit code.

The list is the golden runs (`test_golden.RUNS`, run by `test_golden._run`)
plus the shipped decay at T = 200, the T = 20 decay with phi4, phi6,
cubic-nlkg and linear-kg and with odd velocity data, the T = 2 decay with a
record at every step for sine-Gordon and phi6 (every record reads f and F on
their window and follows a step on the live prefix), a breather-mode
convergence study on the full line, three runs that blow up, and the
spectral scenario on two more grids (lambda = 2 with dx = 0.02, lambda = 0.5
with dx = 0.01), whose eigenvalues the bisection places afresh.  With the
smallness stop of the phi4 decay, the three blow-ups reach every early exit
of `integrator.run`: a decay whose step overflows at step 40, a decay whose
first record overflows at step 0, and a convergence study whose coarse run
overflows at step 40.  Both sides run on one host, so the bits of
libm cancel; the golden test cannot show byte identity, as it allows
1e-9 relative.

The file name keeps pytest from collecting it.
"""

import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
FILES = ("summary.txt", "timeseries.csv")

#: runs beyond the golden ones: name -> (shipped config, overrides), as in test_golden.RUNS
EXTRA_RUNS = {
    "decay_T200": ("decay_sine_gordon.cfg", {}),
    **{f"decay_{model}": ("decay_sine_gordon.cfg", {"T": "20", "model": model})
       for model in ("phi4", "phi6", "cubic-nlkg", "linear-kg")},
    "decay_velocity": ("decay_sine_gordon.cfg",
                       {"T": "20", "data_family": "gauss-odd-velocity"}),
    **{f"decay_dense_{model}": ("decay_sine_gordon.cfg",
                                {"T": "2", "record_every": "1", "model": model})
       for model in ("sine-gordon", "phi6")},
    "convergence_breather": ("breather.cfg", {"scenario": "convergence", "conv_mode": "breather",
                                              "L": "40", "N": "1999", "T": "3"}),
    "abort_step": ("decay_sine_gordon.cfg", {"model": "cubic-nlkg", "epsilon": "5", "N": "999",
                                             "T": "20", "record_every": "100000"}),
    "abort_record": ("decay_sine_gordon.cfg", {"model": "linear-kg", "epsilon": "1e100",
                                               "N": "99", "T": "1"}),
    "abort_convergence": ("decay_sine_gordon.cfg", {"scenario": "convergence",
                                                    "model": "cubic-nlkg", "epsilon": "5",
                                                    "N": "999", "T": "20"}),
    "spectral_lam2": ("spectral.cfg", {"lambda": "2", "L": "20", "N": "999"}),
    "spectral_lam05": ("spectral.cfg", {"lambda": "0.5", "L": "30", "N": "2999"}),
}


def sturm_calls(run) -> tuple[int, int]:
    """(Sturm counts, Newton passes) that `run()` takes: its calls of
    `oddkg.spectral._sturm_count` and `_sturm_slope`.  Only the functions the
    module has are patched, so that revisions before the Newton pass (no
    `_sturm_slope`) report 0 passes."""
    from contextlib import ExitStack
    from unittest import mock

    from oddkg import spectral

    names = ("_sturm_count", "_sturm_slope")
    with ExitStack() as stack:
        tallies = {name: stack.enter_context(mock.patch.object(spectral, name,
                                                               wraps=getattr(spectral, name)))
                   for name in names if hasattr(spectral, name)}
        run()
    return tuple(tallies[name].call_count if name in tallies else 0 for name in names)


def run_all(outroot: str) -> dict:
    """Every golden and extra run, each into its own directory under `outroot`,
    and the `sturm_calls` of each run that takes any.

    Runs in the worker interpreter, whose sys.path puts one tree's `src`
    first, so that test_golden imports `oddkg` from there.
    """
    import test_golden

    test_golden.RUNS.update(EXTRA_RUNS)
    calls = {}
    for name in test_golden.RUNS:
        taken = sturm_calls(lambda: test_golden._run(name, Path(outroot) / name))
        if any(taken):
            calls[name] = taken
    return calls


def _run_tree(src: Path, outroot: Path) -> dict:
    """`run_all` on the tree whose source is `src`, in a fresh interpreter."""
    calls = outroot.parent / f"{outroot.name}_calls.json"
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import byte_identity; "
            "json.dump(byte_identity.run_all(sys.argv[3]), open(sys.argv[4], 'w'))")
    subprocess.run([sys.executable, "-c", code, str(src), str(TESTS), str(outroot), str(calls)],
                   cwd=outroot.parent, check=True)
    return json.loads(calls.read_text())


def call_lines(rev: str, calls_rev: dict, calls_tree: dict) -> list:
    """One line per run that takes Sturm counts on either side."""
    def figures(calls, name):
        counts, passes = calls.get(name, (0, 0))
        return f"{counts} counts and {passes} passes"
    return [f"sturm calls {name}: {figures(calls_rev, name)} at {rev}, "
            f"{figures(calls_tree, name)} in the tree"
            for name in sorted({*calls_rev, *calls_tree})]


def _differing_lines(a: Path, b: Path) -> str:
    la, lb = a.read_bytes().splitlines(), b.read_bytes().splitlines()
    n = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
    return f"{n} of {max(len(la), len(lb))} lines"


def _deviation(a: float, b: float, scale: float) -> float:
    """|a - b| / scale: 0 for equal values (nan with nan too), inf where only
    one side is nan or the scale is 0."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b)
    return d / scale if scale > 0 and not math.isnan(d) else math.inf


def _csv_deviations(a: Path, b: Path) -> list:
    (ha, *ra), (hb, *rb) = a.read_text().splitlines(), b.read_text().splitlines()
    if ha != hb:
        return [f"header {ha!r} vs {hb!r}"]
    out = []
    if len(ra) != len(rb):
        out.append(f"{len(ra)} rows vs {len(rb)}; the first {min(len(ra), len(rb))} compared")
    va = [[float(v) for v in row.split(",")] for row in ra]
    vb = [[float(v) for v in row.split(",")] for row in rb]
    for j, col in enumerate(ha.split(",")):
        scale = max((abs(r[j]) for r in va if not math.isnan(r[j])), default=0.0)
        dev = max((_deviation(x[j], y[j], scale) for x, y in zip(va, vb)), default=0.0)
        if dev:
            out.append(f"{col}: {dev:.2g} of column scale")
    return out


def _floats(value: str) -> list | None:
    try:
        return [float(tok) for tok in value.split()]
    except ValueError:
        return None


def _read_summary(path: Path) -> dict:
    # as in test_golden, whose import would import oddkg into this process,
    # which runs neither tree's code
    return dict(line.split(": ", 1) for line in path.read_text().splitlines())


def _summary_deviations(a: Path, b: Path) -> list:
    sa, sb = _read_summary(a), _read_summary(b)
    out = []
    for key in dict.fromkeys([*sa, *sb]):
        if key not in sa or key not in sb:
            out.append(f"{key}: only on {'<rev>' if key in sa else 'the tree'}")
        elif sa[key] != sb[key]:
            fa, fb = _floats(sa[key]), _floats(sb[key])
            if fa is None or fb is None or len(fa) != len(fb):
                out.append(f"{key}: text {sa[key]!r} vs {sb[key]!r}")
            elif dev := max(_deviation(x, y, abs(x)) for x, y in zip(fa, fb)):
                out.append(f"{key}: {dev:.2g} relative")
    return out


_DEVIATIONS = {"summary.txt": _summary_deviations, "timeseries.csv": _csv_deviations}


def compare(out_rev: Path, out_tree: Path) -> tuple[list, int]:
    """Report lines for each run directory under `out_rev` against its namesake
    under `out_tree`, and the number of files that differ."""
    lines, differ = [], 0
    for name in sorted(p.name for p in out_rev.iterdir()):
        for fname in FILES:
            a, b = out_rev / name / fname, out_tree / name / fname
            if a.read_bytes() == b.read_bytes():
                lines.append(f"identical  {name}/{fname}")
                continue
            differ += 1
            lines.append(f"DIFFERS    {name}/{fname}: {_differing_lines(a, b)}")
            devs = _DEVIATIONS[fname](a, b) or ["every value equal; the text differs"]
            lines += [f"           {d}" for d in devs]
    return lines, differ


def line_count(src: Path) -> int:
    """Lines of `src`/oddkg/*.py, counted as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "oddkg").glob("*.py"))


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tests/byte_identity.py <rev>", file=sys.stderr)
        return 2
    rev = argv[0]
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        sides = {"rev": tmp / "rev" / "src", "tree": ROOT / "src"}
        calls = {}
        for side, src in sides.items():
            (tmp / f"out_{side}").mkdir()
            calls[side] = _run_tree(src, tmp / f"out_{side}")
        lines, differ = compare(tmp / "out_rev", tmp / "out_tree")
        n_files = len(FILES) * sum(1 for _ in (tmp / "out_rev").iterdir())
        counts = {side: line_count(src) for side, src in sides.items()}
    print("\n".join(lines))
    print(f"{differ} of {n_files} files differ from {rev}")
    print("\n".join(call_lines(rev, calls["rev"], calls["tree"])))
    print(f"src/oddkg/*.py: {counts['rev']} lines at {rev}, {counts['tree']} in the tree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
