"""Byte identity of the scenario outputs against a git revision.

    python tests/byte_identity.py <rev>

Exports the `src` of <rev> with `git archive` into a temporary directory,
then runs a fixed list of scenarios twice, once on that tree and once on
this working tree, each in a fresh interpreter that imports `oddkg` from
its own `src`.  Both sides read the same config files.  Every
`summary.txt` and `timeseries.csv` is compared byte for byte; one line
per file says whether it is identical.  Exits 1 on any difference.

The list is the golden runs (`test_golden.RUNS`, run by `test_golden._run`)
plus the shipped decay at T = 200 and the T = 20 decay with phi4, phi6,
cubic-nlkg and linear-kg.  Both sides run on one host, so the bits of
libm cancel; the golden test cannot show byte identity, as it allows
1e-9 relative.

The file name keeps pytest from collecting it.
"""

import io
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
}


def run_all(outroot: str) -> None:
    """Every golden and extra run, each into its own directory under `outroot`.

    Runs in the worker interpreter, whose sys.path puts one tree's `src`
    first, so that test_golden imports `oddkg` from there.
    """
    import test_golden

    test_golden.RUNS.update(EXTRA_RUNS)
    for name in test_golden.RUNS:
        test_golden._run(name, Path(outroot) / name)


def _run_tree(src: Path, outroot: Path) -> None:
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import byte_identity; "
            "byte_identity.run_all(sys.argv[3])")
    subprocess.run([sys.executable, "-c", code, str(src), str(TESTS), str(outroot)],
                   cwd=outroot.parent, check=True)


def _differing_lines(a: Path, b: Path) -> str:
    la, lb = a.read_bytes().splitlines(), b.read_bytes().splitlines()
    n = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
    return f"{n} of {max(len(la), len(lb))} lines"


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
        for side, src in sides.items():
            (tmp / f"out_{side}").mkdir()
            _run_tree(src, tmp / f"out_{side}")
        names = sorted(p.name for p in (tmp / "out_rev").iterdir())
        differ = 0
        for name in names:
            for fname in FILES:
                a, b = tmp / "out_rev" / name / fname, tmp / "out_tree" / name / fname
                if a.read_bytes() == b.read_bytes():
                    print(f"identical  {name}/{fname}")
                else:
                    differ += 1
                    print(f"DIFFERS    {name}/{fname}: {_differing_lines(a, b)}")
    print(f"{differ} of {len(names) * len(FILES)} files differ from {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
