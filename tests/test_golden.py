"""Golden regression: the shipped scenarios reproduce their checked-in outputs.

The determinism tests only compare a run with a repeat of itself, so a
refactor that shifts the physics numbers would pass them unnoticed.  Here
each run's `summary.txt` and `timeseries.csv` are compared with files in
`tests/golden/<name>/`, number by number, within

    |actual - golden| <= RTOL * scale + ATOL,

where the scale is max |column| over the golden CSV column, or |value| for
a summary value.  RTOL leaves room for reordered floating-point sums; ATOL
covers values that are pure roundoff residuals (e.g. max_rel_H_decomp).
Text values (status, model, booleans) must match exactly.

Regenerate, only when a change of the numbers is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import math
import sys
from pathlib import Path

import pytest

from oddkg.experiments import build_config, parse_pairs, run_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-9
ATOL = 1e-12

# name -> (shipped config, overrides); decay is shortened as in the benchmark,
# convergence (no shipped config) takes the quick-test settings in decay mode
RUNS = {
    "decay": ("decay_sine_gordon.cfg", {"T": "20"}),
    "convergence": ("decay_sine_gordon.cfg", {"scenario": "convergence", "L": "20",
                                              "N": "999", "T": "4", "record_every": "10"}),
    "breather": ("breather.cfg", {}),
    "spectral": ("spectral.cfg", {}),
    "virial_check": ("virial_check.cfg", {}),
}


def _run(name: str, outdir: Path) -> None:
    cfg_file, overrides = RUNS[name]
    pairs = parse_pairs((ROOT / "configs" / cfg_file).read_text(encoding="utf-8"))
    pairs.update(overrides)
    pairs["output_dir"] = str(outdir)
    run_scenario(build_config(pairs))


def _close(actual: float, golden: float, scale: float) -> bool:
    if math.isnan(golden):
        return math.isnan(actual)
    return abs(actual - golden) <= RTOL * scale + ATOL


def _tokens(value: str) -> list:
    out = []
    for tok in value.split():
        try:
            out.append(float(tok))
        except ValueError:
            out.append(tok)
    return out


def _read_summary(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split(": ", 1) for line in lines)


def _read_csv(path: Path) -> tuple[list, list]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_outputs(name, tmp_path):
    _run(name, tmp_path)
    gold = GOLDEN / name

    want = _read_summary(gold / "summary.txt")
    got = _read_summary(tmp_path / "summary.txt")
    assert list(got) == list(want)
    for key, wval in want.items():
        wt, gt = _tokens(wval), _tokens(got[key])
        assert len(gt) == len(wt), key
        for w, g in zip(wt, gt):
            if isinstance(w, float) and isinstance(g, float):
                assert _close(g, w, abs(w)), f"{key}: {g!r} vs golden {w!r}"
            else:
                assert g == w, f"{key}: {g!r} vs golden {w!r}"

    wh, wrows = _read_csv(gold / "timeseries.csv")
    gh, grows = _read_csv(tmp_path / "timeseries.csv")
    assert gh == wh
    assert len(grows) == len(wrows)
    for j, col in enumerate(wh):
        scale = max((abs(r[j]) for r in wrows if not math.isnan(r[j])), default=0.0)
        for i, (wr, gr) in enumerate(zip(wrows, grows)):
            assert _close(gr[j], wr[j], scale), f"{col} row {i}: {gr[j]!r} vs {wr[j]!r}"


if __name__ == "__main__":
    for run_name in sys.argv[1:] or sorted(RUNS):
        (GOLDEN / run_name).mkdir(parents=True, exist_ok=True)
        _run(run_name, GOLDEN / run_name)
        print(f"wrote {GOLDEN / run_name}")
