"""Every config value runs or fails cleanly.

Hypothesis draws configs for every scenario through the command-line front
end (`build_config` plus `run_scenario`), with tiny N and T and extreme or
non-finite values for each key.  Whatever it draws must end in exit code 0
(ok), 1 (an abort or a failed check) or 2 (a config error), never in an
exception escaping `main`, which is what prints a traceback.  A run that
reports `status: ok` must mean it: finite T and dt, finite diagnostics in
every CSV row, and every ratio of the summary finite, save the ones that a
run too short to span them leaves nan by definition.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddkg.cli import main as cli_main
from oddkg.experiments import SCENARIOS
from oddkg.models import CATALOG_NAMES

#: ratios that need a span a short run lacks: records after t = 1, a
#: nonzero first-half integral of J, a breather period
SPAN_RATIOS = ("min_virial_ratio_after_t1", "J_plateau_increment_ratio", "min_period_ratio")

#: a valid tiny run, which the drawn values then perturb
TINY = {"L": ("20",), "N": ("16", "31", "99"), "T": ("0", "0.5", "1", "2")}
EXTREME = {
    "N": ("15", "0", "-5", "1e3", "nan", "9223372036854775808", "100000000000000000000"),
    "T": ("1e-300", "-1", "inf", "nan", "1e300"),
    "L": ("4", "1e-300", "1e300", "-1", "inf"),
    "model": CATALOG_NAMES + ("bogus",),
    "poly_m": ("-1", "1", "1e300", "-1e300", "nan"),
    "poly_coeffs": ("0,0,0,1", "0,0,0,-1e300", "0,0,0,0", "", "1,2,3", "nan", "x"),
    "epsilon": ("0.05", "1e100", "1e150", "1e-300", "0", "-1", "inf"),
    "sigma": ("2", "1e-300", "1e-150", "1e300", "0.1", "-2", "nan"),
    "dt_safety": ("0.4", "0.99", "1e-300", "0", "1", "nan"),
    "lambda": ("10", "5", "1e-300", "1e200", "0", "nan"),
    "record_every": ("1", "25", "0", "-1", "1000000000", "2.5"),
    "beta": ("0.5", "1e-300", "0.999999", "0", "1", "nan"),
    "seed": ("12345", "0", "-1", "18446744073709551617"),
    "data_family": ("gauss-odd-displacement", "gauss-odd-velocity", "bogus"),
    "conv_mode": ("decay", "breather", "bogus"),
}


@st.composite
def configs(draw):
    pairs = {key: draw(st.sampled_from(values)) for key, values in TINY.items()}
    for key in draw(st.lists(st.sampled_from(sorted(EXTREME)), max_size=3, unique=True)):
        pairs[key] = draw(st.sampled_from(EXTREME[key]))
    return draw(st.sampled_from(SCENARIOS)), pairs


def _check_ok_outputs(outdir: Path) -> None:
    summary = dict(line.split(": ", 1)
                   for line in (outdir / "summary.txt").read_text().splitlines())
    for key in ("T", "dt"):
        if key in summary:
            assert math.isfinite(float(summary[key])), (key, summary[key])
    for key, value in summary.items():
        if "ratio" in key:
            assert math.isfinite(float(value)) or (key in SPAN_RATIOS and value == "nan"), \
                (key, value)
    header, *rows = (outdir / "timeseries.csv").read_text().splitlines()
    columns = header.split(",")
    for row in rows:
        for column, value in zip(columns, row.split(",")):
            if column != "dI_dt_numeric":
                assert math.isfinite(float(value)), (column, row)


@settings(max_examples=150, deadline=None)
@given(config=configs())
# the record diagnostics overflow while the state stays finite: this reported
# status ok with nan in E, dI_dt_rhs and sf_ratio
@example(config=("decay", {"N": "99", "T": "1", "model": "linear-kg", "epsilon": "1e100"}))
# lambda^2 overflowed in the virial weights: an OverflowError traceback
@example(config=("decay", {"N": "16", "T": "0", "lambda": "1e200"}))
# N past numpy's index range: np.arange gave an empty grid for 2^63 and
# raised for 1e20, and both reached the user as tracebacks
@example(config=("spectral", {"L": "20", "N": "9223372036854775808", "T": "0"}))
@example(config=("virial-check", {"L": "20", "N": "100000000000000000000", "T": "0"}))
def test_every_config_runs_or_fails_cleanly(config):
    scenario, pairs = config
    with tempfile.TemporaryDirectory() as tmp:
        argv = [scenario] + [arg for key, value in pairs.items()
                             for arg in ("--set", f"{key}={value}")]
        argv += ["--set", f"output_dir={tmp}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
        assert rc in (0, 1, 2), (rc, err.getvalue())
        if rc == 2:
            assert err.getvalue().startswith("config error: "), err.getvalue()
        if "status: ok\n" in out.getvalue():
            assert rc == 0
            _check_ok_outputs(Path(tmp))
