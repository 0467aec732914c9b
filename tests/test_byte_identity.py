"""The deviation report of `tests/byte_identity.py`, on two small synthetic
output directories: one run whose files are identical, one whose CSV and
summary differ by roundoff, by a text value and by a missing key.  Its
line count, on a synthetic source tree.  Its tally of Sturm counts and
Newton passes, on a small matrix."""

from pathlib import Path

import numpy as np

import byte_identity
from oddkg import spectral

HEADER = "t,E,exact_err_l2\n"


def _write(root: Path, name: str, csv: str, summary: str) -> None:
    (root / name).mkdir(parents=True)
    (root / name / "timeseries.csv").write_text(HEADER + csv)
    (root / name / "summary.txt").write_text(summary)


def test_report_names_each_deviation(tmp_path):
    rev, tree = tmp_path / "rev", tmp_path / "tree"
    same_csv, same_summary = "0.0e+00,1.0e+00,nan\n", "status: ok\n"
    for root in (rev, tree):
        _write(root, "a_same", same_csv, same_summary)
    _write(rev, "b_moved", "0.0e+00,2.0e+00,nan\n1.0e+00,-4.0e+00,1.0e-03\n",
           "status: ok\nH: 2.0\neigs: 1.0 4.0\nn: 3\ngone: 1\n")
    _write(tree, "b_moved", "0.0e+00,2.0e+00,nan\n1.0e+00,-4.000000000000004e+00,1.0e-03\n",
           "status: aborted_nan\nH: 2.0000000000000004\neigs: 1.0 4.000000000000004\nn: 3\n")

    lines, differ = byte_identity.compare(rev, tree)

    assert differ == 2
    assert lines == [
        "identical  a_same/summary.txt",
        "identical  a_same/timeseries.csv",
        "DIFFERS    b_moved/summary.txt: 4 of 5 lines",
        "           status: text 'ok' vs 'aborted_nan'",
        "           H: 2.2e-16 relative",
        "           eigs: 1.1e-15 relative",
        "           gone: only on <rev>",
        "DIFFERS    b_moved/timeseries.csv: 1 of 3 lines",
        "           E: 1.1e-15 of column scale",
    ]


def test_report_on_equal_values_in_other_text(tmp_path):
    # the same floats written differently, and a row the tree lacks
    rev, tree = tmp_path / "rev", tmp_path / "tree"
    _write(rev, "run", "1.0e+00,2.0e+00,3.0e+00\n4.0e+00,5.0e+00,6.0e+00\n", "H: 0.5\n")
    _write(tree, "run", "1.0e+00,2.0e+00,3.0e+00\n", "H: 5e-1\n")

    lines, differ = byte_identity.compare(rev, tree)

    assert differ == 2
    assert lines == [
        "DIFFERS    run/summary.txt: 1 of 1 lines",
        "           every value equal; the text differs",
        "DIFFERS    run/timeseries.csv: 1 of 3 lines",
        "           2 rows vs 1; the first 1 compared",
    ]


def test_line_count_is_wc_l_over_the_package_modules(tmp_path):
    # a last line without a newline is not counted, as by wc -l; files beside
    # the package and non-Python files in it are not counted either
    pkg = tmp_path / "src" / "oddkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\nw = 4")
    (pkg / "notes.txt").write_text("one\ntwo\n")
    (tmp_path / "src" / "setup.py").write_text("pass\n")

    assert byte_identity.line_count(tmp_path / "src") == 4


def test_sturm_calls_tally_counts_and_passes_and_unpatch():
    # eigenvalues (1 -+ sqrt 5)/2 and 3; a count at a new shift is one call
    d = spectral.SchrodingerDiscretization(diag=np.array([0.0, 1.0, 3.0]),
                                           offdiag=np.array([1.0, 0.0]))
    originals = spectral._sturm_count, spectral._sturm_slope
    assert byte_identity.sturm_calls(lambda: spectral.count_below(d, 0.0)) == (1, 0)
    assert byte_identity.sturm_calls(lambda: spectral.count_below(d, 0.0)) == (0, 0)
    counts, passes = byte_identity.sturm_calls(lambda: spectral.lowest_eigs(d, 3))
    assert counts + passes == len(d.counts[0]) - 1 and passes >= 3
    assert (spectral._sturm_count, spectral._sturm_slope) == originals


def test_call_lines_name_each_run_with_counts_on_either_side():
    lines = byte_identity.call_lines("abc123", {"spectral": [84, 81], "gone": [2, 0]},
                                     {"spectral": [80, 85], "new": [1, 1]})
    assert lines == [
        "sturm calls gone: 2 counts and 0 passes at abc123, 0 counts and 0 passes in the tree",
        "sturm calls new: 0 counts and 0 passes at abc123, 1 counts and 1 passes in the tree",
        "sturm calls spectral: 84 counts and 81 passes at abc123, "
        "80 counts and 85 passes in the tree",
    ]
