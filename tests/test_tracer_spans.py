"""Short CLI runs under the benchmark tracer record a span for every hook.

`test_tracer_hooks.py` checks that each hooked name exists.  This installs the
tracer as `bench/run.py --trace 1` does, runs decay, spectral and virial-check
through `cli.main`, and checks that every hook was called at least once and
that each run's spans form one well-nested tree under the `cli.main` root.
A hooked call moved out of reach of its patched name shows here.
"""

from test_tracer_hooks import _load_tracer, _modules

from oddkg import cli

RUNS = (
    ["decay", "--set", "L=20", "--set", "N=99", "--set", "T=1"],
    ["spectral", "--set", "L=20", "--set", "N=99", "--set", "lambda=1"],
    ["virial-check", "--set", "L=20", "--set", "N=99"],
)


def test_every_hook_records_a_span(tmp_path):
    tracer = _load_tracer()
    t = tracer.Tracer()
    root = t.wrap(tracer.ROOT_SPAN, cli.main)
    t.install(_modules(tracer.HOOKS))
    seen = set()
    try:
        for argv in RUNS:
            assert root(argv + ["--set", f"output_dir={tmp_path / argv[0]}"]) in (0, 1)
            spans, _ = t.take()
            tracer.self_times(spans)  # a TraceError unless the spans nest under one root
            seen.update(name for name, *_ in spans)
    finally:
        t.restore()
    assert sorted({span for _, _, span in tracer.HOOKS} - seen) == []
