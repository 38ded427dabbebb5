"""The benchmark's hooks into the package, checked from the test suite.

``perfbench/tracing.py`` swaps package attributes by name and
``perfbench/workloads.py`` subclasses the in-memory transport; a rename under
``src/`` that breaks either fails here rather than only in a benchmark run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_clocked_election_matches_the_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    spec = workloads.ElectionSpec("maximin", 3, 1, 60)
    workload = workloads.Workload("hooks", "clocked", (spec,), delay_s=0.001)
    inputs = workloads.make_inputs(spec, 7, 0)
    config = workloads.election_config(inputs).validate()
    shared = workloads.share_all(config, inputs)
    expected = workloads.expected_outcome(config, inputs, shared)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        latency, results, verdicts, counters = workloads.run_clocked(config, shared, workload)
    finally:
        tracer.uninstall()

    assert expected.illegal > 0
    assert workloads.check(expected, shared, results, verdicts) == []
    assert latency >= counters["comm_rounds"] * workload.delay_s
    spans = {name for _, name, party, *_ in tracer.spans if party == 1}
    assert {"session.program", "validation.validate", "engine.mul", "engine.pool",
            "shamir.share_batch", "shamir.degree_at_most", "transport.send",
            "transport.wait"} <= spans
