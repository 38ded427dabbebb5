"""Benchmark of the ordervote tally, end to end and per layer.

    python3 perfbench/run.py --workload rounds-latency --seed 1 --seconds 35 --trace 0

Runs one workload (see ``workloads.WORKLOADS``) from the seed for about
``--seconds``, checks every election against the plaintext reference, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Tallies and set-ups are timed in
processor seconds (see ``workloads``).  Per-run JSON and the spans of a
traced run go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


class Run:
    """One run of a workload: whole rounds, each a set-up and its elections."""

    def __init__(self, workloads, workload, seed: int, seconds: float):
        self.w = workloads
        self.workload = workload
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.inputs = [workloads.make_inputs(spec, seed, i)
                       for i, spec in enumerate(workload.elections)]
        self.runner = workloads.RUNNERS[workload.transport]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: dict = defaultdict(list)  # wall seconds per rule, for reference

    def setup(self) -> tuple[float, list]:
        """Config validation plus voter-side sharing of every ballot, in
        processor seconds like the tallies."""
        start = time.process_time()
        prepared = []
        for inputs in self.inputs:
            config = self.w.election_config(inputs).validate()
            prepared.append((config, self.w.share_all(config, inputs)))
        return time.process_time() - start, prepared

    def run_round(self, samples: dict, setups: list, fresh: bool) -> None:
        """A set-up if ``fresh``, then the elections it feeds.  Set-ups spread
        over the run sample the machine at as many moments as elections do."""
        if fresh:
            seconds, self.prepared = self.setup()
            setups.append(seconds)
            self.expected = [self.w.expected_outcome(config, inputs, shared)
                             for (config, shared), inputs in zip(self.prepared, self.inputs)]
        for inputs, (config, shared), expected in zip(self.inputs, self.prepared,
                                                      self.expected):
            for _ in range(inputs.spec.repeat):
                self.run_election(config, shared, expected, samples)

    def run_election(self, config, shared, expected, samples: dict) -> None:
        self.attempted += 1
        try:
            seconds, results, verdicts, counters = self.runner(config, shared, self.workload)
        except Exception as err:  # counted; the run goes on
            self.failed += 1
            print(f"election failed ({config.rule}): {err!r}", file=sys.stderr)
            return
        problems = self.w.check(expected, shared, results, verdicts)
        if self.workload.delay_s:
            floor = counters["comm_rounds"] * self.workload.delay_s
            if seconds < floor:
                problems.append(f"latency {seconds:.4f} s < {counters['comm_rounds']} "
                                f"rounds x {self.workload.delay_s} s")
        self.problems += [f"{config.rule}: {p}" for p in problems]
        samples[config.rule].append(seconds)
        self.walls[config.rule].append(counters["wall_s"])

    def rounds_until(self, deadline: float, min_rounds: int, samples: dict,
                     setups: list, setup_rounds: int | None) -> int:
        """Whole rounds until the next one would end more than half a round
        past ``deadline``, so that runs end near it on average."""
        rounds = 0
        while True:
            began = time.perf_counter()
            self.run_round(samples, setups, setup_rounds is None or rounds < setup_rounds)
            rounds += 1
            now = time.perf_counter()
            if rounds >= min_rounds and now + (now - began) / 2 > deadline:
                return rounds


def end_to_end(run: Run) -> dict:
    samples: dict = defaultdict(list)
    setups: list = []
    rounds = run.rounds_until(run.deadline, 2, samples, setups, run.workload.setup_rounds)
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for spec in run.workload.elections:
        metrics[f"tally_s.{spec.rule}"] = (statistics.median(samples[spec.rule]), "s")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return {"metrics": metrics, "setups_s": setups, "rounds": rounds,
            "samples_s": dict(samples), "wall_samples_s": dict(run.walls)}


def per_layer(run: Run) -> dict:
    import tracing

    # Every round sets up, so the voter-side layers are measured per round too.
    untraced: dict = defaultdict(list)
    run.rounds_until((run.start + run.deadline) / 2, 1, untraced, [], None)
    tracer = tracing.Tracer()
    traced: dict = defaultdict(list)
    tracer.install()
    try:
        rounds = run.rounds_until(run.deadline, 1, traced, [], None)
    finally:
        tracer.uninstall()

    self_s = tracer.self_times()
    program = tracer.counts[("session.program", 1)]

    def busy(name: str):  # party 1's self-time per round
        return self_s.get((name, 1), 0.0) / rounds, "s"

    def count(tally, key: str):  # per round; every round does the same work
        return tally[key] // rounds, "count"

    validate = tracer.counts[("validation.validate", 1)]
    score = tracer.counts[("tally.score", 1)]
    select = tracer.counts[("tally.select", 1)]
    illegal = sum(e.illegal * i.spec.repeat for e, i in zip(run.expected, run.inputs))
    metrics = {
        "ballots.share_s": (tracer.totals("ballots.share", 0, top_level_only=True)[0]
                            / rounds, "s"),
        "shamir.voter_share_batch_s": (self_s.get(("shamir.share_batch", 0), 0.0) / rounds, "s"),
        "validation.validate_s": busy("validation.validate"),
        "validation.mul_gates": count(validate, "mul_gates"),
        "validation.rounds": count(validate, "comm_rounds"),
        "validation.rejected": count(validate, "rejected"),
        "validation.rejected_per_illegal": (validate["rejected"] / rounds / illegal, "ratio"),
        "tally.aggregate_s": busy("tally.aggregate"),
        "tally.score_s": busy("tally.score"),
        "tally.score_rounds": count(score, "comm_rounds"),
        "tally.select_s": busy("tally.select"),
        "tally.select_rounds": count(select, "comm_rounds"),
        "tally.comparisons": ((score["comparisons"] + select["comparisons"]) // rounds, "count"),
        "engine.mul_s": busy("engine.mul"),
        "engine.mul_calls": (tracer.totals("engine.mul", 1)[1] // rounds, "count"),
        "engine.mul_gates": count(program, "mul_gates"),
        "engine.mul_rounds": count(program, "mul_rounds"),
        "engine.shared_lsb_s": busy("engine.shared_lsb"),
        "engine.lsb_extractions": count(program, "lsb_extractions"),
        "engine.open_s": busy("engine.open"),
        "engine.opens": count(program, "opens"),
        "engine.pool_refill_s": busy("engine.pool"),
        "engine.rand_sharings": count(program, "rand_sharings"),
        "engine.double_sharings": count(program, "double_sharings"),
        "shamir.share_batch_s": busy("shamir.share_batch"),
        "shamir.reconstruct_batch_s": busy("shamir.reconstruct_batch"),
        "shamir.degree_at_most_s": busy("shamir.degree_at_most"),
        "transport.comm_rounds": count(program, "comm_rounds"),
        "transport.messages": count(program, "messages"),
        "transport.bytes_sent": count(program, "bytes_sent"),
        "transport.send_s": busy("transport.send"),
        "transport.wait_s": busy("transport.wait"),
        "session.program_s": (tracer.totals("session.program", 1)[0] / rounds, "s"),
        "trace.overhead_s": (sum(statistics.median(traced[s.rule]) - statistics.median(untraced[s.rule])
                                 for s in run.workload.elections), "s"),
    }
    extra = {"illegal_per_round": illegal, "traced_rounds": rounds,
             "untraced_samples_s": dict(untraced), "traced_samples_s": dict(traced)}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{run.workload.name}.csv")
    return {"metrics": metrics, **extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ordervote" / "__init__.py").is_file():
        print(f"perfbench: no ordervote sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(workloads, workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    report = (per_layer if args.trace else end_to_end)(run)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in report.pop("metrics").items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name, value in report.items():
        if isinstance(value, (int, float)):
            print(f"{args.workload} {name} = {value:.6g}")
    for problem in run.problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, workload=args.workload, seed=args.seed,
                        problems=run.problems, **report), indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
