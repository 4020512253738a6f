"""reviewstream benchmark: time and memory to a complete result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk --seed 3 --seconds 30 --trace 0

reviewstream is a batch tool, so each workload is a closed loop with one
client: one ``reviewstream`` child process at a time, started from this
process. A run

1. generates the workload's inputs from ``--seed`` (cached per workload
   and seed under ``.perfbench-work/``, outside all timing);
2. runs the correctness gate, which doubles as a warm-up: ``pipeline``
   on the workload's gate inputs, compared with the output digests
   recorded in ``expected.json``;
3. repeats ``pipeline`` and ``stats network`` on the seeded inputs,
   checking every output, until the next repetition would end past
   ``--seconds`` (at least ``MIN_REPS`` repetitions); the first
   ``SETUP_SAMPLES`` repetitions also time ``reviewstream --version``;
4. with ``--trace 1``, also runs both commands in this process with spans
   around each layer (see ``layers.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end medians; with ``--trace 1`` they are the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import child
import gate
import workloads

MIN_REPS = 3
SETUP_SAMPLES = 3  # setup_s is measured in the first repetitions only
RUN_LIMIT_S = 170.0  # a whole run, traced part included, ends within this
TRACE_RESERVE_S = 40.0  # time the traced part may need after the timed loop

END_TO_END = {  # metric: unit
    "setup_s": "s",
    "pipeline_s": "s",
    "pipeline_rss_mb": "MB",
    "network_s": "s",
    "network_rss_mb": "MB",
}


class Ledger:
    """Every child run is one operation; a run failing any check fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100) >= 10:
            return f"p{p:g}", ordered[math.ceil(p / 100 * len(values)) - 1]
    return "max", ordered[-1]


def run_gate(root: Path, work: Path, name: str, ledger: Ledger, timeout_s: float) -> None:
    digests, problems = gate.run_gate(root, work, name, timeout_s=timeout_s)
    expected = gate.load_expected()[name]
    problems += gate.compare_digests(digests["inputs"], expected["inputs"])
    problems += gate.compare_digests(digests["outputs"], expected["outputs"])
    ledger.record("gate pipeline", problems)


def timed_loop(root: Path, work: Path, name: str, seed: int, truth: dict, seconds: float,
               ledger: Ledger, deadline: float) -> dict[str, list[float]]:
    """Repeat the commands; every child is killed if it outlives ``deadline``."""
    inputs = work / "inputs" / f"{name}-{seed}"
    out = work / "out" / f"{name}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    rel_in, rel_out = inputs.relative_to(root), out.relative_to(root)
    samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
    first_digests = None
    start = time.perf_counter()
    reps = 0
    while True:
        reps += 1
        rep_start = time.perf_counter()
        if reps <= SETUP_SAMPLES:
            version = child.run_cli(root, child.VERSION_ARGV, out / "version.log",
                                    deadline - time.perf_counter())
            text = (out / "version.log").read_text(encoding="utf-8", errors="replace")
            if ledger.record("--version", gate.exit_problems(version) or (
                    [] if text.startswith("reviewstream ") else [f"printed {text[:80]!r}"])):
                samples["setup_s"].append(version.wall_s)

        for stale in gate.PIPELINE_OUTPUTS + (gate.NETWORK_OUTPUT,):
            (out / stale).unlink(missing_ok=True)
        pipe = child.run_cli(root, child.pipeline_argv(rel_in, rel_out, truth["period"]),
                             out / "pipeline.log", deadline - time.perf_counter())
        problems = gate.exit_problems(pipe) or gate.check_pipeline(out, truth)
        if not problems:
            digests = gate.file_digests(out, gate.PIPELINE_OUTPUTS)
            first_digests = first_digests or digests
            problems = [f"not deterministic: {p}"
                        for p in gate.compare_digests(digests, first_digests)]
        if ledger.record("pipeline", problems):
            samples["pipeline_s"].append(pipe.wall_s)
            samples["pipeline_rss_mb"].append(pipe.rss_mb)

        net = child.run_cli(root, child.network_argv(rel_in, rel_out / gate.NETWORK_OUTPUT),
                            out / "network.log", deadline - time.perf_counter())
        if ledger.record("stats network", gate.exit_problems(net)
                         or gate.check_network(out / gate.NETWORK_OUTPUT, truth)):
            samples["network_s"].append(net.wall_s)
            samples["network_rss_mb"].append(net.rss_mb)

        now = time.perf_counter()
        if now + (now - rep_start) > deadline or (reps >= MIN_REPS and (
                now + (now - rep_start) - start > seconds or not samples["pipeline_s"])):
            break
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "reviewstream" / "cli.py").is_file():
        print(f"no reviewstream source under {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".perfbench-work"
    name, seed = args.workload, args.seed
    inputs = work / "inputs" / f"{name}-{seed}"
    truth = workloads.load_or_generate(name, seed, inputs)
    print(f"workload {name} seed {seed}: inputs "
          + ", ".join(f"{f} sha256 {h}" for f, h in sorted(truth["sha256"].items())))

    ledger = Ledger()
    deadline = started + RUN_LIMIT_S - (TRACE_RESERVE_S if args.trace else 0.0)
    run_gate(root, work, name, ledger, deadline - time.perf_counter())
    samples = timed_loop(root, work, name, seed, truth, args.seconds, ledger, deadline)

    if not all(samples.values()):
        print("\n".join(ledger.problems), file=sys.stderr)
        print("no successful run of some command; no metrics", file=sys.stderr)
        return 1
    medians = {k: statistics.median(v) for k, v in samples.items()}

    per_layer, missing = {}, []
    if args.trace:
        import layers  # imports the program into this process

        out = work / "out" / f"{name}-{seed}-traced"
        try:
            per_layer, missing, codes = layers.traced_run(
                root, inputs.resolve(), out, truth, out.parent / f"{name}-{seed}-traced.log")
        except Exception:  # a program that breaks in-process fails the traced run
            ledger.record("traced run", [traceback.format_exc()])
        else:
            ledger.record("traced pipeline", [f"exit code {c}" for c in codes if c != 0]
                          or gate.check_pipeline(out, truth))
            ledger.record("traced network", gate.check_network(out / gate.NETWORK_OUTPUT, truth))
            per_layer["trace.overhead_s"] = (
                per_layer["trace.pipeline_s"][0] - (medians["pipeline_s"] - medians["setup_s"]),
                "s")
        shutil.rmtree(out, ignore_errors=True)

    for problem in ledger.problems:
        print(f"FAILED {problem}")
    for key, unit in END_TO_END.items():
        label, high = tail(samples[key])
        print(f"{key:16s} median {medians[key]:10.4f} {unit:3s}  {label} {high:10.4f}  "
              f"n={len(samples[key])}  [" + " ".join(f"{v:.4f}" for v in samples[key]) + "]")
    print(f"failed/attempted {ledger.failed}/{ledger.attempted}")
    if missing:
        print("entry points not found or never called (their metrics are left out): "
              + ", ".join(missing))
    for key, (value, unit) in sorted(per_layer.items()):
        print(f"{key:32s} {value:14.6g} {unit}")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = {k: {"value": medians[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
