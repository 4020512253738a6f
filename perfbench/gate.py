"""Correctness gate for benchmark runs.

Checks that hold for any seed compare the program's outputs with what
the generator knows about its own inputs: ``scores.csv`` has one row per
boost or sink edge, ``summary.json`` reports the generator's counts,
every injected campaign appears in ``clusters.json`` at its (app,
sub-stream, tick), the rejected lines are all reported, and the network
weights add up to the reviewer pair expansion.

The digest check runs ``pipeline`` on the gate inputs (each workload at
the default seed, at ``GATE_SCALE`` of its size) and compares its
analytical outputs with the digests recorded in ``expected.json``.
``manifest.json`` is left out: it carries paths and a runtime. The
network CSV is checked on every run by the seed-independent checks, and
its digest is recorded by ``--record`` and compared by this script. To
record new digests after a change that alters outputs on purpose, run::

    python3 perfbench/gate.py --record
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import child
import workloads

PIPELINE_OUTPUTS = (
    "scores.csv", "events.jsonl", "clusters.json", "cdf_boost.csv", "cdf_sink.csv",
    "summary.json", "parse_errors.jsonl",
)
NETWORK_OUTPUT = "network.csv"
EXPECTED_PATH = Path(__file__).with_name("expected.json")
GATE_SCALE = 0.25
CHILD_TIMEOUT_S = 120.0


def file_digests(out_dir: Path, names) -> dict[str, str]:
    """sha256 of each named output; a missing file digests as "missing"."""
    result = {}
    for name in names:
        path = out_dir / name
        result[name] = workloads.sha256_file(path) if path.is_file() else "missing"
    return result


def check_pipeline(out_dir: Path, truth: dict) -> list[str]:
    """Seed-independent checks on one ``pipeline`` output directory."""
    problems = []
    counts = truth["counts"]
    try:
        with open(out_dir / "scores.csv", "rb") as fh:
            rows = sum(1 for line in fh if not line.startswith(b"#")) - 1
        if rows != counts["boost"] + counts["sink"]:
            problems.append(f"scores.csv has {rows} rows, expected "
                            f"{counts['boost'] + counts['sink']} (boost + sink)")
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        if summary.get("counts") != counts:
            problems.append(f"summary.json counts {summary.get('counts')} != generator {counts}")
        report = json.loads((out_dir / "clusters.json").read_text(encoding="utf-8"))
        found = {(c["app_id"], c["substream"], c["tick"]) for c in report}
        for camp in truth["campaigns"]:
            if (camp["app_id"], camp["substream"], camp["tick"]) not in found:
                problems.append(f"campaign {camp} missing from clusters.json")
        with open(out_dir / "parse_errors.jsonl", "rb") as fh:
            rejected = sum(1 for _ in fh)
        if rejected != truth["rejected_lines"]:
            problems.append(f"parse_errors.jsonl has {rejected} lines, "
                            f"expected {truth['rejected_lines']}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable pipeline output: {exc!r}")
    return problems


def check_network(path: Path, truth: dict) -> list[str]:
    """The shared-reviewer network lists each app pair once, in sorted
    order, and its weights sum to the reviewer pair expansion."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            rows = [line.rstrip("\n").split(",") for line in fh]
        pairs = [(a, b) for a, b, _ in rows]
        weights = [int(w) for _, _, w in rows]
    except (OSError, ValueError) as exc:
        return [f"unreadable network output: {exc!r}"]
    problems = []
    if header != "app_a,app_b,weight":
        problems.append(f"network CSV header {header!r}")
    if any(a >= b for a, b in pairs) or any(p >= q for p, q in zip(pairs, pairs[1:])):
        problems.append("network rows are not strictly sorted pairs with app_a < app_b")
    if min(weights, default=1) < 1 or sum(weights) != truth["network_increments"]:
        problems.append(f"network weights sum to {sum(weights)} (min {min(weights, default=1)}), "
                        f"expected {truth['network_increments']}")
    return problems


def exit_problems(run: child.ChildRun) -> list[str]:
    return [] if run.exit_code == 0 else [f"exit code {run.exit_code}"]


def compare_digests(actual: dict, expected: dict) -> list[str]:
    """One problem per file in ``actual`` whose digest differs from ``expected``."""
    return [f"{name}: sha256 {digest} != recorded {expected.get(name)}"
            for name, digest in sorted(actual.items()) if expected.get(name) != digest]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def run_gate(root: Path, work: Path, name: str, network: bool = False,
             timeout_s: float = CHILD_TIMEOUT_S):
    """Run ``pipeline``, and ``stats network`` if asked, on the gate inputs
    of one workload. Returns the input and output digests and the problems
    found, before any comparison with recorded digests."""
    inputs = work / "inputs" / f"{name}-gate"
    truth = workloads.load_or_generate(name, workloads.DEFAULT_SEED, inputs, GATE_SCALE)
    out = work / "out" / f"{name}-gate"
    out.mkdir(parents=True, exist_ok=True)
    rel_in, rel_out = inputs.relative_to(root), out.relative_to(root)
    outputs = PIPELINE_OUTPUTS + ((NETWORK_OUTPUT,) if network else ())
    for stale in outputs:
        (out / stale).unlink(missing_ok=True)
    pipe = child.run_cli(root, child.pipeline_argv(rel_in, rel_out, truth["period"]),
                         out / "pipeline.log", timeout_s)
    problems = exit_problems(pipe) or check_pipeline(out, truth)
    if network:
        net = child.run_cli(root, child.network_argv(rel_in, rel_out / NETWORK_OUTPUT),
                            out / "network.log", timeout_s)
        problems += exit_problems(net) or check_network(out / NETWORK_OUTPUT, truth)
    return {"inputs": truth["sha256"], "outputs": file_digests(out, outputs)}, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="overwrite expected.json with the digests of this run")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    work = root / ".perfbench-work"
    recorded, failed = {}, False
    expected = {} if args.record else load_expected()
    for name in workloads.WORKLOADS:
        digests, problems = run_gate(root, work, name, network=True)
        if not args.record:
            problems += compare_digests(digests["inputs"], expected[name]["inputs"])
            problems += compare_digests(digests["outputs"], expected[name]["outputs"])
        for problem in problems:
            print(f"{name}: {problem}", file=sys.stderr)
        failed = failed or bool(problems)
        recorded[name] = digests
    if args.record and not failed:
        EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
