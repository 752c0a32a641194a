"""gradsel benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload gauss-select [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

--trace 0 measures the end-to-end metrics with no tracing. --trace 1 sets up
once, runs the timed stages once untraced and once traced, and reports the
per-layer metrics. Without --seed the repo's default config runs unchanged.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import harness


def measure(benchmark: dict, workload: str, seed: int | None, seconds: float, trace: bool):
    result = harness.run_workload(workload, seed, seconds, trace)
    if trace:
        declared = benchmark["per_layer"]
        values = harness.per_layer(result, [m["name"] for m in declared])
    else:
        declared = benchmark["end_to_end"]
        values = harness.end_to_end(result)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return result, metrics


def describe(result: harness.Result, metrics: dict, trace: bool) -> None:
    """Human-readable lines before the JSON result."""
    print(f"== {result.workload} seed={result.seed if result.seed is not None else 'default'}")
    for name, walls in result.stage_s.items():
        label = "untraced " if trace else ""
        walls_text = ", ".join(f"{w:.4f}" for w in walls)
        print(f"  {label}{name}_s = {walls_text} (median {statistics.median(walls):.4f})")
    if result.subset_s and not trace:
        tail = ", ".join(f"p{p} {harness.percentile_ms(result.subset_s, p):.3f} ms" for p in (50, 90, 99))
        print(f"  subset scoring calls n={len(result.subset_s)}: {tail}")
    for name, value in result.quality.items():
        print(f"  {name} = {value:.12g}")
    if trace:
        for stage, cov in harness.coverage(result).items():
            print(f"  trace.coverage[{stage}] = {cov:.4f} of {result.traced_stage_s[stage]:.4f} s")
        layers = {}
        for counts in result.stage_layers.values():
            for k, v in counts.items():
                if k.endswith(".self_s"):
                    layers[k] = layers.get(k, 0.0) + v
        for k, v in sorted(layers.items(), key=lambda kv: -kv[1])[:12]:
            print(f"  {k} = {v:.4f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  ops attempted {result.attempted}, failed {result.failed}")
    for failure in result.failures:
        print(f"  FAILED: {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        harness.load_program()
    except harness.ProgramMissing as e:
        print(f"perfbench: {e}; run from a full checkout", file=sys.stderr)
        return 2
    benchmark = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    print("host: " + json.dumps(harness.host_facts()))
    runs = [measure(benchmark, name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result, metrics in runs:
        describe(result, metrics, bool(args.trace))

    if len(runs) == 1:
        metrics = runs[0][1]
    else:  # one JSON line for all workloads: names prefixed by workload
        metrics = {f"{r.workload}.{k}": v for r, m in runs for k, v in m.items()}
    failed = sum(r.failed for r, _ in runs)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r.attempted for r, _ in runs),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
