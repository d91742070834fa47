"""Median and quartiles of benchmark results, per workload and mode.

    python3 perfbench/summarize.py .perfbench_work/results/*.json [--json OUT]

Reads the detail records that ``run.py`` writes, prints one line per metric
(median, first and third quartile, and their distance as a share of the
median) and optionally writes the same summary, with each run's seed and
digests, as JSON.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles


def summarize(paths: list[Path]) -> dict:
    groups: dict[str, list[dict]] = defaultdict(list)
    for path in paths:
        record = json.loads(path.read_text())
        mode = "trace" if record["trace"] else "plain"
        groups[f"{record['workload']}/{mode}"].append(record)
    summary = {}
    for key, records in sorted(groups.items()):
        records.sort(key=lambda r: r["seed"])
        values: dict[str, list[float]] = defaultdict(list)
        units = {}
        for r in records:
            for name, m in r["result"]["metrics"].items():
                values[name].append(m["value"])
                units[name] = m["unit"]
        metrics = {}
        for name, v in values.items():
            q1, _, q3 = quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            mid = median(v)
            metrics[name] = {
                "unit": units[name], "median": mid, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / mid if mid else 0.0, "values": v,
            }
        summary[key] = {
            "runs": [
                {
                    "seed": r["seed"], "correct": r["result"]["correct"],
                    "input_digest": r.get("input_digest"),
                    "output_digest": r.get("output_digest"),
                }
                for r in records
            ],
            "environment": records[0]["environment"],
            "metrics": metrics,
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args()
    summary = summarize(args.results)
    for key, group in summary.items():
        print(f"{key}: {len(group['runs'])} runs")
        for name, m in group["metrics"].items():
            print(
                f"  {name:40s} {m['median']:12.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"
                f" spread {m['spread']:.3f} {m['unit']}"
            )
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
