"""Run every workload over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Each run is a separate `run.py` process, one at a time.  For every
end-to-end metric the record keeps all values, their median and the
spread (third minus first quartile, over the median, as
`statistics.quantiles(values, n=4)` gives them), compared with the bound
in BENCHMARK.json.  With `--traced` one traced run per workload (first
seed) is added.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(l)["info"] for l in lines if l.startswith('{"info"'))
    host = next(json.loads(l)["host"] for l in lines if l.startswith('{"host"'))
    return {"seed": seed, "host": host, "info": info, "result": json.loads(lines[-1])}


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--out", default=None, help="JSON file for the record")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = [one_run(name, s, spec["run_seconds"], 0) for s in seeds]
        summary = {}
        for metric in bounds:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            summary[metric] = {"median": statistics.median(values),
                               "spread": spread(values), "bound": bounds[metric],
                               "values": values}
            print(f"{name:16s} {metric:14s} median {summary[metric]['median']:<12.6g} "
                  f"spread {summary[metric]['spread']:.4f} (bound {bounds[metric]})",
                  flush=True)
        entry = {"summary": summary, "runs": runs,
                 "all_correct": all(r["result"]["correct"] for r in runs)}
        if args.traced:
            entry["traced"] = one_run(name, seeds[0], spec["run_seconds"], 1)
        record["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
