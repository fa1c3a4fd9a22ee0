"""Run every workload of BENCHMARK.json once per seed, for run_seconds
each, and add the results to a result set (OUT is created, or extended
if it exists). With --trace the runs report the per-layer metrics.

Run from the root of the checkout to measure:

    python3 costbench/collect.py [--trace] OUT.json SEED [SEED ...]

Compare two sets of end-to-end results with

    bash costbench/run.sh --compare BASE.json NEW.json
"""
import json
import os
import subprocess
import sys


def main(args):
    trace = "--trace" in args
    args = [a for a in args if a != "--trace"]
    if len(args) < 2:
        sys.exit(__doc__)
    out, seeds = args[0], [int(s) for s in args[1:]]
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    runs = []
    if os.path.exists(out):
        with open(out) as f:
            runs = json.load(f)["runs"]
    for seed in seeds:
        for w in spec["workloads"]:
            cmd = spec["command"] + [
                "--workload", w["name"], "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0",
            ]
            stdout = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(stdout.strip().splitlines()[-1])
            print(w["name"], seed, "correct" if result["correct"] else "INCORRECT", flush=True)
            runs.append({"workload": w["name"], "seed": seed, "result": result})
    with open(out, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
