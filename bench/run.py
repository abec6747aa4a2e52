"""Scenario benchmark for sdachain: simulate, then replay the chain cold.

    python3 bench/run.py --workload reference|breakup --seed N \
        --seconds S --trace 0|1

Run from the repository root. Each repetition is a fresh worker process
(bench/worker.py) that builds the scenario, runs ``run_scenario`` on a
cleared propagation cache, then ``load_chain`` plus ``verify_chain`` on
the chain.log it wrote, again from a cleared cache, and checks the
result. Repetitions continue until ``--seconds`` is used up; timings are
medians over the repetitions that passed every check, corrected for the
host's speed while they ran (see hostspeed.py). Set-up is also timed in
set-up-only workers, two before each repetition.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer split of the traced
repetitions, which alternate with untraced ones. Scratch output and a
full record of the run go to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PER_REP = 2       # set-up-only processes before each repetition
MIN_REPS = 2            # repetitions must agree byte for byte, so at least two
HARD_LIMIT_S = 170.0    # a run must exit within 180 s
# single-threaded numerics: the workloads are defined as one thread; a
# fixed hash seed gives every repetition the same dict and set layouts
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": list(os.getloadavg())}


def run_worker(workload: str, seed: int, mode: str, out_dir: str,
               timeout: float) -> dict:
    """One worker process; its JSON result, or a failure record."""
    env = dict(os.environ, **WORKER_ENV)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), mode, out_dir],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": [f"{mode} worker timed out"],
                "mode": mode, "wall_s": time.perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        out = {"ok": False, "failures": [f"{mode} worker exit "
                                         f"{proc.returncode}: {tail[0]}"]}
    if proc.returncode != 0 and out.get("ok"):
        out = {"ok": False, "failures": [f"worker exit {proc.returncode}"]}
    out["mode"] = mode
    out["wall_s"] = time.perf_counter() - t0
    return out


def repetitions(args, work: str, start: float) -> list:
    """Rounds of set-up-only workers and one full repetition until the
    budget is spent; a round starts only if the previous one would still
    fit. Host speed flips between two levels about 2x apart every few
    seconds, so the set-up samples are spread over the whole run rather
    than taken in its first seconds. With tracing, untraced and traced
    repetitions alternate, so the tracing overhead is measured under the
    same host load."""
    def elapsed():
        return time.perf_counter() - start

    def worker(mode, k):
        out_dir = os.path.join(work, f"rep{k}")
        res = run_worker(args.workload, args.seed, mode, out_dir,
                         max(1.0, HARD_LIMIT_S - elapsed()))
        shutil.rmtree(out_dir, ignore_errors=True)
        return res

    # the first worker compiles bytecode and warms the file cache
    worker("setup", 0)
    reps = []
    full = 0
    last = 0.0
    while ((full < MIN_REPS or elapsed() + last <= args.seconds)
           and elapsed() < HARD_LIMIT_S):
        t0 = elapsed()
        for _ in range(SETUP_PER_REP):
            reps.append(worker("setup", len(reps) + 1))
        mode = "trace" if args.trace and full % 2 else "run"
        reps.append(worker(mode, len(reps) + 1))
        full += 1
        last = elapsed() - t0
    return reps


def end_to_end(full: list, setups: list) -> dict:
    r0 = full[0]
    return {
        "setup_s": statistics.median(setups),
        "sim_s": statistics.median(r["sim_s"] for r in full),
        "replay_s": statistics.median(r["replay_s"] for r in full),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        "settled_share": len(r0["settle_blocks"]) / r0["submitted"],
        "settle_blocks_p50": r0["settle_blocks_p50"],
        "settle_blocks_mean": r0["settle_blocks_mean"],
    }


def per_layer(untraced: list, traced: list, setups: list) -> dict:
    names = traced[0]["layers"]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in names}
    wall = statistics.median(r["sim_wall_s"] + r["replay_wall_s"]
                             for r in traced)
    base = statistics.median(r["sim_wall_s"] + r["replay_wall_s"]
                             for r in untraced)
    out["trace.overhead_s"] = wall - base
    out["host.setup_wall_s"] = statistics.median(setups)
    out["host.sim_wall_s"] = statistics.median(r["sim_wall_s"]
                                               for r in untraced)
    out["host.replay_wall_s"] = statistics.median(r["replay_wall_s"]
                                                  for r in untraced)
    out["host.kernel_us"] = statistics.median(
        k for r in untraced for k in r["kernel_us"])
    out["settle_blocks.p90"] = traced[0]["settle_blocks_p90"]
    out["settle_blocks.samples"] = len(traced[0]["settle_blocks"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "sdachain", "netsim.py")):
        print("error: src/sdachain not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    start = time.perf_counter()
    env = environment()
    print("env " + json.dumps(env), flush=True)
    work = os.path.join(ROOT, ".bench_out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    reps = repetitions(args, work, start)
    full = [r for r in reps if r["mode"] != "setup"]
    for r in reps:
        if not r["ok"]:
            print(f"FAILED {r['mode']}: {'; '.join(r['failures'])}")
    good = [r for r in full if r["ok"]]
    digests = {json.dumps(r["digests"], sort_keys=True) for r in good}
    for d in sorted(digests):
        print(f"digests {args.workload} seed={args.seed} {d}")
    correct = (all(r["ok"] for r in reps) and len(digests) == 1
               and len(good) >= MIN_REPS)
    if len(digests) > 1:
        print("FAILED: repetitions wrote different bytes")

    attempted = sum(r.get("submitted") or 1 for r in full)
    failed = sum(r["unsettled"] if r["ok"] else r.get("submitted") or 1
                 for r in full)
    untraced = [r for r in good if r["mode"] == "run"]
    traced = [r for r in good if r["mode"] == "trace"]
    metrics = {}
    if args.trace and untraced and traced:
        metrics = per_layer(untraced, traced,
                            [r["setup_wall_s"] for r in reps if r["ok"]])
    elif not args.trace and untraced:
        metrics = end_to_end(untraced,
                             [r["setup_s"] for r in reps if r["ok"]])
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        print(f"FAILED: metrics differ from BENCHMARK.json "
              f"(missing {missing[:5]}, unlisted {extra[:5]})")
        correct = False
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units if k in metrics}}
    record = {"args": vars(args), "env": env, "repetitions": reps,
              "result": result}
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for r in full:
        if r["ok"]:
            corrected = ("" if r["sim_s"] is None else
                         f"; corrected sim {r['sim_s']:.3f} s, replay "
                         f"{r['replay_s']:.3f} s")
            print(f"{r['mode']}: setup {r['setup_s']:.3f} s (wall "
                  f"{r['setup_wall_s']:.3f} s), wall sim "
                  f"{r['sim_wall_s']:.3f} s, replay "
                  f"{r['replay_wall_s']:.3f} s{corrected}, "
                  f"rss {r['peak_rss_mb']:.1f} MB, height {r['height']}, "
                  f"settled {len(r['settle_blocks'])}/{r['submitted']}, "
                  f"verdicts {r['verdicts']}, mined {len(r['mined'])}")
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
