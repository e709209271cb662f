"""adamoge benchmark: train-h96, train-h720 and serve-d3, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository.  Each workload runs in its own child
processes (``perfbench/workload.py``) with one BLAS thread and ``src`` on
the import path: one child generates the inputs from the seed, a few time a
cold set-up, and one sets up, passes the correctness gate and runs the
closed loop for ``--seconds``.  With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The last line of standard output is one JSON object; the full
record, with the environment, goes to ``perfbench/results/``.  The exit
code is 0 only if every operation and check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("train-h96", "train-h720", "serve-d3")
SETUP_CHILDREN = 2  # cold set-ups in fresh processes before and again after the measuring one
TIME_LIMIT_S = 170.0  # the whole command, per workload
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "adamoge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def host_environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported tree has no commit of its own
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``workload.py`` with ``args``; return the JSON on its last output line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before " + args[0])
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "workload.py"), *args], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} child exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_repeatable(record: dict) -> bool:
    """Same workload, seed and source must give the same quality bits as any
    earlier run in this checkout.  Returns False on a mismatch."""
    path = RESULTS / "quality.json"
    try:
        seen = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        seen = {}
    key = f"{record['workload']} seed={record['seed']} src={record['env']['source_sha256']}"
    value = record["quality_hex"]
    if key in seen:
        return seen[key] == value
    seen[key] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return True


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    work = RESULTS / f"work-{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        common = ["--workload", name, "--seed", str(seed), "--dir", str(work)]
        run_child(["inputs", *common], deadline)

        def set_ups() -> list[float]:
            # split around the measuring child, so that the samples are half a
            # minute apart and one slow spell of the host does not set them all
            return [] if trace else [run_child(["setup", *common], deadline)["setup_s"]
                                     for _ in range(SETUP_CHILDREN)]

        setups = set_ups()
        extra = ["--spans", str(RESULTS / f"spans-{stem}.jsonl")] if trace else []
        record = run_child(["measure", *common, "--seconds", str(seconds), *extra], deadline)
        setups += [record["setup_s"], *set_ups()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["setup_samples"] = setups
    record["end_to_end"]["setup_s"] = statistics.median(setups)
    record["env"] = {**host_environment(), **record.pop("environment")}
    if not record["env"]["adamoge"].startswith(str(SRC)):
        raise BenchError(f"imported adamoge from {record['env']['adamoge']}, not {SRC}")
    if not check_repeatable(record):
        record["failed"] += 1
        record["failures"].append("quality differs from an earlier run at this seed")
    record["attempted"] += 1
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def metric_units() -> dict[str, dict[str, str]]:
    """name -> unit of the end-to-end and of the per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def metrics_of(record: dict, units: dict[str, dict[str, str]]) -> dict:
    kind = "per_layer" if record["trace"] else "end_to_end"
    return {k: {"value": record[kind][k], "unit": u} for k, u in units[kind].items()}


def describe(record: dict, units: dict[str, dict[str, str]]) -> None:
    error_rate = record["failed"] / record["attempted"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"samples={record['samples']} tail=p{record['tail_percentile']:.2f} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"error_rate={error_rate:g}")
    for name, m in metrics_of(record, units).items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    # reported, not compared: the median and the tail swing with the host's
    # speed more than any bound allows, and the quality value differs between
    # seeds (it is checked bit for bit instead)
    if not record["trace"]:
        print(f"  {'op_ms_p50':40s} {record['op_ms_p50']:>14.6g} ms")
        print(f"  {'op_ms_tail':40s} {record['op_ms_tail']:>14.6g} ms "
              f"(p{record['tail_percentile']:.2f}, 10 of {record['samples']} samples beyond)")
    quality = "train_loss" if "train_loss" in record else "eval_mse"
    print(f"  {quality:40s} {record[quality]:>14.17g} norm_mse")
    for reason in record["failures"]:
        print(f"  FAILED: {reason}")
    print("  env " + json.dumps(record["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adamoge" / "__init__.py").is_file():
        print(f"error: no adamoge sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    units = metric_units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        describe(record, units)
    if len(records) == 1:
        metrics = metrics_of(records[0], units)
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records
                   for k, m in metrics_of(r, units).items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
