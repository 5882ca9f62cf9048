"""hyperwalk benchmark: run one workload and print its metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is one of ``rankagg-default``, ``spectral-n16``, ``reduce-sandwich-n64``
and ``stationary-n2048`` (see workloads.py and README.md). The inputs are
generated from the seed. The jobs run in a fresh worker process (worker.py)
with BLAS pinned to one thread, every output file is checked by its oracle
(oracles.py) outside the timed region, and the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it are a readable report and the
environment block. Run files go to ``.bench_work/``.

Exit status is 0 when a result was printed (even an incorrect one) and 2
when the program under test is not there to run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".bench_work"
SRC = os.path.join("src", "hyperwalk")
BLAS_THREADS = "1"
SETUP_REPEATS = 7
MIN_JOBS = 2
CMD_CAP_S = 60.0        # a command running longer than this has hung
BUDGET_FACTOR = 1.5     # past MIN_JOBS, no job starts after this many times --seconds
WORKER_CAP_S = 150.0    # the worker is killed after this
TAIL_BEYOND = 10
LAYER_UNITS = {"walk.dense_mb": "MB", "stationary.auto_fallbacks": "ratio",
               "trace.coverage": "ratio"}  # other non-time layer metrics are counts


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """(seconds, reference-scaled seconds) a fresh interpreter takes to
    import hyperwalk.cli, SETUP_REPEATS times."""
    script = os.path.join(BENCH_DIR, "speed.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        before, took, after = map(float, subprocess.run(
            [sys.executable, script], env=env, check=True, capture_output=True,
            text=True).stdout.split())
        samples.append((took, took * speed.REF_S / ((before + after) / 2)))
    return samples


def run_worker(argv: list[str], env: dict, stderr_path: str,
               cmd_cap: float = CMD_CAP_S, cap: float = WORKER_CAP_S):
    """Run a worker and collect its events.

    Returns (events, finished): `finished` is False when the worker went
    silent for `cmd_cap` seconds, ran past `cap`, or died before its "end"
    event; it has then been killed and reaped.
    """
    lines: queue.Queue = queue.Queue()
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, text=True)

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    deadline = time.monotonic() + cap
    events, finished = [], False
    try:
        while True:
            wait = min(cmd_cap, deadline - time.monotonic())
            line = lines.get(timeout=max(wait, 0.0))
            if line is None:
                break
            event = json.loads(line)
            events.append(event)
            finished = event["ev"] == "end"
    except queue.Empty:
        finished = False
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
    return events, finished and proc.returncode == 0


def _pick(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_output(argv: list[str], cache: dict) -> list[str]:
    """Problems with the output file the command wrote (empty: correct)."""
    out = _pick(argv, "--out")
    try:
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        if argv[0] == "rankagg":
            return oracles.check_rankagg(
                text, int(_pick(argv, "--n")), float(_pick(argv, "--sigma")),
                float(_pick(argv, "--p")), int(_pick(argv, "--trials")),
                int(_pick(argv, "--seed")))
        path = _pick(argv, "--input")
        if path not in cache:
            with open(path, encoding="utf-8") as fh:
                cache[path] = oracles.incidence(json.load(fh))
        check = {"stationary": oracles.check_stationary, "spectral": oracles.check_spectral,
                 "reduce": oracles.check_sandwich}[argv[0]]
        return check(cache[path], json.loads(text))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output {out}: {type(exc).__name__}: {exc}"]


def check_job(argvs: list[list[str]], ok: list[bool], cache: dict) -> list[list[str]]:
    """Oracle problems per command of one job; commands already failed are
    skipped. The two stationary outputs must also agree with each other."""
    problems = [check_output(a, cache) if good else [] for a, good in zip(argvs, ok)]
    if argvs[0][0] == "stationary" and all(ok) and not any(problems):
        docs = []
        for argv in argvs:
            with open(_pick(argv, "--out"), encoding="utf-8") as fh:
                docs.append(json.load(fh))
        problems[-1] += oracles.check_stationary_agree(
            cache[_pick(argvs[0], "--input")], docs[0], docs[1])
    return problems


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with TAIL_BEYOND samples above it, as
    (value, percentile, samples beyond); the maximum when there are fewer."""
    ordered = sorted(samples)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    return ordered[-1 - beyond], 100.0 * (len(ordered) - beyond) / len(ordered), beyond


def tally(cmds: list[dict], problems: dict, finished: bool, planned: int):
    """(attempted, failed, failure messages) of a run.

    A command passes when it exited 0 and its oracle found no problem. When
    the worker hung or crashed, every planned command it did not pass counts
    as attempted and failed.
    """
    passed = sum(1 for e in cmds if e["rc"] == 0 and not problems.get((e["job"], e["k"])))
    attempted = len(cmds) if finished else planned
    failures = [f"job {j} command {k}: {msg}" for (j, k), found in sorted(problems.items())
                for msg in found]
    failures += [f"job {e['job']} command {e['k']}: exit {e['rc']}" for e in cmds if e["rc"] != 0]
    if not finished:
        failures.append("worker hung, crashed or ran past its cap; see worker.stderr")
    return attempted, attempted - passed, failures


def environment(seed: int, inputs: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None  # the benchmark checkout need not be a git repository
    if os.path.isdir(".git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or None
    sources = sorted(glob.glob(os.path.join(SRC, "*.py")))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(path.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "inputs_sha256": inputs,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    run_dir = os.path.join(WORK_DIR, f"{name}-s{seed}-t{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir, out_dir = os.path.join(run_dir, "in"), os.path.join(run_dir, "out")
    os.makedirs(in_dir)
    wl = workloads.build(name, seed, in_dir, out_dir)
    env = _env()
    setup = measure_setup(env)

    jobs = max(MIN_JOBS, round(seconds / workloads.NOMINAL_JOB_S[name]))
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"warmup": wl.warmup, "commands": wl.commands, "jobs": jobs,
                   "trace": trace, "budget_s": BUDGET_FACTOR * seconds, "min_jobs": MIN_JOBS,
                   "spans_path": os.path.join(run_dir, "spans.jsonl")}, fh)
    worker = os.path.join(BENCH_DIR, "worker.py")
    events, finished = run_worker([sys.executable, worker, spec_path], env,
                                  os.path.join(run_dir, "worker.stderr"))

    # Every command the worker reported: its latency and whether it passed.
    cmds = [e for e in events if e["ev"] == "cmd"]
    job_events = [e for e in events if e["ev"] == "job"]
    cache: dict = {}
    ok = {(e["job"], e["k"]): e["rc"] == 0 for e in cmds}
    problems = {}
    if ok.get((-1, 0)):
        problems[(-1, 0)] = check_output(wl.warmup, cache)
    for j in sorted({e["job"] for e in cmds if e["job"] >= 0}):
        argvs = [[a.replace("{job}", str(j)) for a in argv] for argv in wl.commands]
        flags = [ok.get((j, k), False) for k in range(len(argvs))]
        for k, found in enumerate(check_job(argvs, flags, cache)):
            problems[(j, k)] = found
    attempted, failed, failures = tally(cmds, problems, finished,
                                        1 + jobs * len(wl.commands))

    if finished:
        peak_kb = events[-1]["maxrss_kb"]
    else:  # the largest child reaped so far: the worker
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Timed commands, raw and scaled by the speed reference around each.
    timed = [e for e in cmds if e["job"] >= 0]
    wall = [e["s"] for e in timed]
    scaled = [e["s"] * speed.REF_S / statistics.fmean(e["ref"]) for e in timed]
    job_scaled: dict[int, float] = {}
    for e, value in zip(timed, scaled):
        job_scaled[e["job"]] = job_scaled.get(e["job"], 0.0) + value
    plain = [e for e in job_events if not e["traced"]]
    report = {
        "workload": name, "seed": seed, "trace": trace, "jobs": len(job_events),
        "commands_per_job": len(wl.commands), "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "failures": failures,
        "environment": environment(seed, wl.inputs),
        "speed": statistics.median(speed.REF_S / statistics.fmean(e["ref"]) for e in timed)
        if timed else None,
        "samples": {"setup_s": setup, "job_s": [(e["s"], job_scaled[e["job"]]) for e in job_events],
                    "cmd_s": list(zip(wall, scaled))},
    }
    metrics = {}
    if not timed or not plain:
        pass  # nothing was timed; the result carries only the failure counts
    elif not trace:
        value, pct, beyond = tail(scaled)
        metrics = {
            "setup_s": (statistics.median(v for _, v in setup), "s"),
            "job_s": (statistics.median(job_scaled[e["job"]] for e in plain), "s"),
            "cmd_p50_ms": (1000 * statistics.median(scaled), "ms"),
            "cmd_tail_ms": (1000 * value, "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        report["cmd_tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": len(scaled)}
        report["wall"] = {
            "setup_s": statistics.median(v for v, _ in setup),
            "job_s": statistics.median(e["s"] for e in plain),
            "cmd_p50_ms": 1000 * statistics.median(wall),
            "cmd_tail_ms": 1000 * tail(wall)[0],
        }
    else:
        traced = [e for e in job_events if e["traced"]]
        if traced:
            for key in traced[0]["layers"]:
                if key.endswith("_s"):  # scaled like the job it belongs to
                    values = (e["layers"][key] * job_scaled[e["job"]] / e["s"] for e in traced)
                    metrics[key] = (statistics.median(values), "s")
                else:
                    metrics[key] = (statistics.median(e["layers"][key] for e in traced),
                                    LAYER_UNITS.get(key, "count"))
            metrics["cli.output_bytes"] = (statistics.median(e["out_bytes"] for e in traced), "bytes")
            metrics["trace.overhead"] = (
                statistics.median(job_scaled[e["job"]] for e in traced)
                / statistics.median(job_scaled[e["job"]] for e in plain) - 1.0, "ratio")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(run_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']} trace {int(report['trace'])}: "
          f"{report['jobs']} jobs of {report['commands_per_job']} commands")
    for key, m in report["metrics"].items():
        extra = ""
        if key == "cmd_tail_ms":
            t = report["cmd_tail"]
            extra = (f"  (p{t['percentile']:.0f}: {t['samples_beyond']} of "
                     f"{t['samples']} samples beyond)")
        print(f"  {key:32s} {m['value']:14.6f} {m['unit']}{extra}")
    for key, value in report.get("wall", {}).items():
        print(f"  {key + ' (wall, unscaled)':32s} {value:14.6f}")
    if report["speed"]:
        print(f"  {'machine speed vs reference':32s} {report['speed']:14.6f}")
    print(f"  {'fail_frac':32s} {report['fail_frac']:14.6f} "
          f"({report['failed']} of {report['attempted']} commands)")
    for line in report["failures"][:20]:
        print(f"  FAIL {line}")
    print(json.dumps({"environment": report["environment"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print(f"error: {SRC} not found; run from the root of a hyperwalk checkout",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WHY) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(report)
        results[name] = {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["metrics"],
        }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
