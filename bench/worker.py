"""Benchmark worker: runs one workload's jobs in a fresh interpreter.

Usage: ``python3 bench/worker.py SPEC.json`` with ``hyperwalk`` importable
(run.py sets ``PYTHONPATH`` and pins BLAS to one thread). The spec holds the
warm-up command, the command list of one job, the number of jobs, whether to
trace, a time budget after which no job beyond the first ``min_jobs``
starts, and where to write spans.

The worker imports ``hyperwalk.cli``, runs the warm-up command untimed, then
runs the jobs closed-loop, one command at a time, through
``hyperwalk.cli.dispatch``. It reports on its original stdout, one JSON line
per event, flushed at once so the parent can tell a hung command from a slow
one; the program's own stdout goes to /dev/null. Events:

* ``{"ev": "cmd", "job": j, "k": k, "rc": rc, "s": seconds, "ref": [r0, r1]}``
  per command, with the speed reference (speed.py) timed just before and
  just after it; the untimed warm-up is job -1 and carries only ``rc``;
* ``{"ev": "job", "job": j, "traced": bool, "s": seconds, "out_bytes": n,
  "layers": {...} or null}`` per job, where ``s`` is the sum of its
  command latencies (the reference loops between commands are excluded);
* ``{"ev": "end", "maxrss_kb": n}`` once, after the last job.

With tracing on, even jobs run untraced and odd jobs traced, so the tracing
overhead compares neighbouring jobs.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

from speed import reference
from tracer import Tracer, layer_metrics


def _out_dir(argv: list[str]) -> str:
    return os.path.dirname(argv[argv.index("--out") + 1])


def _fallback_ratio(commands: list[list[str]]) -> float:
    """Share of `--method auto` outputs that came from the direct solve."""
    autos = [c for c in commands if "--method" in c and c[c.index("--method") + 1] == "auto"]
    if not autos:
        return 0.0
    fallbacks = 0
    for argv in autos:
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            fallbacks += json.load(fh)["method"] == "direct-solve"
    return fallbacks / len(autos)


def main(spec_path: str) -> None:
    t_start = time.perf_counter()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)

    def emit(**event) -> None:
        proto.write(json.dumps(event) + "\n")

    from hyperwalk.cli import dispatch

    tracer = Tracer()
    traced_dispatch = tracer.span("cli.dispatch", dispatch)

    def run(call, argv) -> int:
        try:
            return call(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command, not a dead run
            traceback.print_exc()
            return -1

    commands = spec["commands"]
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        os.makedirs(_out_dir(spec["warmup"]), exist_ok=True)
        rc = run(dispatch, spec["warmup"])
        emit(ev="cmd", job=-1, k=0, rc=rc)

        for j in range(spec["jobs"]):
            if j >= spec["min_jobs"] and time.perf_counter() - t_start > spec["budget_s"]:
                break
            argvs = [[a.replace("{job}", str(j)) for a in argv] for argv in commands]
            os.makedirs(_out_dir(argvs[0]), exist_ok=True)
            traced = spec["trace"] and j % 2 == 1
            call = dispatch
            first_span = len(tracer.spans)
            if traced:
                tracer.install()
                call = traced_dispatch
            job_s = 0.0
            before = reference()
            for k, argv in enumerate(argvs):
                tracer.cmd = j * len(argvs) + k
                c0 = time.perf_counter()
                rc = run(call, argv)
                took = time.perf_counter() - c0
                job_s += took
                after = reference()
                emit(ev="cmd", job=j, k=k, rc=rc, s=took, ref=[before, after])
                before = after
            tracer.uninstall()
            out_dir = _out_dir(argvs[0])
            out_bytes = sum(e.stat().st_size for e in os.scandir(out_dir))
            layers = None
            if traced:
                layers = layer_metrics(tracer.spans, first_span)
                covered = sum(v for key, v in layers.items()
                              if key.endswith(".self_s") and key != "cli.self_s")
                layers["trace.coverage"] = covered / job_s
                layers["stationary.auto_fallbacks"] = _fallback_ratio(argvs)
            emit(ev="job", job=j, traced=traced, s=job_s, out_bytes=out_bytes,
                 layers=layers)

    if spec["trace"]:
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            for name, start, end, parent, cmd, size in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "cmd": cmd, "size": size}) + "\n")
    emit(ev="end", maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


if __name__ == "__main__":
    main(sys.argv[1])
