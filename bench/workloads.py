"""The four benchmark workloads: seeded inputs and the command list of one job.

A workload is a fixed list of ``hyperwalk`` command lines (one *job*). The
inputs are generated here from the workload seed with numpy only, so the
program under test never sees the seed, only the files it produces.
Every command writes its result with ``--out``; ``{job}`` in an argument is
replaced by the job number so each job keeps its own output files.

Why each workload exists, and which layers it stresses, is recorded in
``WHY`` below and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

WHY = {
    "rankagg-default": "builds many small hypergraphs in memory and runs 270 n=100 "
                       "direct solves; rankagg, core construction and reduction, no "
                       "Cheeger or eigensolve",
    "spectral-n16": "Cheeger enumeration and repeated tiny rho solves dominate; "
                    "a Cheeger or compute-once change shows here, an eigensolver "
                    "change should not",
    "reduce-sandwich-n64": "the only workload dominated by the symmetric eigensolve, "
                           "with no Cheeger enumeration: the mirror image of "
                           "spectral-n16",
    "stationary-n2048": "the dense-at-scale path: parse, incidence, dense P, power "
                        "iteration on the |E|x|E| coupling matrix; the only "
                        "workload where memory matters",
}

# Seconds one job took when the benchmark was added (1 BLAS thread,
# shared 2-core x86-64 VM).
# A run does round(seconds / NOMINAL_JOB_S) jobs (at least MIN_JOBS), so both
# commits of a comparison run the same work and pool the same number of
# command latencies; see run.py.
NOMINAL_JOB_S = {
    "rankagg-default": 1.8,
    "spectral-n16": 7.0,
    "reduce-sandwich-n64": 6.5,
    "stationary-n2048": 2.5,
}


@dataclass
class Workload:
    name: str
    inputs: dict[str, str]          # input file name -> sha256 of its bytes
    warmup: list[str]               # one untimed command before the jobs
    commands: list[list[str]]       # one job


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def edvw_hypergraph(rng: np.random.Generator, n: int, m: int,
                    sizes: tuple[int, int]) -> dict:
    """Connected hypergraph JSON dict with edge-dependent vertex weights.

    The first edges chain a random vertex order together (each holds one
    vertex already covered plus new ones), which makes the clique graph
    connected; the remaining edges cover the vertices evenly. Edge weights
    lie in [0.5, 2], vertex weights in [0.25, 4] independently per (edge,
    member) pair, so the weights depend on the edge.
    """
    width = len(str(n - 1))
    names = [f"v{i:0{width}d}" for i in range(n)]
    order = [int(v) for v in rng.permutation(n)]
    covered, rest = order[:1], order[1:]
    member_lists: list[list[int]] = []
    while rest:
        size = int(rng.integers(sizes[0], sizes[1] + 1))
        take, rest = rest[:size - 1], rest[size - 1:]
        member_lists.append([covered[int(rng.integers(len(covered)))]] + take)
        covered += take
    # The other edges take their members from a stream of random
    # permutations, so every vertex joins about as many edges as any other:
    # degree outliers would make the walk's mixing, and with it the cost of
    # the rho solve, vary from seed to seed.
    stream: list[int] = []
    while len(member_lists) < m:
        members: list[int] = []
        for _ in range(int(rng.integers(sizes[0], sizes[1] + 1))):
            if not stream:
                stream = [int(v) for v in rng.permutation(n)]
            v = stream.pop()
            if v in members:
                v = stream.pop() if stream else int(rng.integers(n))
            if v not in members:
                members.append(v)
        member_lists.append(members)
    edges = []
    for members in member_lists:
        gamma = rng.uniform(0.25, 4.0, size=len(members))
        edges.append({
            "weight": float(rng.uniform(0.5, 2.0)),
            "members": {names[v]: float(g) for v, g in zip(members, gamma)},
        })
    return {"vertices": names, "edges": edges}


def _write(path: str, data: dict) -> str:
    text = json.dumps(data)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


def build(name: str, seed: int, in_dir: str, out_dir: str) -> Workload:
    """Generate the inputs of workload `name` into `in_dir` and return its
    command list, writing outputs under `out_dir`."""
    rng = _rng(name, seed)
    out = os.path.join(out_dir, "j{job}")
    inputs: dict[str, str] = {}
    commands: list[list[str]] = []

    def hypergraphs(count, n, m, sizes):
        paths = []
        for i in range(count):
            path = os.path.join(in_dir, f"h{i}.json")
            inputs[os.path.basename(path)] = _write(path, edvw_hypergraph(rng, n, m, sizes))
            paths.append(path)
        return paths

    if name == "rankagg-default":
        # The ROADMAP default experiment, one command per p (same trials as
        # the combined command, three latency samples per job).
        for i, p in enumerate(("0.03", "0.05", "0.07")):
            commands.append(["rankagg", "--n", "100", "--sigma", "1", "--p", p,
                             "--trials", "30", "--seed", str(seed),
                             "--out", os.path.join(out, f"c{i}.csv")])
    elif name == "spectral-n16":
        for i, path in enumerate(hypergraphs(6, 16, 16, (2, 4))):
            commands.append(["spectral", "--input", path, "--check-cheeger",
                             "--out", os.path.join(out, f"c{i}.json")])
    elif name == "reduce-sandwich-n64":
        for i, path in enumerate(hypergraphs(8, 64, 128, (2, 5))):
            commands.append(["reduce", "--input", path, "--mode", "sandwich",
                             "--out", os.path.join(out, f"c{i}.json")])
    elif name == "stationary-n2048":
        (path,) = hypergraphs(1, 2048, 4095, (2, 4))
        for i, method in enumerate(("auto", "direct")):
            commands.append(["stationary", "--input", path, "--method", method,
                             "--out", os.path.join(out, f"c{i}.json")])
    else:
        raise KeyError(name)
    # The cheapest command of the job (the last) warms up imports, BLAS and
    # the page cache.
    warmup = [a.replace("{job}", "warm") for a in commands[-1]]
    return Workload(name=name, inputs=inputs, warmup=warmup, commands=commands)
