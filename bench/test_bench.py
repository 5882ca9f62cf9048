"""Self-tests of the benchmark: every oracle accepts a correct output and
rejects a deliberately wrong one, a hung or crashed worker counts its
commands as failed, and the tracer counts the calls it should.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hyperwalk.cli import dispatch  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(argv) == 0


def _hypergraph(tmp_path, n, m, sizes, seed=7):
    doc = workloads.edvw_hypergraph(np.random.default_rng(seed), n, m, sizes)
    path = str(tmp_path / "h.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path, oracles.incidence(doc)


def _run(tmp_path, argv: list[str], name: str) -> dict:
    out = str(tmp_path / name)
    _cli(argv + ["--out", out])
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def test_stationary_oracle(tmp_path):
    path, h = _hypergraph(tmp_path, 40, 79, (2, 4))
    auto = _run(tmp_path, ["stationary", "--input", path, "--method", "auto"], "a.json")
    direct = _run(tmp_path, ["stationary", "--input", path, "--method", "direct"], "d.json")
    assert oracles.check_stationary(h, auto) == []
    assert oracles.check_stationary(h, direct) == []
    assert oracles.check_stationary_agree(h, auto, direct) == []

    wrong = copy.deepcopy(direct)
    wrong["pi"][h.names[0]] += 1e-6
    assert oracles.check_stationary(h, wrong)
    assert oracles.check_stationary_agree(h, auto, wrong)
    del wrong["pi"][h.names[0]]
    assert oracles.check_stationary(h, wrong)


def test_spectral_oracle(tmp_path):
    path, h = _hypergraph(tmp_path, 9, 9, (2, 4))
    doc = _run(tmp_path, ["spectral", "--input", path, "--check-cheeger"], "s.json")
    assert oracles.check_spectral(h, doc) == []

    def rejects(edit):
        wrong = copy.deepcopy(doc)
        edit(wrong)
        assert oracles.check_spectral(h, wrong)

    rejects(lambda d: d.update(cheeger=d["cheeger"] * (1 + 1e-6)))
    rejects(lambda d: d["cheeger_inequality"].update(phi=d["cheeger"] + 1e-6))
    rejects(lambda d: d["eigenvalues"].__setitem__(3, d["eigenvalues"][3] + 1e-6))
    rejects(lambda d: d.update(cheeger_argmin=[v for v in h.names
                                               if v not in d["cheeger_argmin"]]))
    rejects(lambda d: d["cheeger_inequality"].update(holds=not d["cheeger_inequality"]["holds"]))
    rejects(lambda d: d.update(mixing_bound=-1))
    rejects(lambda d: d.update(mixing_bound=2.5))


def test_sandwich_oracle(tmp_path):
    path, h = _hypergraph(tmp_path, 12, 20, (2, 5))
    doc = _run(tmp_path, ["reduce", "--input", path, "--mode", "sandwich"], "r.json")
    assert oracles.check_sandwich(h, doc) == []
    for key, value in (("lambda_hypergraph", doc["verdict"]["lambda_hypergraph"] + 1e-6),
                       ("lambda_graph", doc["verdict"]["lambda_graph"] * 1.001),
                       ("c", doc["verdict"]["c"] * 1.001),
                       ("holds", not doc["verdict"]["holds"])):
        wrong = copy.deepcopy(doc)
        wrong["verdict"][key] = value
        assert oracles.check_sandwich(h, wrong), key


def test_rankagg_oracle(tmp_path):
    n, p, trials, seed = 40, 0.1, 16, 3
    out = str(tmp_path / "r.csv")
    _cli(["rankagg", "--n", str(n), "--sigma", "1", "--p", str(p), "--trials", str(trials),
          "--seed", str(seed), "--out", out])
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    assert oracles.check_rankagg(text, n, 1.0, p, trials, seed) == []

    lines = text.splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if line.startswith("hypergraph-rwr,0.1,0,"))
    fields = lines[target].rstrip("\n").split(",")
    # Swapping two neighbouring ranks moves the unweighted tau by 4 / (n (n - 1)).
    fields[4] = repr(float(fields[4]) - 4.0 / (n * (n - 1)))
    swapped = lines[:target] + [",".join(fields) + "\n"] + lines[target + 1:]
    assert oracles.check_rankagg("".join(swapped), n, 1.0, p, trials, seed)
    assert oracles.check_rankagg("".join(lines[:-1]), n, 1.0, p, trials, seed)
    fields[3] = "1.5"
    assert oracles.check_rankagg("".join(lines[:target] + [",".join(fields) + "\n"]
                                         + lines[target + 1:]), n, 1.0, p, trials, seed)


def _spec(tmp_path, commands, jobs=1) -> str:
    path = str(tmp_path / "spec.json")
    warm = ["rankagg", "--n", "6", "--p", "0.5", "--trials", "1", "--seed", "1",
            "--out", str(tmp_path / "warm" / "w.csv")]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"warmup": warm, "commands": commands, "jobs": jobs, "trace": False,
                   "budget_s": 60, "min_jobs": 1, "spans_path": str(tmp_path / "spans.jsonl")}, fh)
    return path


def test_hung_worker_fails_its_commands(tmp_path):
    # rankagg with a tiny p never finishes drawing matches; whether it hangs
    # or is rejected, the command must fail without stalling the run.
    hang = ["rankagg", "--n", "5", "--p", "0.0001", "--trials", "1", "--seed", "1",
            "--out", str(tmp_path / "j{job}" / "c0.csv")]
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    events, finished = run.run_worker(
        [sys.executable, worker, _spec(tmp_path, [hang], jobs=2)], run._env(),
        str(tmp_path / "stderr"), cmd_cap=5.0)
    cmds = [e for e in events if e["ev"] == "cmd"]
    attempted, failed, _ = run.tally(cmds, {}, finished, planned=3)
    assert failed == attempted - 1 >= 2  # only the warm-up passed


def test_crashed_worker_fails_its_commands(tmp_path):
    crash = ("import os, sys; "
             "print('{\"ev\": \"cmd\", \"job\": -1, \"k\": 0, \"rc\": 0, \"s\": 0.1}'); "
             "sys.stdout.flush(); os._exit(3)")
    events, finished = run.run_worker([sys.executable, "-c", crash], run._env(),
                                      str(tmp_path / "stderr"), cmd_cap=5.0)
    assert not finished and len(events) == 1
    assert run.tally(events, {}, finished, planned=7)[:2] == (7, 6)


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(1, 31)]
    assert run.tail(samples) == (20.0, 100.0 * 20 / 30, 10)
    assert run.tail(samples[:8]) == (8.0, 100.0, 0)


@pytest.fixture
def tracer():
    t = Tracer()
    yield t
    t.uninstall()


def test_tracer_counts_and_restores(tmp_path, tracer):
    import hyperwalk.cli
    import hyperwalk.spectral

    original = hyperwalk.spectral.cheeger_constant
    path, _ = _hypergraph(tmp_path, 8, 8, (2, 4))
    tracer.install()
    assert hyperwalk.spectral.cheeger_constant is not original
    with contextlib.redirect_stdout(io.StringIO()):
        assert tracer.span("cli.dispatch", hyperwalk.cli.dispatch)(
            ["spectral", "--input", path, "--check-cheeger",
             "--out", str(tmp_path / "s.json")]) == 0
    tracer.uninstall()
    assert hyperwalk.spectral.cheeger_constant is original

    metrics = layer_metrics(tracer.spans, 0)
    assert metrics["spectral.cheeger_calls"] == 3
    assert metrics["stationary.rho_calls"] == 6
    assert metrics["spectral.cheeger_subsets"] == 3 * (2 ** 8 - 2)
    assert all(span[3] < i for i, span in enumerate(tracer.spans))
    name, start, end, parent, _, _ = tracer.spans[0]
    assert (name, parent) == ("cli.dispatch", -1)
    total = end - start
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) == pytest.approx(total)
