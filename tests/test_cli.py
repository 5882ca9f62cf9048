"""CLI dispatch, exit codes, output formats, and run manifests."""

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperwalk
from hyperwalk import ConvergenceFailure, demo_hypergraph, dumps_json
from hyperwalk.cli import dispatch
from hyperwalk.core import _json_text
from hyperwalk.stationary import WALK_MAX_ITER
from hyperwalk.walk import DENSE_SIZE_LIMIT
from conftest import gc_off


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(dumps_json(demo_hypergraph()))
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"weight": -1.0, "members": {"a": 1.0, "b": 1.0}}],
    }))
    return str(path)


MATCHES = {
    "n": 3,
    "matches": [
        {"participants": [1, 2], "scores": [0.0, 1.0]},
        {"participants": [2, 3], "scores": [0.5, 2.0]},
    ],
}


def test_demo_prints_stationary(capsys):
    assert dispatch(["demo"]) == 0
    out = capsys.readouterr().out
    assert "0.411764705882" in out   # 7/17
    assert "reversible: False" in out
    assert "Cheeger" in out


def test_demo_json(capsys):
    assert dispatch(["demo", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reversible"] is False
    assert payload["pi"]["v1"] == pytest.approx(7 / 17)


def test_validate_ok(demo_file, capsys):
    assert dispatch(["validate", "--input", demo_file]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_names_error(bad_file, capsys):
    assert dispatch(["validate", "--input", bad_file]) == 1
    assert "NonPositiveWeight" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        dispatch(["transition"])  # missing --input
    assert exc.value.code == 2


def test_transition_csv(demo_file, capsys):
    assert dispatch(["transition", "--input", demo_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "vertex,v1,v2,v3,v4"
    row_v2 = lines[2].split(",")
    assert row_v2[0] == "v2"
    assert float(row_v2[1]) == 0.5


def test_transition_kinds(demo_file, capsys):
    assert dispatch(["transition", "--input", demo_file, "--kind", "nonlazy"]) == 0
    capsys.readouterr()
    assert dispatch(["transition", "--input", demo_file, "--kind", "restart",
                     "--beta", "0.4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"][1][0] == pytest.approx(0.4)


def test_stationary_json(demo_file, capsys):
    assert dispatch(["stationary", "--input", demo_file, "--method", "rho"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] <= 1e-9
    assert payload["pi"]["v1"] == pytest.approx(7 / 17, abs=1e-10)
    assert payload["method"] == "rho-eigenvector"
    assert payload["rho"]["0"] == pytest.approx(8 / 17, abs=1e-10)


def test_stationary_direct_has_no_rho(demo_file, capsys):
    assert dispatch(["stationary", "--input", demo_file, "--method", "direct"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho"] == {}


def test_spectral_with_cheeger(demo_file, capsys):
    assert dispatch(["spectral", "--input", demo_file, "--eps", "0.25",
                     "--check-cheeger"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mixing_bound"] == 263
    assert payload["cheeger_inequality"]["holds"] is True


def _n16_file(tmp_path) -> str:
    """A seeded 16-vertex, 16-edge input shaped as the benchmark's: a chain of
    edges joins a random vertex order, the other edges are random, edges have
    2 to 4 members."""
    rng = np.random.default_rng(16)
    order = rng.permutation(16).tolist()
    member_lists = [order[i:i + 3] for i in range(0, 15, 2)]
    while len(member_lists) < 16:
        member_lists.append(rng.choice(16, size=int(rng.integers(2, 5)), replace=False).tolist())
    return _write_edges(tmp_path, 16, member_lists, seed=16)


@pytest.mark.parametrize("which", ["demo", "n16"])
def test_spectral_check_cheeger_repeats_its_values_bit_for_bit(demo_file, tmp_path, capsys,
                                                               which):
    path = demo_file if which == "demo" else _n16_file(tmp_path)
    assert dispatch(["spectral", "--input", path, "--check-cheeger"]) == 0
    payload = json.loads(capsys.readouterr().out)
    repeated = payload["cheeger_inequality"]
    for key, same in (("lambda", "lambda"), ("lambda_unnormalized", "lambda_unnormalized"),
                      ("phi", "cheeger")):
        assert repr(repeated[key]) == repr(payload[same]), key


def test_reduce_modes(demo_file, tmp_path, capsys):
    assert dispatch(["reduce", "--input", demo_file, "--mode", "sandwich"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"]["holds"] is True
    assert payload["graph"]["vertices"] == ["v1", "v2", "v3", "v4"]

    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "edges": [{"weight": 1.0, "members": {"a": 1.0, "b": 1.0, "c": 1.0}}],
    }))
    assert dispatch(["reduce", "--input", str(tri), "--mode", "eqind"]) == 0
    capsys.readouterr()
    assert dispatch(["reduce", "--input", str(tri), "--mode", "nonlazy"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"]["max_dev"] <= 1e-12


# all-ones weights, so every mode applies: its clique expansion has loops
# (eqind) and each edge has two or more members (nonlazy)
ALL_ONES = {"vertices": ["a", "b", "c", "d"], "edges": [
    {"weight": 1.0, "members": {"a": 1.0, "b": 1.0, "c": 1.0}},
    {"weight": 2.0, "members": {"c": 1.0, "d": 1.0}},
]}


def _reduce_input(mode, demo_file, tmp_path) -> str:
    return demo_file if mode == "sandwich" else _write_json(tmp_path, "ones.json", ALL_ONES)


def _reduced_graph(H, mode):
    if mode == "eqind":
        return hyperwalk.edge_independent_to_graph(H)
    if mode == "nonlazy":
        return hyperwalk.nonlazy_trivial_equivalence(H).graph
    return hyperwalk.sandwich_check(H).graph


@pytest.mark.parametrize("mode", ["sandwich", "eqind", "nonlazy"])
def test_reduce_writes_its_graph_in_the_hypergraph_format(demo_file, tmp_path, capsys, mode):
    path = _reduce_input(mode, demo_file, tmp_path)
    assert dispatch(["reduce", "--input", path, "--mode", mode]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    H = hyperwalk.read_hypergraph(path)
    G = _reduced_graph(H, mode)
    assert text == _json_text({"graph": hyperwalk.graph_to_json_dict(G),
                               "verdict": doc["verdict"]})
    written = hyperwalk.build_hypergraph(doc["graph"])
    u, v = (a.tolist() for a in np.nonzero(np.triu(G.weights) > 0.0))
    ptr = written.indptr.tolist()
    # each pair u < v is an edge, row-major, and a loop a one-member edge
    assert [written.indices[a:b].tolist() for a, b in zip(ptr, ptr[1:])] == \
        [[a] if a == b else [a, b] for a, b in zip(u, v)]
    # loops are covered; the non-lazy graph has none
    assert any(a == b for a, b in zip(u, v)) == (mode != "nonlazy")
    assert written.vertices == G.vertices
    assert np.all(written.gamma == 1.0)
    assert written.omega.tobytes() == G.weights[u, v].tobytes()


@pytest.mark.parametrize("mode", ["sandwich", "eqind", "nonlazy"])
def test_reduce_builds_no_per_edge_dict(demo_file, tmp_path, capsys, monkeypatch, mode):
    counts = _count_calls(monkeypatch, "graph_to_json_dict", "to_json_dict", "_json_dict")
    assert dispatch(["reduce", "--input", _reduce_input(mode, demo_file, tmp_path),
                     "--mode", mode]) == 0
    assert counts == {"graph_to_json_dict": 0, "to_json_dict": 0, "_json_dict": 0}


def test_nonlazy_transition_of_a_dominated_member(tmp_path, capsys):
    # delta - gamma(a) cancels to 0 in the first edge; the walk from a moves to b
    path = _write_json(tmp_path, "h.json", {"vertices": ["a", "b", "c"], "edges": [
        {"weight": 1.0, "members": {"a": 1.0, "b": 1e-20}},
        {"weight": 1.0, "members": {"b": 1.0, "c": 1.0}},
    ]})
    assert dispatch(["transition", "--input", path, "--kind", "nonlazy"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1] == "a,0.0,1.0,0.0"


def test_reduce_eqind_rejects_edge_dependent(demo_file, capsys):
    assert dispatch(["reduce", "--input", demo_file, "--mode", "eqind"]) == 1
    assert "NotEdgeIndependent" in capsys.readouterr().err


def test_rankagg_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "results.csv"
    argv = ["rankagg", "--n", "8", "--sigma", "1", "--p", "0.3", "--trials", "2",
            "--seed", "3", "--out", str(out)]
    assert dispatch(argv) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "method,p,trial,tau_weighted,tau_unweighted"
    manifest = json.loads((tmp_path / "results.csv.manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["prng"] == "numpy:pcg64"
    assert manifest["command"][0] == "hyperwalk"


def test_rankagg_matches_file(tmp_path, capsys):
    matches = _write_json(tmp_path, "matches.json", MATCHES)
    assert dispatch(["rankagg", "--matches", matches]) == 0
    payload = json.loads(capsys.readouterr().out)
    methods = {r["method"] for r in payload["rankings"]}
    assert methods == {"hypergraph-rwr", "clique-rwr", "mc3"}


@pytest.mark.parametrize("command, source", [
    ("transition", "--input"),
    ("transition --json", "--input"),
    ("stationary", "--input"),
    ("spectral", "--input"),
    ("reduce --mode sandwich", "--input"),
    ("rankagg --n 8 --p 0.3 --trials 2", None),
    ("rankagg --n 8 --p 0.3 --trials 2 --json", None),
    ("rankagg", "--matches"),
])
def test_out_file_is_the_stdout_plus_a_manifest(demo_file, tmp_path, capsys, command, source):
    path = {"--input": demo_file, None: None,
            "--matches": _write_json(tmp_path, "matches.json", MATCHES)}[source]
    argv = command.split() + ([source, path] if source else [])
    assert dispatch(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out"
    assert dispatch(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == stdout.encode()
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    digests = {}
    if path:
        with open(path, "rb") as fh:
            digests[path] = hashlib.sha256(fh.read()).hexdigest()
    assert manifest["inputs"] == digests
    assert manifest["seed"] == (42 if argv[0] == "rankagg" else None)


@pytest.mark.parametrize("command, source", [
    ("transition --json", "--input"),
    ("stationary", "--input"),
    ("stationary --method rho", "--input"),
    ("spectral --check-cheeger", "--input"),
    ("reduce --mode sandwich", "--input"),
    ("rankagg --n 8 --p 0.3 --trials 2 --json", None),
    ("rankagg", "--matches"),
])
def test_json_output_leaves_no_reference_cycle(demo_file, tmp_path, capsys, command, source):
    # With the cyclic collector off, everything a JSON-writing command and
    # the JSON writer make must be freed by reference counting alone, so the
    # collector finds nothing: no output text waits for it.
    path = {"--input": demo_file, None: None,
            "--matches": _write_json(tmp_path, "matches.json", MATCHES)}[source]
    argv = command.split() + ([source, path] if source else [])
    assert dispatch(argv) == 0  # builds the parser, which lives as long as the program
    with gc_off():
        assert _json_text({"a": [1, {"b": [2.0, None, []]}], "c": ("d",)})
        assert gc.collect() == 0
        assert dispatch(argv) == 0
        assert dispatch(argv + ["--out", str(tmp_path / "out")]) == 0
        assert dispatch(["demo", "--json"]) == 0
        assert gc.collect() == 0


def test_manifest_digest_is_of_the_input_as_read(demo_file, capsys):
    # the output overwrites its own input: the manifest names the bytes read
    with open(demo_file, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert dispatch(["stationary", "--input", demo_file, "--out", demo_file]) == 0
    manifest = json.loads(Path(demo_file + ".manifest.json").read_text())
    assert "pi" in json.loads(Path(demo_file).read_text())
    assert manifest["inputs"] == {demo_file: digest}


def test_out_into_a_missing_directory_is_named(demo_file, tmp_path, capsys):
    out = tmp_path / "missing" / "pi.json"
    assert dispatch(["stationary", "--input", demo_file, "--out", str(out)]) == 1
    assert f"error: FileNotFoundError: [Errno 2] No such file or directory: '{out}'" in \
        capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["demo.json"]  # and no manifest


def test_manifest_records_numpy_and_blas_threads(demo_file, tmp_path):
    # BLAS fixes its thread count when numpy is imported, so the manifest names
    # the variables as they were then, not as a caller changed them later.
    script = ("import os, sys\n"
              "from hyperwalk.cli import dispatch\n"
              "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
              "os.environ['OMP_NUM_THREADS'] = '2'\n"
              "sys.exit(dispatch(sys.argv[1:]))\n")
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(hyperwalk.__file__).parents[1]))
    out = tmp_path / "pi.json"
    subprocess.run([sys.executable, "-c", script, "stationary", "--input", demo_file,
                    "--out", str(out)], env=env, check=True)
    manifest = json.loads((tmp_path / "pi.json.manifest.json").read_text())
    assert manifest["numpy"] == np.__version__
    assert manifest["OPENBLAS_NUM_THREADS"] == "1"
    assert manifest["OMP_NUM_THREADS"] is None
    assert manifest["MKL_NUM_THREADS"] is None


def test_config_defaults_merged(demo_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "rho"}))
    assert dispatch(["--config", str(config), "stationary", "--input", demo_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "rho-eigenvector"
    # explicit flag wins over the config value
    assert dispatch(["--config", str(config), "stationary", "--input", demo_file,
                     "--method", "direct"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "direct-solve"


def test_config_defaults_reach_every_subcommand(demo_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "nonlazy", "json": True}))
    assert dispatch(["--config", str(config), "transition", "--input", demo_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "nonlazy"
    assert payload["matrix"][0][0] == 0.0


@pytest.mark.parametrize("values", [[1], {"handler": 1}])
def test_config_must_be_an_object_of_flag_values(demo_file, tmp_path, values):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    with pytest.raises(SystemExit) as exc:
        dispatch(["--config", str(config), "stationary", "--input", demo_file])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, values, message", [
    ("spectral", {"eps": [1]}, "argument --eps: invalid float value: '[1]'"),
    ("rankagg", {"seed": 1.5}, "argument --seed: invalid int value: '1.5'"),
    ("rankagg", {"n": 7.5}, "argument --n: invalid int value: '7.5'"),
    ("transition", {"kind": "nope"}, "argument --kind: invalid choice: 'nope'"),
    ("stationary", {"method": "bogus"}, "argument --method: invalid choice: 'bogus'"),
    ("transition", {"json": "no"}, "argument --json: ignored explicit argument 'no'"),
    ("spectral", {"check_cheegr": True}, "'check_cheegr' is not a flag of spectral"),
    ("stationary", {"eps": 0.5}, "'eps' is not a flag of stationary"),
    ("stationary", {"help": True}, "'help' is not a flag of stationary"),
])
def test_config_values_are_parsed_as_flags(demo_file, tmp_path, capsys, command, values,
                                           message):
    # a config value gets the checks of the same flag typed on the command
    # line; a key that is no flag of the subcommand is a usage error too
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    argv = ["--config", str(config), command]
    with pytest.raises(SystemExit) as exc:
        dispatch(argv if command == "rankagg" else argv + ["--input", demo_file])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"hyperwalk {command}: error: " in err and message in err


@pytest.mark.parametrize("key", ["check_cheeger", "check-cheeger"])
def test_config_true_adds_a_flag_and_false_adds_none(demo_file, tmp_path, capsys, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: True, "eps": 0.3}))
    assert dispatch(["--config", str(config), "spectral", "--input", demo_file]) == 0
    assert "cheeger_inequality" in json.loads(capsys.readouterr().out)
    config.write_text(json.dumps({key: False}))
    assert dispatch(["--config", str(config), "spectral", "--input", demo_file]) == 0
    assert "cheeger_inequality" not in json.loads(capsys.readouterr().out)


def test_manifest_command_shows_config_flags(demo_file, tmp_path):
    out = str(tmp_path / "pi.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "rho", "out": out}))
    argv = ["--config", str(config), "stationary", "--input", demo_file]
    assert dispatch(argv) == 0
    manifest = json.loads((tmp_path / "pi.json.manifest.json").read_text())
    assert manifest["command"] == ["hyperwalk", "--config", str(config), "stationary",
                                   "--method=rho", f"--out={out}", "--input", demo_file]


def test_missing_input_file_is_domain_error(capsys):
    assert dispatch(["validate", "--input", "no-such-file.json"]) == 1
    assert "no-such-file" in capsys.readouterr().err


# -- input contract: malformed files exit 1 and name the error ----------------------

def _write_json(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("doc", [
    '{"vertices": ["a", "b"], "edges": [',                          # invalid JSON
    {"vertices": ["a", "b"], "edges": ["a"]},                       # edge is not an object
    {"vertices": "ab",                                              # vertices is a string
     "edges": [{"weight": 1.0, "members": {"a": 1.0, "b": 1.0}}]},
])
def test_malformed_hypergraph_is_named_domain_error(tmp_path, capsys, doc):
    path = _write_json(tmp_path, "h.json", doc)
    assert dispatch(["validate", "--input", path]) == 1
    assert "MalformedInput" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["x", None])
def test_non_numeric_weight_is_named_domain_error(tmp_path, capsys, bad):
    for edge in ({"weight": bad, "members": {"a": 1.0, "b": 1.0}},
                 {"weight": 1.0, "members": {"a": 1.0, "b": bad}}):
        path = _write_json(tmp_path, "h.json", {"vertices": ["a", "b"], "edges": [edge]})
        assert dispatch(["validate", "--input", path]) == 1
        assert "NonPositiveWeight: edge #0" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [True, "2"])
def test_weight_must_be_a_json_number(tmp_path, capsys, bad):
    # float() would read true as 1.0 and "2" as 2.0
    for edge, named in (({"weight": bad, "members": {"a": 1.0, "b": 1.0}},
                         f"edge #0: edge weight {bad!r}"),
                        ({"weight": 1.0, "members": {"a": 1.0, "b": bad}},
                         f"edge #0: weight {bad!r} of vertex 'b'")):
        path = _write_json(tmp_path, "h.json", {"vertices": ["a", "b"], "edges": [edge]})
        assert dispatch(["validate", "--input", path]) == 1
        assert f"NonPositiveWeight: {named}" in capsys.readouterr().err


ONE_VERTEX = {"vertices": ["a"], "edges": [{"weight": 1, "members": {"a": 1}}]}

# Small valid inputs at the edges of what the commands can take.
SMALL_INPUTS = {
    "one-vertex": ONE_VERTEX,
    "two-vertices": {"vertices": ["a", "b"],
                     "edges": [{"weight": 1, "members": {"a": 1, "b": 2}}]},
    "dominated-member": {"vertices": ["a", "b", "c"],
                         "edges": [{"weight": 1.0, "members": {"a": 1.0, "b": 1e-20}},
                                   {"weight": 1.0, "members": {"b": 1.0, "c": 1.0}}]},
    "subnormal-edge-weight": {"vertices": ["a", "b"],
                              "edges": [{"weight": 1e-320, "members": {"a": 1.0, "b": 1.0}}]},
    # the sandwich graph's walk gives vertex 'a' a stationary mass of 0.0
    "subnormal-beside-a-normal-edge": {
        "vertices": ["a", "b", "c"],
        "edges": [{"weight": 1e-320, "members": {"a": 1.0, "b": 1.0}},
                  {"weight": 1.0, "members": {"b": 1.0, "c": 1.0}}]},
}
EVERY_MODE = ([["validate"]] + [["transition", "--kind", k] for k in ("lazy", "nonlazy", "restart")]
              + [["stationary", "--method", m] for m in ("rho", "direct", "auto")]
              + [["spectral", "--check-cheeger"]]
              + [["reduce", "--mode", m] for m in ("eqind", "sandwich", "nonlazy")])


@pytest.mark.parametrize("command", EVERY_MODE, ids="_".join)
@pytest.mark.parametrize("name", SMALL_INPUTS)
def test_small_valid_inputs_give_an_exit_code_not_a_traceback(tmp_path, capsys, name, command):
    path = _write_json(tmp_path, "h.json", SMALL_INPUTS[name])
    try:  # an exception out of dispatch is the traceback a user would see
        code = dispatch(command[:1] + ["--input", path] + command[1:])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_reduce_sandwich_refuses_one_vertex(tmp_path, capsys):
    path = _write_json(tmp_path, "h.json", ONE_VERTEX)
    assert dispatch(["reduce", "--input", path, "--mode", "sandwich"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: SizeLimit: the sandwich check needs at least 2 vertices, "
                            "got 1\n")


def test_input_directory_is_named_domain_error(tmp_path, capsys):
    assert dispatch(["validate", "--input", str(tmp_path)]) == 1
    assert "IsADirectoryError" in capsys.readouterr().err


def test_matches_without_scores_is_named_domain_error(tmp_path, capsys):
    path = _write_json(tmp_path, "m.json", {"n": 2, "matches": [{"participants": [1, 2]}]})
    assert dispatch(["rankagg", "--matches", path]) == 1
    err = capsys.readouterr().err
    assert "MalformedInput" in err and "scores" in err


DEEP = ["[" * 200_000 + "]" * 200_000, '{"a": ' * 200_000 + "1" + "}" * 200_000]


@pytest.mark.parametrize("doc", DEEP, ids=["arrays", "objects"])
@pytest.mark.parametrize("flag", ["validate --input", "rankagg --matches"])
def test_deeply_nested_json_is_malformed_input(tmp_path, capsys, doc, flag):
    path = _write_json(tmp_path, "deep.json", doc)
    assert dispatch(flag.split() + [path]) == 1
    assert "error: MalformedInput: " in capsys.readouterr().err


def test_deeply_nested_config_is_usage_error(tmp_path, capsys):
    path = _write_json(tmp_path, "config.json", DEEP[0])
    with pytest.raises(SystemExit) as exc:
        dispatch(["--config", path, "demo"])
    assert exc.value.code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_match_file_duplicate_key_is_domain_error(tmp_path, capsys):
    path = _write_json(tmp_path, "m.json", '{"n": 2, "n": 3, "matches": []}')
    assert dispatch(["rankagg", "--matches", path]) == 1
    assert "error: DuplicateVertex: duplicate key 'n'" in capsys.readouterr().err


MATCH = {"participants": [1, 2], "scores": [0.5, 1.0]}


@pytest.mark.parametrize("doc", [
    {"n": 2.9, "matches": [MATCH]},
    {"n": True, "matches": [MATCH]},
    {"n": "2", "matches": [MATCH]},
    {"n": 2, "matches": [dict(MATCH, participants=[1.7, 2])]},
    {"n": 2, "matches": [dict(MATCH, participants=[True, 2])]},
    {"n": 2, "matches": [dict(MATCH, participants=["1", 2])]},
    {"n": 2, "matches": [dict(MATCH, scores=["0.5", 1.0])]},
    {"n": 2, "matches": [dict(MATCH, scores=[True, 1.0])]},
    {"n": 2, "matches": [dict(MATCH, scores=[None, 1.0])]},
    '{"n": 2, "matches": [{"participants": [1, 2], "scores": [NaN, 1.0]}]}',
    '{"n": 2, "matches": [{"participants": [1, 2], "scores": [0.5, Infinity]}]}',
    '{"n": 2, "matches": [{"participants": [1, 2], "scores": [0.5, 1e400]}]}',
    '{"n": 2, "matches": [{"participants": [1, 2], "scores": [0.5, %d]}]}' % 10**400,
], ids=["n-float", "n-true", "n-string", "player-float", "player-true", "player-string",
        "score-string", "score-true", "score-null", "score-nan", "score-infinity",
        "score-overflowing-float", "score-overflowing-int"])
def test_match_values_must_be_json_numbers(tmp_path, capsys, doc):
    path = _write_json(tmp_path, "m.json", doc)
    assert dispatch(["rankagg", "--matches", path]) == 1
    assert "MalformedInput" in capsys.readouterr().err


@pytest.mark.parametrize("doc, error", [
    ({"n": 2, "matches": [MATCH, {"participants": [2, 3], "scores": [0.0, 1.0]}]},
     "UnknownVertex"),
    ({"n": 3, "matches": [MATCH, MATCH]}, "DisconnectedHypergraph"),
    ({"n": 10**12, "matches": [MATCH]}, "DisconnectedHypergraph"),
    ({"n": 2, "matches": [{"participants": [1, 1], "scores": [0.0, 1.0]}]},
     "DuplicateVertex"),
    ({"n": 2, "matches": [{"participants": [1, 2], "scores": [0.0, 701.0]}]},
     "ScoreOverflow"),
], ids=["player-out-of-range", "player-in-no-match", "huge-n", "player-twice",
        "score-overflow"])
def test_match_file_errors_are_named(tmp_path, capsys, doc, error):
    path = _write_json(tmp_path, "m.json", doc)
    assert dispatch(["rankagg", "--matches", path]) == 1
    assert f"error: {error}:" in capsys.readouterr().err


def test_rankagg_out_of_order_participants(tmp_path, capsys):
    # participants listed out of order rank exactly as when listed in order;
    # the orders are those of the per-match construction
    docs = [{"n": 3, "matches": [{"participants": [1, 3], "scores": [2.0, 0.5]},
                                 {"participants": [1, 2, 3], "scores": [0.25, 1.0, -0.3]}]},
            {"n": 3, "matches": [{"participants": [3, 1], "scores": [0.5, 2.0]},
                                 {"participants": [2, 3, 1], "scores": [1.0, -0.3, 0.25]}]}]
    outputs = []
    for doc in docs:
        assert dispatch(["rankagg", "--matches", _write_json(tmp_path, "m.json", doc)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    orders = [r["order"] for r in json.loads(outputs[0])["rankings"]]
    assert orders == [[1, 2, 3], [1, 2, 3], [2, 1, 3]]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_rankagg_needs_a_trial(capsys, monkeypatch, trials):
    def unreachable(*args):
        raise AssertionError("a match set was drawn")

    monkeypatch.setattr("hyperwalk.rankagg.generate", unreachable)
    assert dispatch(["rankagg", "--n", "8", "--trials", trials]) == 2
    assert "trials" in capsys.readouterr().err


def test_rankagg_unreachable_coverage_stops(capsys):
    argv = ["rankagg", "--n", "5", "--p", "0.0001", "--trials", "1", "--seed", "1"]
    assert dispatch(argv) == 1
    assert "ConvergenceFailure" in capsys.readouterr().err


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rankagg_trial_error_is_reported_alike_in_any_number_of_processes(capsys, monkeypatch,
                                                                          k):
    monkeypatch.setattr("hyperwalk.rankagg._shares", lambda tasks: k)
    argv = ["rankagg", "--n", "5", "--p", "0.0001", "--trials", "3", "--seed", "1"]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == (
        "error: ConvergenceFailure: 100000 match draws did not cover all 5 players in one "
        "connected set at p=0.0001; increase p\n")


@pytest.mark.parametrize("flags, message", [
    (["--p", "1.5"], "p must lie in (0, 1)"),
    (["--p", "0.3,1.5"], "p must lie in (0, 1)"),
    (["--sigma", "0"], "sigma must be positive"),
    (["--n", "1"], "need at least two players"),
])
def test_rankagg_out_of_range_parameter_starts_no_process(capsys, monkeypatch, flags, message):
    def unreachable(*args):
        raise AssertionError("a process was started")

    monkeypatch.setattr("hyperwalk.rankagg._shares", lambda tasks: 2)
    monkeypatch.setattr(os, "fork", unreachable)
    assert dispatch(["rankagg", "--trials", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"usage error: {message}\n")


def test_rankagg_score_overflow_is_named_without_a_warning():
    # run as a user runs it, under Python's default warning filters
    env = dict(os.environ, PYTHONPATH=str(Path(hyperwalk.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "hyperwalk.cli", "rankagg", "--n", "5",
                          "--p", "0.5", "--trials", "1", "--sigma", "1e308"],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert "error: ScoreOverflow" in run.stderr
    assert "Warning" not in run.stderr


def test_rankagg_huge_score_spread_is_named_without_a_warning(tmp_path):
    # np.std of the scores overflows: the edge weight inf is named, and numpy
    # prints no RuntimeWarning on the way
    path = _write_json(tmp_path, "m.json", {"n": 2, "matches": [
        {"participants": [1, 2], "scores": [-1e308, 700.0]}]})
    env = dict(os.environ, PYTHONPATH=str(Path(hyperwalk.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "hyperwalk.cli", "rankagg", "--matches", path],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr == ("error: NonPositiveWeight: edge #0: edge weight inf "
                          "must be a finite number > 0\n")


def test_reduce_eqind_weight_past_the_float_range_is_named_without_a_warning(tmp_path):
    # w(a, a) is about 1e600; run as a user runs it, under Python's default
    # warning filters, so numpy would print its overflow warning on stderr
    path = _write_json(tmp_path, "h.json", {"vertices": ["a", "b", "c"], "edges": [
        {"weight": 1e300, "members": {"a": 1e300, "b": 1}},
        {"weight": 1, "members": {"b": 1, "c": 1e-300}}]})
    env = dict(os.environ, PYTHONPATH=str(Path(hyperwalk.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "hyperwalk.cli", "reduce", "--input", path,
                          "--mode", "eqind"], env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr == "error: NonPositiveWeight: graph weights must be finite\n"


def test_rankagg_repeated_rate_is_usage_error(capsys):
    assert dispatch(["rankagg", "--n", "5", "--p", "0.3,0.30", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: inclusion rate 0.3 is given more than once" in captured.err


def test_spectral_one_vertex_is_size_limit(tmp_path, capsys):
    path = _write_json(tmp_path, "h.json",
                       {"vertices": ["a"], "edges": [{"weight": 1, "members": {"a": 1}}]})
    assert dispatch(["spectral", "--input", path]) == 1
    assert "SizeLimit" in capsys.readouterr().err


def test_spectral_too_many_vertices_fails_before_the_laplacian(tmp_path, capsys,
                                                                monkeypatch):
    def unreachable(H):
        raise AssertionError("the Laplacian was built before the size check")

    monkeypatch.setattr("hyperwalk.spectral.laplacian", unreachable)
    names = [f"v{i}" for i in range(25)]
    path = _write_json(tmp_path, "h.json",
                       {"vertices": names,
                        "edges": [{"weight": 1, "members": {v: 1 for v in names}}]})
    assert dispatch(["spectral", "--input", path, "--check-cheeger"]) == 1
    assert "SizeLimit" in capsys.readouterr().err


OVERFLOWING_DEGREE = [
    ([{"weight": 1, "members": {"a": 1e308, "b": 1e308}}], "edge #0: degree delta(e)"),
    ([{"weight": 1e308, "members": {"a": 1, "b": 1}}] * 2, "vertex 'a': degree d(v)"),
]


@pytest.mark.parametrize("edges, named", OVERFLOWING_DEGREE, ids=["edge", "vertex"])
@pytest.mark.parametrize("command", ["stationary", "stationary --method rho", "transition",
                                     "spectral"])
def test_overflowing_degree_is_named(tmp_path, capsys, edges, named, command):
    # each weight is finite, so the file is valid; the walk's degrees are not
    path = _write_json(tmp_path, "h.json", {"vertices": ["a", "b"], "edges": edges})
    assert dispatch(["validate", "--input", path]) == 0
    assert dispatch(command.split() + ["--input", path]) == 1
    assert f"error: NonPositiveWeight: {named} overflows the float range" in \
        capsys.readouterr().err


@pytest.mark.parametrize("edges", [
    # 8 / (beta1 Phi^2) overflows to inf
    [{"weight": 1, "members": {"a": 1e-320, "b": 1}}],
    # beta1 Phi^2 underflows to 0 (Phi is about 5e-13 on this path)
    [{"weight": 1, "members": {"a": 1e-320, "b": 1}},
     {"weight": 1e-12, "members": {"b": 1, "c": 1}}, {"weight": 1, "members": {"c": 1, "d": 1}}],
], ids=["overflow", "underflow"])
def test_spectral_mixing_bound_beyond_the_float_range_is_named(tmp_path, capsys, edges):
    names = sorted({v for e in edges for v in e["members"]})
    path = _write_json(tmp_path, "h.json", {"vertices": names, "edges": edges})
    assert dispatch(["spectral", "--input", path]) == 1
    assert "error: BoundOverflow: mixing bound exceeds the float range" in \
        capsys.readouterr().err


SUBNORMAL_EDGE = {"vertices": ["a", "b"],
                  "edges": [{"weight": 1e-320, "members": {"a": 1, "b": 1}}]}


def test_subnormal_edge_weight_auto_falls_back_at_once(tmp_path, capsys):
    # d = 1e-320, so pi / d overflows in the walk's first step
    path = _write_json(tmp_path, "h.json", SUBNORMAL_EDGE)
    assert dispatch(["stationary", "--input", path, "--method", "direct"]) == 0
    direct = capsys.readouterr().out
    assert json.loads(direct)["pi"] == {"a": 0.5, "b": 0.5}
    assert dispatch(["stationary", "--input", path]) == 0
    out, err = capsys.readouterr()
    assert out == direct
    assert err == ("warning: ConvergenceFailure: walk iterate 1 is not finite; "
                   "using the direct solve\n")


SUBNORMAL_DELTA = {"vertices": ["a", "b"],
                   "edges": [{"weight": 1.0, "members": {"a": 5e-324, "b": 5e-324}}]}


@pytest.mark.parametrize("command", ["transition", "transition --kind restart",
                                     "stationary --method direct", "stationary --method auto"])
def test_subnormal_delta_builds_the_walk_operator_without_a_warning(tmp_path, command):
    # delta = 1e-323, so omega / delta overflows in the operator's spread; run
    # as a user runs it, under Python's default warning filters
    path = _write_json(tmp_path, "h.json", SUBNORMAL_DELTA)
    env = dict(os.environ, PYTHONPATH=str(Path(hyperwalk.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "hyperwalk.cli", *command.split(),
                          "--input", path], env=env, capture_output=True, text=True)
    assert run.returncode == 0
    assert "RuntimeWarning" not in run.stderr


@pytest.mark.parametrize("command", ["stationary --method rho", "spectral"])
def test_subnormal_edge_weight_is_named(tmp_path, capsys, command):
    # sum_e rho_e * omega(e) = 1e-320, so rho_e / that overflows
    path = _write_json(tmp_path, "h.json", SUBNORMAL_EDGE)
    assert dispatch(command.split() + ["--input", path]) == 1
    assert capsys.readouterr().err == ("error: NonPositiveWeight: edge #0: per-edge "
                                       "constant rho_e overflows the float range\n")


@pytest.mark.parametrize("kind", [[], ["--kind", "lazy"], ["--kind", "nonlazy"]])
def test_restart_vertex_needs_the_restart_walk(demo_file, tmp_path, capsys, kind):
    argv = ["transition", "--input", demo_file] + kind
    assert dispatch(argv + ["--restart-vertex", "v1"]) == 2
    assert "usage error: --restart-vertex applies only to --kind restart" in \
        capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restart_vertex": "v1"}))
    assert dispatch(["--config", str(config)] + argv) == 2
    assert "--restart-vertex" in capsys.readouterr().err
    assert dispatch(["--config", str(config), "transition", "--input", demo_file,
                     "--kind", "restart"]) == 0


def test_stationary_auto_reports_fallback(demo_file, tmp_path, capsys, monkeypatch):
    direct = tmp_path / "direct.json"
    assert dispatch(["stationary", "--input", demo_file, "--method", "direct",
                     "--out", str(direct)]) == 0

    def failing_walk(H):
        raise ConvergenceFailure("walk iteration refused")

    monkeypatch.setattr("hyperwalk.cli.stationary_walk", failing_walk)
    auto = tmp_path / "auto.json"
    assert dispatch(["stationary", "--input", demo_file, "--out", str(auto)]) == 0
    assert "ConvergenceFailure: walk iteration refused" in capsys.readouterr().err
    assert auto.read_bytes() == direct.read_bytes()
    manifest = json.loads((tmp_path / "auto.json.manifest.json").read_text())
    assert set(manifest) == {"command", "inputs", "seed", "version", "numpy",
                             "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "prng", "timestamp"}


def test_spectral_bad_eps_fails_before_the_laplacian(demo_file, capsys, monkeypatch):
    def unreachable(H):
        raise AssertionError("the Laplacian was built before the eps check")

    monkeypatch.setattr("hyperwalk.spectral.laplacian", unreachable)
    assert dispatch(["spectral", "--input", demo_file, "--eps", "0.7"]) == 2
    assert "eps must lie in (0, 1/2)" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["stationary"], ["spectral"],
                                     ["reduce", "--mode", "sandwich"]])
def test_json_flag_rejected_where_output_is_always_json(demo_file, command):
    with pytest.raises(SystemExit) as exc:
        dispatch(command + ["--input", demo_file, "--json"])
    assert exc.value.code == 2


def _count_calls(monkeypatch, *names) -> dict:
    """Count calls of the named functions through every hyperwalk module
    that holds them, so calls from inside the library are seen too."""
    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "hyperwalk"]
    for module in modules:
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


def test_reduce_sandwich_derives_each_walk_once(demo_file, capsys, monkeypatch):
    counts = _count_calls(monkeypatch, "stationary_rho", "_solve_rho", "transition_matrix",
                          "clique_expansion_weights")
    assert dispatch(["reduce", "--input", demo_file, "--mode", "sandwich"]) == 0
    # the second walk matrix is the one the rho solve checks its residual on;
    # the check and rho_normalized each read the one rho solve
    assert counts == {"stationary_rho": 2, "_solve_rho": 1, "transition_matrix": 2,
                      "clique_expansion_weights": 1}


def _write_edges(tmp_path, n: int, member_lists, seed: int) -> str:
    """A hypergraph file on vertices v0..v{n-1} with seeded random weights."""
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(n)]
    edges = [{"weight": float(rng.uniform(0.5, 2.0)),
              "members": {names[v]: float(rng.uniform(0.25, 4.0)) for v in members}}
             for members in member_lists]
    return _write_json(tmp_path, f"h{n}.json", {"vertices": names, "edges": edges})


def _path(tmp_path, n: int) -> str:
    """A path of 2-vertex edges: its spectral gap is about 1/n^2, so the
    walk iteration cannot converge within its cap."""
    return _write_edges(tmp_path, n, [(i, i + 1) for i in range(n - 1)], seed=n)


def _no_dense_matrix(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a dense matrix was built before the size check")

    monkeypatch.setattr("hyperwalk.stationary._block_scatter", unreachable)
    monkeypatch.setattr("hyperwalk.walk._block_scatter", unreachable)
    monkeypatch.setattr("hyperwalk.reduction._block_scatter", unreachable)


def test_stationary_rho_too_many_vertices_fails_first(tmp_path, capsys, monkeypatch):
    path = _path(tmp_path, DENSE_SIZE_LIMIT + 1)
    _no_dense_matrix(monkeypatch)
    assert dispatch(["stationary", "--input", path, "--method", "rho"]) == 1
    assert f"SizeLimit: dense matrices support at most {DENSE_SIZE_LIMIT} vertices, " \
           f"got {DENSE_SIZE_LIMIT + 1}" in capsys.readouterr().err


def test_stationary_rho_too_many_edges_fails_first(tmp_path, capsys, monkeypatch):
    m = DENSE_SIZE_LIMIT + 1
    path = _write_edges(tmp_path, 8, [(i % 8, (i + 1) % 8) for i in range(m)], seed=1)
    _no_dense_matrix(monkeypatch)
    assert dispatch(["stationary", "--input", path, "--method", "rho"]) == 1
    assert f"SizeLimit: dense matrices support at most {DENSE_SIZE_LIMIT} edges, " \
           f"got {m}" in capsys.readouterr().err
    # auto serves it through the walk iteration, without any dense matrix
    assert dispatch(["stationary", "--input", path]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["method"] == "walk-iteration"
    assert captured.err == ""


def test_reduce_eqind_too_many_vertices_fails_first(tmp_path, capsys, monkeypatch):
    n = DENSE_SIZE_LIMIT + 1
    names = [f"v{i}" for i in range(n)]
    edges = [{"weight": 1.0, "members": {names[i]: 1.0, names[i + 1]: 1.0}}
             for i in range(n - 1)]
    path = _write_json(tmp_path, "path.json", {"vertices": names, "edges": edges})
    _no_dense_matrix(monkeypatch)
    assert dispatch(["reduce", "--input", path, "--mode", "eqind"]) == 1
    assert f"SizeLimit: dense matrices support at most {DENSE_SIZE_LIMIT} vertices, " \
           f"got {n}" in capsys.readouterr().err


def test_stationary_auto_falls_back_on_a_slowly_mixing_walk(tmp_path, capsys):
    path = _path(tmp_path, 300)
    direct = tmp_path / "direct.json"
    assert dispatch(["stationary", "--input", path, "--method", "direct",
                     "--out", str(direct)]) == 0
    auto = tmp_path / "auto.json"
    assert dispatch(["stationary", "--input", path, "--out", str(auto)]) == 0
    err = capsys.readouterr().err
    assert f"warning: ConvergenceFailure: walk iteration stopped after {WALK_MAX_ITER} " \
           "iterations with residual " in err
    assert err.rstrip().endswith("using the direct solve")
    assert json.loads(auto.read_text())["method"] == "direct-solve"
    assert auto.read_bytes() == direct.read_bytes()


def test_stationary_auto_fails_on_a_slowly_mixing_walk_above_the_limit(tmp_path, capsys,
                                                                       monkeypatch):
    path = _path(tmp_path, DENSE_SIZE_LIMIT + 1)
    _no_dense_matrix(monkeypatch)
    assert dispatch(["stationary", "--input", path]) == 1
    err = capsys.readouterr().err
    assert f"error: ConvergenceFailure: walk iteration stopped after {WALK_MAX_ITER} " \
           "iterations with residual " in err


def test_stationary_auto_is_deterministic(tmp_path):
    n = 500
    rng = np.random.default_rng(2)
    chain = [(i, i + 1) for i in range(n - 1)]
    extra = [tuple(rng.choice(n, size=3, replace=False).tolist()) for _ in range(n)]
    path = _write_edges(tmp_path, n, chain + extra, seed=2)
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert dispatch(["stationary", "--input", path, "--method", "auto",
                         "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert json.loads(outputs[0])["method"] == "walk-iteration"
    assert outputs[0] == outputs[1]
