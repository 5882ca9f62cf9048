"""Command-line interface.

Subcommands: transition, stationary, spectral, reduce, rankagg, validate,
demo. Each handler takes the parsed arguments and returns its output: a dict
for a JSON payload, or the text of a CSV or report. ``dispatch`` alone
writes it, to stdout or to the --out file. Every file written with --out
gets a companion ``<out>.manifest.json`` recording the command line, input
digests, seed, tool version, Python and numpy versions, BLAS thread variables
and PRNG algorithm, so any seeded run can be reproduced bit-for-bit within
one build.

Exit codes: 0 success, 1 domain error (message names the error type),
2 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import errno
import functools
import hashlib
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .core import (
    _file_bytes,
    _graph_edges,
    _hypergraph_json,
    _json_text,
    _load_json,
    demo_hypergraph,
    read_hypergraph,
)
from .errors import ConvergenceFailure, HyperwalkError
from .rankagg import DEFAULT_BETA, _rankings, experiment, matches_from_json_dict
from .reduction import (
    edge_independent_to_graph,
    nonlazy_trivial_equivalence,
    reversibility,
    sandwich_check,
)
from .spectral import _spectra, check_cheeger, spectral_report
from .stationary import _stationary_direct_of, stationary_rho, stationary_walk
from .walk import (
    DENSE_SIZE_LIMIT,
    PRNG_ALGORITHM,
    nonlazy_transition_matrix,
    restart_matrix,
    transition_matrix,
)


# -- reproducibility manifest --------------------------------------------------

# BLAS threads change the last bits of some results, and BLAS fixes its
# thread count when numpy is imported: so the variables are read once, here,
# not when a manifest is written. null: unset, the BLAS default.
_BLAS_THREADS = {var: os.environ.get(var)
                 for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def write_manifest(out_path: str, argv: list[str], inputs: dict[str, str],
                   seed: int | None) -> None:
    """Record what produced `out_path`: re-running `command` against inputs
    with these digests (path -> sha256 as read) reproduces the file
    byte-for-byte within one build."""
    manifest = {
        "command": ["hyperwalk"] + list(argv),
        "inputs": inputs,
        "seed": seed,
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_BLAS_THREADS,
        "prng": PRNG_ALGORITHM,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(_json_text(manifest))


def _csv_field(name: str) -> str:
    """`name` as one CSV field: quoted, with each quote doubled, where it
    holds a comma, a quote, a carriage return or a newline. (On Python 3.11,
    csv.writer with a "\n" line terminator leaves a carriage return unquoted,
    and csv.reader refuses the row.)"""
    if any(c in name for c in ',"\r\n'):
        return '"' + name.replace('"', '""') + '"'
    return name


def _matrix_csv(vertices, matrix) -> str:
    names = list(map(_csv_field, vertices))
    lines = ["vertex," + ",".join(names)]
    for v, row in zip(names, matrix):
        lines.append(v + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


# -- subcommand handlers ---------------------------------------------------------

def _pre_read(args, path: str) -> bytes | None:
    """The bytes of the input file at `path` that ``dispatch`` read and
    hashed before the work (with --out), let go once taken; else None, and
    the file is read now."""
    return args.read.pop(path, None)


def _hypergraph(args):
    return read_hypergraph(args.input, _pre_read(args, args.input))


def _cmd_validate(args) -> str:
    _hypergraph(args)
    return f"{args.input}: ok\n"


def _cmd_transition(args) -> dict | str:
    for flag, value in (("--beta", args.beta), ("--restart-vertex", args.restart_vertex)):
        if value is not None and args.kind != "restart":
            raise ValueError(f"{flag} applies only to --kind restart")
    H = _hypergraph(args)
    P = nonlazy_transition_matrix(H) if args.kind == "nonlazy" else transition_matrix(H)
    if args.kind == "restart":
        restart = None
        if args.restart_vertex is not None:
            restart = np.zeros(H.n_vertices)
            restart[H.index(args.restart_vertex)] = 1.0
        P = restart_matrix(P, DEFAULT_BETA if args.beta is None else args.beta, restart)
    if args.json:
        return {
            "vertices": list(P.vertices),
            "matrix": P.matrix.tolist(),
            "kind": args.kind,
        }
    return _matrix_csv(P.vertices, P.matrix)


def _cmd_stationary(args) -> dict:
    H = _hypergraph(args)
    if args.method == "auto":  # the walk iteration; the direct solve where it stalls
        try:
            return stationary_walk(H).as_dict()
        except ConvergenceFailure as exc:
            if H.n_vertices > DENSE_SIZE_LIMIT:
                raise
            print(f"warning: {type(exc).__name__}: {exc}; using the direct solve",
                  file=sys.stderr)
    return _stationary_direct_of(H).as_dict()


def _cmd_spectral(args) -> dict:
    H = _hypergraph(args)
    payload = spectral_report(H, eps=args.eps).as_dict()
    if args.check_cheeger:
        verdict = check_cheeger(H)
        payload["cheeger_inequality"] = {
            "lambda": verdict.lam,
            "lambda_unnormalized": verdict.lam_unnormalized,
            "phi": verdict.phi,
            "holds": verdict.holds,
        }
    return payload


def _cmd_reduce(args) -> dict:
    H = _hypergraph(args)
    if args.mode == "eqind":
        G = edge_independent_to_graph(H)
        verdict = {"mode": "eqind", "walks_equal": True}
    elif args.mode == "nonlazy":
        eq = nonlazy_trivial_equivalence(H)
        G = eq.graph
        verdict = {"mode": "nonlazy", "max_dev": eq.max_dev}
    else:
        chk = sandwich_check(H)
        G = chk.graph
        verdict = {
            "mode": "sandwich",
            "lambda_hypergraph": chk.lam_h,
            "lambda_graph": chk.lam_g,
            "c": chk.c,
            "holds": chk.holds,
            "stationary_deviation": chk.pi_dev,
        }
    return {"graph": _hypergraph_json(G.vertices, *_graph_edges(G)), "verdict": verdict}


# The experiment's flags and their defaults. They are unset (None) when not
# given, so that --matches, which draws nothing, can refuse them.
_EXPERIMENT_FLAGS = {"n": 100, "sigma": 1.0, "p": "0.03,0.05,0.07", "trials": 30, "seed": 42}


def _cmd_rankagg(args) -> dict | str:
    given = [name for name in _EXPERIMENT_FLAGS if getattr(args, name) is not None]
    if args.matches:
        if given:
            raise ValueError(f"--{given[0]} applies only to the experiment, not to --matches")
        data = matches_from_json_dict(_load_json(args.matches, _pre_read(args, args.matches)))
        rankings = _rankings(data, args.beta)
        return {"rankings": [{"method": r.method, "order": list(r.order)} for r in rankings]}
    for name in _EXPERIMENT_FLAGS.keys() - given:  # the manifest records the seed used
        setattr(args, name, _EXPERIMENT_FLAGS[name])
    p_values = [float(x) for x in args.p.split(",")]
    result = experiment(args.n, args.sigma, p_values, args.trials, args.seed,
                        beta=args.beta)
    if args.json:
        return {"params": result.params, "summary": result.summary,
                "trials": result.trials}
    if args.out:
        print(f"{'method':15s} {'p':>6s} {'mean tau_w':>11s} {'std':>8s}")
        for row in result.summary:
            print(f"{row['method']:15s} {row['p']:6.3f} "
                  f"{row['mean_tau_weighted']:11.4f} {row['std_tau_weighted']:8.4f}")
    return result.to_csv()


def _cmd_demo(args) -> dict | str:
    H = demo_hypergraph()
    P = transition_matrix(H)
    pi = stationary_rho(H)
    verdict = reversibility(P, pi.pi)
    evals = _spectra(H)[0]
    cheeger = check_cheeger(H)
    if args.json:
        return {
            "vertices": list(H.vertices),
            "transition_matrix": P.matrix.tolist(),
            "pi": pi.as_dict()["pi"],
            "reversible": verdict.reversible,
            "worst_pair": list(verdict.worst_pair),
            "violation": verdict.violation,
            "laplacian_eigenvalues": evals.tolist(),
            "cheeger": cheeger.phi,
            "cheeger_inequality_holds": cheeger.holds,
        }
    return "\n".join([
        "demo hypergraph: 4 vertices, 2 overlapping edges, gamma(v1 in edge 0) = 2",
        "\ntransition matrix P:",
        _matrix_csv(P.vertices, P.matrix).rstrip("\n"),
        f"\nstationary distribution (direct solve, residual {pi.residual:.2e}):",
        *(f"  pi({v}) = {x:.12f}" for v, x in zip(H.vertices, pi.pi)),
        f"\nreversible: {verdict.reversible} "
        f"(worst pair {verdict.worst_pair}, violation {verdict.violation:.6e})",
        "\nLaplacian spectrum: " + " ".join(f"{x:.10f}" for x in evals),
        f"\nCheeger constant: {cheeger.phi:.10f}",
        f"Cheeger inequality phi^2/2 <= lambda <= 2 phi: "
        f"lambda={cheeger.lam:.10f}, holds={cheeger.holds}",
    ]) + "\n"


# -- parser ----------------------------------------------------------------------

@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and the parser of each subcommand by name; built once and
    never changed."""
    parser = argparse.ArgumentParser(
        prog="hyperwalk",
        description="Random walks, spectra, and rank aggregation on hypergraphs "
                    "with per-edge vertex weights.",
        allow_abbrev=False,  # _with_config finds --config by its full name
    )
    parser.add_argument("--config", help="JSON file of flag values for the subcommand "
                                         "(explicit flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write output to this file (plus a .manifest.json)")

    p = sub.add_parser("validate", help="parse and validate a hypergraph file")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("transition", help="emit a walk transition matrix as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=["lazy", "nonlazy", "restart"], default="lazy")
    p.add_argument("--beta", type=float)  # DEFAULT_BETA with --kind restart, else refused
    p.add_argument("--restart-vertex", help="restart to this vertex instead of uniform")
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    add_out(p)
    p.set_defaults(handler=_cmd_transition)

    p = sub.add_parser("stationary", help="stationary distribution as JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["direct", "auto"], default="auto")
    add_out(p)
    p.set_defaults(handler=_cmd_stationary)

    p = sub.add_parser("spectral", help="Laplacian spectrum, Cheeger constant, mixing bound")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--check-cheeger", action="store_true")
    add_out(p)
    p.set_defaults(handler=_cmd_spectral)

    p = sub.add_parser("reduce", help="clique-graph reductions")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["eqind", "sandwich", "nonlazy"], required=True)
    add_out(p)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("rankagg", help="synthetic rank-aggregation experiment")
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--p", help="comma-separated inclusion rates")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--matches", help="rank externally supplied matches (JSON) instead")
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    add_out(p)
    p.set_defaults(handler=_cmd_rankagg)

    p = sub.add_parser("demo", help="run everything on the built-in fixture")
    p.add_argument("--json", action="store_true", help="JSON instead of text")
    p.set_defaults(handler=_cmd_demo)

    return parser, sub.choices


def _with_config(argv: list[str]) -> list[str]:
    """`argv` with the entries of its --config file inserted as flags right
    after the subcommand name, so flags typed after it win: ``true`` becomes
    ``--flag``, ``false`` adds nothing, any other value ``--flag=value``.
    A key that is not a flag of the subcommand is a usage error."""
    parser, commands = _build_parser()
    path, i = None, 0
    while i < len(argv) and argv[i] not in commands:  # the top-level options
        if argv[i].startswith("--config="):
            path = argv[i].split("=", 1)[1]
        elif argv[i] == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            i += 1
        i += 1
    if path is None or i == len(argv):
        return argv  # no config, or no subcommand: parse_args reports it
    try:
        values = _load_json(path)
    except (HyperwalkError, OSError) as exc:
        parser.error(f"--config {path}: {exc}")
    if not isinstance(values, dict):
        parser.error(f"--config {path}: expected a JSON object of flag values")
    command = commands[argv[i]]
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if flag == "--help" or flag not in command._option_string_actions:
            command.error(f"--config {path}: {key!r} is not a flag of {argv[i]}")
        if value is True:
            flags.append(flag)
        elif value is not False:
            flags.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return argv[:i + 1] + flags + argv[i + 1:]


def dispatch(argv: list[str]) -> int:
    """Run one command line; write its output, and with --out its manifest."""
    argv = _with_config(argv)
    args = _build_parser()[0].parse_args(argv)
    out = getattr(args, "out", None)
    try:
        # with --out, each input file is read once, before the work: its digest
        # and its parse are of the same bytes, which the output may overwrite
        paths = [getattr(args, name, None) for name in ("input", "matches")] if out else []
        args.read = {p: _file_bytes(p) for p in paths if p}
        inputs = {p: hashlib.sha256(data).hexdigest() for p, data in args.read.items()}
        if out is not None and not os.path.isdir(  # and "", whose directory "" is missing
                parent := os.path.dirname(out.rstrip(os.sep)) or out and "."):
            try:  # open's own error, before the work: the directory's lookup fails,
                os.stat(parent)
                code = errno.ENOTDIR  # or it is a file,
            except OSError as exc:
                code = exc.errno
            raise OSError(code, os.strerror(code), out)
        if out and (out.endswith(os.sep) or os.path.isdir(out)):  # or out names a directory
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        result = args.handler(args)
        text = _json_text(result) if isinstance(result, dict) else result
        if out:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            write_manifest(out, argv, inputs, getattr(args, "seed", None))
        else:
            sys.stdout.write(text)
    except (HyperwalkError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # out-of-range parameters are usage errors
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
