"""Command-line interface.

Subcommands: transition, stationary, spectral, reduce, rankagg, validate,
demo. Every file written with --out gets a companion ``<out>.manifest.json``
recording the command line, input digests, seed, tool version, and PRNG
algorithm, so any seeded run can be reproduced bit-for-bit within one build.

Exit codes: 0 success, 1 domain error (message names the error type),
2 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .core import (
    _load_json,
    demo_hypergraph,
    graph_to_json_dict,
    read_hypergraph,
)
from .errors import ConvergenceFailure, HyperwalkError
from .rankagg import experiment, matches_from_json_dict, rank_clique, rank_hypergraph, rank_mc3
from .reduction import (
    edge_independent_to_graph,
    nonlazy_trivial_equivalence,
    reversibility,
    sandwich_check,
)
from .spectral import check_cheeger, eigenvalues_symmetric, laplacian_from_walk, spectral_report
from .stationary import stationary_direct, stationary_rho, stationary_walk
from .walk import (
    DENSE_SIZE_LIMIT,
    PRNG_ALGORITHM,
    nonlazy_transition_matrix,
    restart_matrix,
    transition_matrix,
)


# -- reproducibility manifest --------------------------------------------------

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_path: str, argv: list[str], inputs: list[str],
                   seed: int | None) -> None:
    """Record what produced `out_path`: re-running `command` against inputs
    with these digests reproduces the file byte-for-byte within one build."""
    manifest = {
        "command": ["hyperwalk"] + list(argv),
        "inputs": {p: _sha256(p) for p in inputs},
        "seed": seed,
        "version": __version__,
        "prng": PRNG_ALGORITHM,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _emit(text: str, out: str | None, argv: list[str], inputs: list[str],
          seed: int | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        write_manifest(out, argv, inputs, seed)
    else:
        sys.stdout.write(text)


def _matrix_csv(vertices, matrix) -> str:
    lines = ["vertex," + ",".join(vertices)]
    for v, row in zip(vertices, matrix):
        lines.append(v + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


# -- subcommand handlers ---------------------------------------------------------

def _cmd_validate(args, argv) -> int:
    read_hypergraph(args.input)
    print(f"{args.input}: ok")
    return 0


def _cmd_transition(args, argv) -> int:
    if args.restart_vertex is not None and args.kind != "restart":
        raise ValueError("--restart-vertex applies only to --kind restart")
    H = read_hypergraph(args.input)
    P = nonlazy_transition_matrix(H) if args.kind == "nonlazy" else transition_matrix(H)
    if args.kind == "restart":
        restart = None
        if args.restart_vertex is not None:
            restart = np.zeros(H.n_vertices)
            restart[H.index(args.restart_vertex)] = 1.0
        P = restart_matrix(P, args.beta, restart)
    if args.json:
        payload = {
            "vertices": list(P.vertices),
            "matrix": [[float(x) for x in row] for row in P.matrix],
            "kind": args.kind,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out, argv, [args.input], None)
    else:
        _emit(_matrix_csv(P.vertices, P.matrix), args.out, argv, [args.input], None)
    return 0


def _cmd_stationary(args, argv) -> int:
    H = read_hypergraph(args.input)
    if args.method == "direct":
        result = stationary_direct(transition_matrix(H))
    elif args.method == "rho":
        result = stationary_rho(H)
    else:  # auto: the walk iteration; the dense direct solve where it stalls
        try:
            result = stationary_walk(H)
        except ConvergenceFailure as exc:
            if H.n_vertices > DENSE_SIZE_LIMIT:
                raise
            print(f"warning: {type(exc).__name__}: {exc}; using the direct solve",
                  file=sys.stderr)
            result = stationary_direct(transition_matrix(H))
    _emit(json.dumps(result.as_dict(), indent=2) + "\n",
          args.out, argv, [args.input], None)
    return 0


def _cmd_spectral(args, argv) -> int:
    H = read_hypergraph(args.input)
    report = spectral_report(H, eps=args.eps)
    payload = report.as_dict()
    if args.check_cheeger:
        verdict = check_cheeger(H)
        payload["cheeger_inequality"] = {
            "lambda": verdict.lam,
            "lambda_unnormalized": verdict.lam_unnormalized,
            "phi": verdict.phi,
            "holds": verdict.holds,
        }
    _emit(json.dumps(payload, indent=2) + "\n", args.out, argv, [args.input], None)
    return 0


def _cmd_reduce(args, argv) -> int:
    H = read_hypergraph(args.input)
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
    payload = {"graph": graph_to_json_dict(G), "verdict": verdict}
    _emit(json.dumps(payload, indent=2) + "\n", args.out, argv, [args.input], None)
    return 0


def _cmd_rankagg(args, argv) -> int:
    if args.matches:
        data = matches_from_json_dict(_load_json(args.matches))
        out_rows = []
        for ranker in (rank_hypergraph, rank_clique, rank_mc3):
            r = ranker(data, beta=args.beta)
            out_rows.append({"method": r.method, "order": list(r.order)})
        _emit(json.dumps({"rankings": out_rows}, indent=2) + "\n",
              args.out, argv, [args.matches], args.seed)
        return 0
    p_values = [float(x) for x in args.p.split(",")]
    result = experiment(args.n, args.sigma, p_values, args.trials, args.seed,
                        beta=args.beta)
    if args.json:
        payload = {"params": result.params, "summary": result.summary,
                   "trials": result.trials}
        _emit(json.dumps(payload, indent=2) + "\n", args.out, argv, [], args.seed)
        return 0
    _emit(result.to_csv(), args.out, argv, [], args.seed)
    if args.out:
        print(f"{'method':15s} {'p':>6s} {'mean tau_w':>11s} {'std':>8s}")
        for row in result.summary:
            print(f"{row['method']:15s} {row['p']:6.3f} "
                  f"{row['mean_tau_weighted']:11.4f} {row['std_tau_weighted']:8.4f}")
    return 0


def _cmd_demo(args, argv) -> int:
    H = demo_hypergraph()
    P = transition_matrix(H)
    pi = stationary_rho(H)
    verdict = reversibility(P, pi.pi)
    evals = eigenvalues_symmetric(laplacian_from_walk(P, pi.pi).L)
    cheeger = check_cheeger(H)
    if args.json:
        payload = {
            "vertices": list(H.vertices),
            "transition_matrix": [[float(x) for x in row] for row in P.matrix],
            "pi": {v: float(x) for v, x in zip(H.vertices, pi.pi)},
            "reversible": verdict.reversible,
            "worst_pair": list(verdict.worst_pair),
            "violation": verdict.violation,
            "laplacian_eigenvalues": [float(x) for x in evals],
            "cheeger": cheeger.phi,
            "cheeger_inequality_holds": cheeger.holds,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print("demo hypergraph: 4 vertices, 2 overlapping edges, gamma(v1 in edge 0) = 2")
    print("\ntransition matrix P:")
    print(_matrix_csv(P.vertices, P.matrix), end="")
    print("\nstationary distribution (rho route, residual %.2e):" % pi.residual)
    for v, x in zip(H.vertices, pi.pi):
        print(f"  pi({v}) = {x:.12f}")
    print(f"\nreversible: {verdict.reversible} "
          f"(worst pair {verdict.worst_pair}, violation {verdict.violation:.6e})")
    print("\nLaplacian spectrum:", " ".join(f"{x:.10f}" for x in evals))
    print(f"\nCheeger constant: {cheeger.phi:.10f}")
    print(f"Cheeger inequality phi^2/2 <= lambda <= 2 phi: "
          f"lambda={cheeger.lam:.10f}, holds={cheeger.holds}")
    return 0


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
    p.add_argument("--beta", type=float, default=0.4)
    p.add_argument("--restart-vertex", help="restart to this vertex instead of uniform")
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    add_out(p)
    p.set_defaults(handler=_cmd_transition)

    p = sub.add_parser("stationary", help="stationary distribution as JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["rho", "direct", "auto"], default="auto")
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
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--p", default="0.03,0.05,0.07", help="comma-separated inclusion rates")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--beta", type=float, default=0.4)
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
    argv = _with_config(argv)
    args = _build_parser()[0].parse_args(argv)
    try:
        return args.handler(args, argv)
    except (HyperwalkError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # out-of-range parameters are usage errors
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
