"""Recompute the rank-aggregation summary from its trial rows with the
standard library alone, so that the check runs on a Python without numpy::

    hyperwalk rankagg --json > run.json        # on a Python with numpy
    python3.13 tests/summary_sum.py run.json   # on any Python >= 3.10

Each summary row's mean and std of tau_weighted are formed as the
experiment forms them, with each sum taken two ways: left to right by
``functools.reduce(operator.add, ...)``, as ``core._add_in_order`` adds,
and by the builtin ``sum()``, which Python 3.12 and later compensate
(Neumaier). The script prints how many rows each reproduces bit for bit
and exits 1 if the left-to-right sum misses one.
"""

import functools
import json
import math
import operator
import platform
import sys


def in_order(values) -> float:
    """values[0] + values[1] + ..., left to right."""
    return functools.reduce(operator.add, values)


def mismatches(doc: dict, add) -> list:
    """(method, p) of each summary row of a ``rankagg --json`` document
    whose mean or std comes out with other bits when summed by `add`."""
    bad = []
    for row in doc["summary"]:
        taus = [r["tau_weighted"] for r in doc["trials"]
                if r["method"] == row["method"] and r["p"] == row["p"]]
        mean = add([0.0, *taus]) / len(taus)
        var = add([0.0, *[(x - mean) ** 2 for x in taus]]) / len(taus)
        if (mean, math.sqrt(var)) != (row["mean_tau_weighted"], row["std_tau_weighted"]):
            bad.append((row["method"], row["p"]))
    return bad


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = len(doc["summary"])
    ordered, builtin = mismatches(doc, in_order), mismatches(doc, sum)
    print(f"Python {platform.python_version()}: left to right reproduces "
          f"{rows - len(ordered)} of {rows} rows, sum() {rows - len(builtin)} of {rows}")
    return 1 if ordered else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
