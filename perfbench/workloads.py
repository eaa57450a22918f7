"""The three workloads: their operations, inputs and correctness gates.

An operation is one ``schubres.cli.main(argv)`` call.  A workload's pass
is its fixed list of operations, made from the seed; ``check`` turns the
exit status and output of one operation into its item count (queries,
Bruhat pairs or suite cases) or raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from coxeter import RESTRICT_GROUPS, restrict_queries


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


@dataclass
class Op:
    label: str
    argv: list
    check: Callable[[int, str], int]


@dataclass
class Workload:
    name: str
    why: str
    #: Root systems built as part of set-up, as (family, rank).
    groups: tuple
    #: What an item is, in the plural, for the report.
    item: str
    ops: Callable  # (seed, out_dir) -> list[Op]


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- restrict


def _restrict_check(query):
    methods = {"chain", "billey"} | ({"typea"} if query["type"] == "A" else set())

    def check(rc, stdout):
        _require(rc == 0, f"exit status {rc}")
        payload = json.loads(stdout)
        _require(payload["agree"] is True, "methods disagree")
        _require(set(payload["values"]) == methods, "wrong set of methods")
        _require(
            (payload["u"], payload["v"]) == (query["u_canonical"], query["v_canonical"]),
            "echoed elements are not the canonical words of u and v",
        )
        values = list(payload["values"].values())
        _require(all(v == values[0] for v in values), "method values differ")
        terms = values[0]
        if query["below"]:
            # tau_u(v) is nonzero, homogeneous of degree l(u), with
            # nonnegative coefficients.
            _require(terms, "zero value for u below v")
            _require(
                all(
                    sum(t["exponents"]) == query["u_length"] and t["numerator"] > 0
                    for t in terms
                ),
                "value is not homogeneous of degree l(u) with positive terms",
            )
        else:
            _require(terms == [], "nonzero value for u not below v")
        return 1

    return check


def restrict_ops(seed, out_dir):
    """One ``restrict --method all --format json`` call per generated query."""
    queries = restrict_queries(seed)
    ops = []
    for q in queries:
        argv = [
            "restrict",
            "--type", q["type"],
            "--rank", str(q["rank"]),
            "--u", q["u"],
            "--v", q["v"],
            "--method", "all",
            "--format", "json",
        ]
        ops.append(Op(f"{q['type']}{q['rank']} u={q['u']} v={q['v']}", argv, _restrict_check(q)))
    return ops


# -- table

#: SHA-256 of ``table --format json`` and the Bruhat pairs u <= v of each
#: group, recorded at the seed commit.  A3, B3 and C3 are the byte-level
#: reference of the table output; A4 is the large one.
TABLES = {
    ("A", 3): ("aa929571b70bfefd78daff9bc7b6e46fc09f437c46d27ed1f7cc69c42f3517da", 213),
    ("B", 3): ("a399849f3f8d142d8cc6dfe9c76f686631594f627d4e3defc361ca75200cae4c", 847),
    ("C", 3): ("0f8dedc6442a09c0c06eceb5b5bb668cbb89aece552a8a7fa8bfb7b06b9f477f", 847),
    ("A", 4): ("f0a8ff2ee4a68d7f403d41bae13fc46ffc7326856f6330dae5c693af43c63d35", 3781),
}


def _table_check(path, digest, pairs):
    def check(rc, stdout):
        _require(rc == 0, f"exit status {rc}")
        with open(path, "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        os.remove(path)
        _require(got == digest, f"table digest {got} differs from the recorded one")
        return pairs

    return check


def table_ops(seed, out_dir):
    """Every group of TABLES once, in an order drawn from the seed."""
    groups = list(TABLES)
    random.Random(seed).shuffle(groups)
    path = os.path.join(out_dir, "table.json")
    ops = []
    for family, rank in groups:
        digest, pairs = TABLES[(family, rank)]
        argv = [
            "table",
            "--type", family,
            "--rank", str(rank),
            "--format", "json",
            "--out", path,
        ]
        ops.append(Op(f"table {family}{rank}", argv, _table_check(path, digest, pairs)))
    return ops


# -- verify

#: The gt suite's pairs and seeded points per pair.  It takes every Bruhat
#: pair of A3: pairs with long intervals have many more maximal chains
#: than the rest, so a sampled subset would make the run time depend on
#: which of them the seed draws.
GT_PAIRS = TABLES[("A", 3)][1]
GT_SAMPLES = 1

#: Case counts of each suite, recorded at the seed commit.
ORACLE_CASES = {("B", 3): 10032, ("C", 3): 10032}
GT_CASES = GT_PAIRS * GT_SAMPLES


def _verify_check(cases):
    def check(rc, stdout):
        payload = json.loads(stdout)
        _require(rc == 0 and payload["failures"] == [], "suite not ok")
        _require(
            payload["cases"] == cases,
            f"{payload['cases']} cases instead of the recorded {cases}",
        )
        return cases

    return check


def verify_ops(seed, out_dir):
    ops = []
    for (family, rank), cases in ORACLE_CASES.items():
        argv = ["verify", "--suite", "oracle", "--type", family, "--rank", str(rank)]
        ops.append(Op(f"oracle {family}{rank}", argv, _verify_check(cases)))
    argv = [
        "verify",
        "--suite", "gt",
        "--type", "A",
        "--rank", "3",
        "--pairs", str(GT_PAIRS),
        "--samples", str(GT_SAMPLES),
        "--seed", str(seed),
    ]
    ops.append(Op("gt A3", argv, _verify_check(GT_CASES)))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "restrict",
            "cold single queries: each builds a fresh root system, so the group "
            "and order layers dominate",
            RESTRICT_GROUPS,
            "queries",
            restrict_ops,
        ),
        Workload(
            "table",
            "bulk chain sums over all pairs of a group with caches filling, and "
            "the only large output",
            tuple(TABLES),
            "Bruhat pairs",
            table_ops,
        ),
        Workload(
            "verify",
            "the Billey subword sums and the numeric moment-map route that the "
            "other workloads barely touch",
            (("B", 3), ("C", 3), ("A", 3)),
            "suite cases",
            verify_ops,
        ),
    )
}
