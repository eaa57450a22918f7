"""Command-line surface: restrict, chains, subwords, verify and table.

Exit statuses: 0 success, 1 verification failure or method disagreement,
2 usage error, 3 internal error (an arithmetic invariant or an assertion
failed inside the library).  Element inputs are words of
simple-reflection indices ("1,2,1") by default; in type A, pass
``--elements perm`` to use one-line permutations instead.
Disambiguation is always by flag, never by guessing at the string shape.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import verify as verify_mod
from .poly import FactoredPoly, Polynomial, expand
from .rootsys import LieType, build_root_system
from .schubert import (
    chain_contribution,
    enumerate_c0,
    enumerate_max_chains,
    enumerate_reduced_subwords,
    f_i_map,
    subword_contribution,
    tau_billey,
    tau_chain,
)
from .typea import (
    element_to_perm,
    parse_oneline,
    perm_to_element,
    root_to_xdiff,
    tau_typea,
)
from .weyl import (
    DEFAULT_MAX_GROUP_ORDER,
    WeylElement,
    element_from_word,
    enumerate_elements,
)

SCHEMA = "v1"
ENV_MAX_ORDER = "SCHUBERT_MAX_GROUP_ORDER"


class UsageError(Exception):
    pass


@dataclass
class JobSpec:
    """Validated input for one computation command."""

    lie_type: LieType
    u_text: str
    v_text: str
    elements: str = "word"  # or "perm"
    method: str = "chain"
    fmt: str = "text"
    word: tuple | None = None
    basis: str = "alpha"

    def __post_init__(self):
        if self.elements not in ("word", "perm"):
            raise UsageError("--elements must be 'word' or 'perm'")
        if self.elements == "perm" and self.lie_type.family != "A":
            raise UsageError("--elements perm requires type A")
        if self.method not in ("chain", "billey", "typea", "all"):
            raise UsageError(f"unknown method {self.method!r}")
        if self.method == "typea" and self.lie_type.family != "A":
            raise UsageError("--method typea requires type A")
        if self.basis not in ("alpha", "x"):
            raise UsageError("--basis must be 'alpha' or 'x'")
        if self.basis == "x" and self.lie_type.family != "A":
            raise UsageError("--basis x requires type A")


def _parse_word(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse word {text!r}: {exc}") from None


def _parse_element(rs, text: str, elements: str) -> WeylElement:
    if elements == "perm":
        try:
            perm = parse_oneline(text)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if len(perm) != rs.rank + 1:
            raise UsageError(
                f"permutation {text!r} has {len(perm)} values; "
                f"type A rank {rs.rank} needs {rs.rank + 1}"
            )
        return perm_to_element(rs, perm)
    word = _parse_word(text)
    try:
        el = element_from_word(rs, word)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if el.length != len(word):
        raise UsageError(f"word {','.join(map(str, word))!r} is not reduced")
    return el


def _job(args):
    """The validated spec of a restrict, chains or subwords command and
    its elements u and v, in a newly built root system."""
    spec = JobSpec(
        lie_type=LieType(args.type, args.rank),
        u_text=args.u,
        v_text=args.v,
        elements=args.elements,
        method=getattr(args, "method", "chain"),
        fmt=args.format,
        word=_parse_word(args.word) if args.word else None,
        basis=getattr(args, "basis", "alpha"),
    )
    rs = build_root_system(spec.lie_type)
    u = _parse_element(rs, spec.u_text, spec.elements)
    v = _parse_element(rs, spec.v_text, spec.elements)
    return spec, u, v


def _header(spec: JobSpec, u: WeylElement, v: WeylElement) -> dict:
    """The leading keys of every JSON payload about one pair."""
    return {
        "schema": SCHEMA,
        "type": str(spec.lie_type),
        "u": _element_label(u, spec.elements),
        "v": _element_label(v, spec.elements),
    }


def _element_label(u: WeylElement, elements: str) -> str:
    if elements == "perm":
        return "".join(str(x) for x in element_to_perm(u))
    return ",".join(map(str, u.canonical_word)) or "e"


def _factored_text(f: FactoredPoly, basis: str) -> str:
    parts = []
    if f.scalar != 1 or not f.factors:
        parts.append(str(f.scalar))
    for form in f.factors:
        if basis == "x":
            a, b = root_to_xdiff(form)
            parts.append(f"(x{a}-x{b})")
        else:
            parts.append("(" + Polynomial.from_linear(form).to_text() + ")")
    return "*".join(parts)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _max_order():
    raw = os.environ.get(ENV_MAX_ORDER)
    if raw is None:
        return DEFAULT_MAX_GROUP_ORDER
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise UsageError(f"{ENV_MAX_ORDER} must be a positive integer, got {raw!r}")
    return value


def cmd_restrict(args) -> int:
    spec, u, v = _job(args)
    methods = (
        ["chain", "billey"] + (["typea"] if spec.lie_type.family == "A" else [])
        if spec.method == "all"
        else [spec.method]
    )
    values: dict[str, Polynomial] = {}
    for method in methods:
        if method == "chain":
            values[method] = tau_chain(u, v)
        elif method == "billey":
            try:
                values[method] = tau_billey(u, v, spec.word)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        else:
            values[method] = tau_typea(element_to_perm(u), element_to_perm(v))
    agree = len(set(values.values())) == 1
    if spec.fmt == "json":
        payload = {
            **_header(spec, u, v),
            "values": {m: p.to_json() for m, p in values.items()},
            "agree": agree,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = []
        for method, p in values.items():
            rendered = p.to_latex() if spec.fmt == "latex" else p.to_text()
            if len(methods) > 1:
                lines.append(f"{method}: {rendered}")
            else:
                lines.append(rendered)
        if len(methods) > 1:
            lines.append(f"verdict: {'AGREE' if agree else 'DISAGREE'}")
        _emit("\n".join(lines), args.out)
    return 0 if agree else 1


def cmd_chains(args) -> int:
    spec, u, v = _job(args)
    chains = enumerate_max_chains(u, v)
    in_c0 = set(enumerate_c0(u, v))
    map_word = spec.word if args.map_to_subwords else None
    if map_word is None and args.map_to_subwords:
        map_word = v.canonical_word
    records = []
    for gamma in chains:
        record = {
            "elements": [list(el.canonical_word) for el in gamma.elements],
            "betas": [list(b) for b in gamma.betas],
            "in_c0": gamma in in_c0,
            "contribution": None,
        }
        contribution = None
        if gamma in in_c0:
            contribution = chain_contribution(gamma, v)
            record["contribution"] = expand(contribution).to_json()
        if map_word is not None:
            record["subword"] = list(f_i_map(gamma, map_word).display())
        records.append((record, contribution))
    if spec.fmt == "json":
        payload = {
            **_header(spec, u, v),
            "sigma_count": len(chains),
            "c0_count": len(in_c0),
            "chains": [r for r, _ in records],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"{len(chains)} maximal chain(s) from "
            f"{_element_label(u, spec.elements)} to {_element_label(v, spec.elements)}"
            f" ({len(in_c0)} h-monotone)"
        ]
        for idx, (record, contribution) in enumerate(records, 1):
            flag = " [C0]" if record["in_c0"] else ""
            steps = []
            for el_word, beta in zip(record["elements"], record["betas"]):
                steps.append("[" + ",".join(map(str, el_word)) + "]")
                beta_text = Polynomial.from_linear(beta).to_text()
                if spec.basis == "x":
                    a, b = root_to_xdiff(beta)
                    beta_text = f"x{a}-x{b}"
                steps.append(f"-({beta_text})->")
            steps.append("[" + ",".join(map(str, record["elements"][-1])) + "]")
            lines.append(f"chain {idx}{flag}: " + " ".join(steps))
            if contribution is not None:
                lines.append(
                    f"  contribution: {_factored_text(contribution, spec.basis)}"
                )
            if "subword" in record:
                lines.append(f"  subword: {record['subword']}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_subwords(args) -> int:
    spec, u, v = _job(args)
    rs = u.rs
    word = spec.word if spec.word is not None else v.canonical_word
    try:
        subwords = enumerate_reduced_subwords(u, word)
        target = element_from_word(rs, word)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if target != v:
        raise UsageError("--word does not evaluate to v")
    records = []
    for sub in subwords:
        contribution = subword_contribution(rs, sub)
        records.append((sub, contribution))
    if spec.fmt == "json":
        payload = {
            **_header(spec, u, v),
            "word": list(word),
            "count": len(records),
            "subwords": [
                {
                    "mask": list(sub.mask),
                    "letters": list(sub.display()),
                    "contribution": expand(contribution).to_json(),
                }
                for sub, contribution in records
            ],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"{len(records)} reduced subword(s) of {list(word)} for "
            f"{_element_label(u, spec.elements)}"
        ]
        for sub, contribution in records:
            lines.append(
                f"{list(sub.display())}  SC = {_factored_text(contribution, spec.basis)}"
            )
        _emit("\n".join(lines), args.out)
    return 0


def _suite_runner(args):
    name = args.suite
    if name == "equivalence-typeA":
        rank = args.rank if args.rank is not None else 3
        return verify_mod.suite_equivalence_typea(
            rank + 1, pair_sample=args.pairs, seed=args.seed
        )
    try:
        runner = verify_mod.SUITES[name]
    except KeyError:
        raise UsageError(
            f"unknown suite {name!r}; choose from "
            f"{sorted(verify_mod.SUITES) + ['equivalence-typeA']}"
        )
    if args.type is None:
        raise UsageError("--type is required for this suite")
    # Desk-scale defaults: rank 4 in type A, rank 3 in types B and C.
    rank = args.rank if args.rank is not None else (4 if args.type == "A" else 3)
    rs = build_root_system(LieType(args.type, rank))
    enumerate_elements(rs, _max_order())
    if name == "gt":
        return runner(rs, samples=args.samples, seed=args.seed, pair_sample=args.pairs)
    return runner(rs)


def cmd_verify(args) -> int:
    result = _suite_runner(args)
    _emit(json.dumps(result.to_json(), indent=2), args.out)
    return 0 if result.ok else 1


def cmd_table(args) -> int:
    lie_type = LieType(args.type, args.rank)
    rs = build_root_system(lie_type)
    elements = enumerate_elements(rs, _max_order())
    labels = [_element_label(el, "word") for el in elements]
    rows = []
    for u in elements:
        rows.append([tau_chain(u, v) for v in elements])
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "type": str(lie_type),
            "elements": labels,
            "values": [[p.to_json() for p in row] for row in rows],
        }
        _emit(json.dumps(payload), args.out)
    elif args.format == "latex":
        lines = ["\\begin{tabular}{l|" + "l" * len(labels) + "}"]
        lines.append(
            " & " + " & ".join(f"${lbl}$" for lbl in labels) + " \\\\ \\hline"
        )
        for lbl, row in zip(labels, rows):
            lines.append(
                f"${lbl}$ & " + " & ".join(f"${p.to_latex()}$" for p in row) + " \\\\"
            )
        lines.append("\\end{tabular}")
        _emit("\n".join(lines), args.out)
    else:
        lines = []
        for lbl, row in zip(labels, rows):
            for vlbl, p in zip(labels, row):
                if p:
                    lines.append(f"tau[{lbl}]({vlbl}) = {p.to_text()}")
        _emit("\n".join(lines), args.out)
    return 0


def _add_common_element_args(parser, need_uv=True):
    parser.add_argument("--type", required=True, choices=["A", "B", "C"])
    parser.add_argument("--rank", required=True, type=int)
    if need_uv:
        parser.add_argument("--u", required=True, help="bottom element")
        parser.add_argument("--v", required=True, help="top element")
        parser.add_argument(
            "--elements",
            choices=["word", "perm"],
            default="word",
            help="how --u/--v are written: a word of simple-reflection "
            "indices (default) or, in type A, a one-line permutation",
        )
    parser.add_argument("--format", choices=["text", "json", "latex"], default="text")
    parser.add_argument("--out", help="write output to a file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schubres",
        description="Exact restrictions of equivariant Schubert classes "
        "in Weyl groups of types A, B, C.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("restrict", help="compute one restriction")
    _add_common_element_args(p)
    p.add_argument(
        "--method", choices=["chain", "billey", "typea", "all"], default="chain"
    )
    p.add_argument("--word", help="reduced word for v used by the subword method")
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("chains", help="list maximal ascending chains")
    _add_common_element_args(p)
    p.add_argument("--basis", choices=["alpha", "x"], default="alpha")
    p.add_argument(
        "--map-to-subwords",
        action="store_true",
        help="also print the subword image of each chain",
    )
    p.add_argument("--word", help="reduced word for v used for the subword map")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("subwords", help="list reduced subwords and contributions")
    _add_common_element_args(p)
    p.add_argument("--basis", choices=["alpha", "x"], default="alpha")
    p.add_argument("--word", help="reduced word for v (default: canonical)")
    p.set_defaults(func=cmd_subwords)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--type", choices=["A", "B", "C"])
    p.add_argument(
        "--rank",
        type=int,
        default=None,
        help="defaults to 4 in type A and 3 in types B/C",
    )
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="tabulate all restrictions of a group")
    _add_common_element_args(p, need_uv=False)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print(
            f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
