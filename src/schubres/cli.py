"""Command-line surface: restrict, chains, subwords, verify and table.

Exit statuses: 0 success, 1 verification failure or method disagreement,
2 usage error, 3 internal error (an arithmetic invariant, an assertion
or a precondition failed inside the library).  Element inputs are words of
simple-reflection indices ("1,2,1") by default; in type A, pass
``--elements perm`` to use one-line permutations instead.
Disambiguation is always by flag, never by guessing at the string shape.
Ranks above ``MAX_RANK`` are refused as usage errors.

JSON output is byte-identical to ``json.dumps``: with an indent of 2
for the pair payloads of restrict, the listings of chains and subwords and
the suite results of verify, and compact (the default separators) for
table.  One writer, :func:`_write_json`, renders all of them; it prints
each polynomial term from a %-format built once per rank and nesting
depth, formats each distinct term once per output, and writes the table
to its output as it renders it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from . import verify as verify_mod
from .poly import FactoredPoly, Polynomial, expand, unpack
from .rootsys import LieType, build_root_system
from .schubert import (
    _prefix_roots,
    _tau_table,
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
    _tau_typea,
    element_to_perm,
    parse_oneline,
    perm_to_element,
    root_to_xdiff,
)
from .weyl import WeylElement, element_from_word, enumerate_elements

SCHEMA = "v1"
ENV_MAX_ORDER = "SCHUBERT_MAX_GROUP_ORDER"
#: Largest rank a command accepts: up to it, every value's degree
#: (at most |Phi+| = 225 in B15 and C15) fits a packed monomial
#: (``poly.MAX_DEGREE``), and a root system builds in well under a second.
MAX_RANK = 15


class UsageError(Exception):
    pass


def _parse_word(text: str):
    """A comma-separated word; ``e`` or nothing is the identity's empty
    word, as every output labels it."""
    text = text.strip()
    if text in ("", "e"):
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


def _lie_type(family: str, rank: int) -> LieType:
    try:
        lie_type = LieType(family, rank)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if rank > MAX_RANK:
        raise UsageError(f"rank {rank} exceeds the largest supported rank {MAX_RANK}")
    return lie_type


def _job(args, mismatch: str):
    """The reduced word for v and the elements u and v of a restrict,
    chains or subwords command, in a newly built root system.

    A ``--word`` is checked whether or not the command goes on to use it:
    its letters in range, reduced, and evaluating to v (else the usage
    error ``mismatch``).  Without one, the word is v's canonical word.
    """
    lie_type = _lie_type(args.type, args.rank)
    word = None if args.word is None else _parse_word(args.word)
    if lie_type.family != "A":
        if args.elements == "perm":
            raise UsageError("--elements perm requires type A")
        if getattr(args, "method", None) == "typea":
            raise UsageError("--method typea requires type A")
        if getattr(args, "basis", None) == "x":
            raise UsageError("--basis x requires type A")
    rs = build_root_system(lie_type)
    u = _parse_element(rs, args.u, args.elements)
    v = _parse_element(rs, args.v, args.elements)
    if word is None:
        return v.canonical_word, u, v
    try:
        _, target = _prefix_roots(rs, word)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if target != v:
        raise UsageError(mismatch)
    return word, u, v


def _header(args, u: WeylElement, v: WeylElement) -> dict:
    """The leading keys of every JSON payload about one pair."""
    return {
        "schema": SCHEMA,
        "type": str(u.rs.lie_type),
        "u": _element_label(u, args.elements),
        "v": _element_label(v, args.elements),
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


@functools.lru_cache(maxsize=None)
def _term_format(rank: int, level):
    """The %-format of one term ``{exponents, numerator, denominator}`` of
    a polynomial of ``rank`` variables, as ``json.dumps`` with an indent
    of 2 prints it in a list nested ``level`` deep (its leading newline and
    indentation included), or as ``json.dumps`` prints it when ``level``
    is None.  It takes the exponents, the numerator and the denominator."""
    if level is None:
        exponents = "[" + ", ".join(["%d"] * rank) + "]"
        return '{"exponents": ' + exponents + ', "numerator": %d, "denominator": %d}'
    item = "\n" + "  " * (level + 1)
    key = item + "  "
    exponents = "[" + ",".join([key + "  %d"] * rank) + key + "]" if rank else "[]"
    return (
        item + "{" + key + '"exponents": ' + exponents + ","
        + key + '"numerator": %d,' + key + '"denominator": %d' + item + "}"
    )


def _polynomial_json(p: Polynomial, level, rendered: dict) -> str:
    """``p.to_json()`` as :func:`_write_json` prints it, with no
    intermediate dict.  ``rendered[level, rank, den]`` maps the packed key
    and numerator of each term already printed at that depth to its text,
    so each distinct term of one output is formatted once."""
    if not p.terms:
        return "[]"
    rank, terms, den = p.rank, p.terms, p.den
    texts = rendered.get((level, rank, den))
    if texts is None:
        texts = rendered[level, rank, den] = {}
    pieces = []
    for key in p._sorted_keys():
        n = terms[key]
        text = texts.get((key, n))
        if text is None:
            g = math.gcd(n, den)
            text = texts[key, n] = _term_format(rank, level) % (
                *unpack(key, rank), n // g, den // g
            )
        pieces.append(text)
    if level is None:
        return "[" + ", ".join(pieces) + "]"
    return "[" + ",".join(pieces) + "\n" + "  " * level + "]"


def _write_json(obj, write, level=0, rendered=None):
    """Write ``obj`` through ``write`` as ``json.dumps`` with an indent of
    2 prints it when nested ``level`` deep, or as ``json.dumps(obj)`` when
    ``level`` is None, with a ``Polynomial`` standing for its
    ``to_json()`` list.  It takes None, bools, ints, strings, lists and
    dicts with string keys; anything else raises ``TypeError``.  The
    polynomial terms rendered so far (see :func:`_polynomial_json`) are
    kept for one top-level call: one output."""
    if rendered is None:
        rendered = {}
    if isinstance(obj, Polynomial):
        write(_polynomial_json(obj, level, rendered))
    elif isinstance(obj, str):
        write(encode_basestring_ascii(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, (list, dict)):
        opening, closing = "[]" if isinstance(obj, list) else "{}"
        if not obj:
            write(opening + closing)
            return
        inner = None if level is None else level + 1
        newline = "" if level is None else "\n" + "  " * inner
        comma = "," + (newline or " ")
        sep = opening + newline
        if isinstance(obj, list):
            for item in obj:
                write(sep)
                _write_json(item, write, inner, rendered)
                sep = comma
        else:
            for key, value in obj.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                write(sep + encode_basestring_ascii(key) + ": ")
                _write_json(value, write, inner, rendered)
                sep = comma
        write(("" if level is None else "\n" + "  " * level) + closing)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """``obj`` as ``json.dumps`` with an indent of 2 prints it, by
    :func:`_write_json`."""
    parts = []
    _write_json(obj, parts.append)
    return "".join(parts)


@contextlib.contextmanager
def _output(out: str | None):
    """The stream a command writes to: the file ``out``, or stdout, flushed
    here.  A closed stdout is a usage error, and fd 1 then points at the
    null device, so that the flush at exit cannot fail again."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                yield fh
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc.strerror}") from None
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError as exc:
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), fd)
        raise UsageError(f"cannot write to standard output: {exc.strerror}") from None


def _emit(text: str, out: str | None):
    with _output(out) as fh:
        fh.write(text)
        fh.write("\n")


def _positive_int(text: str) -> int:
    """An argparse type for counts: a suite given 0 samples checks nothing."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _max_order():
    """The group order cap set in the environment, or None for the
    library's default."""
    raw = os.environ.get(ENV_MAX_ORDER)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise UsageError(f"{ENV_MAX_ORDER} must be a positive integer, got {raw!r}")
    return value


def _elements(rs):
    """Every element of ``rs``, refused over the group order cap."""
    max_order = _max_order()
    try:
        return enumerate_elements(rs, max_order)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_restrict(args) -> int:
    word, u, v = _job(args, "word does not evaluate to v")
    methods = (
        ["chain", "billey"] + (["typea"] if u.rs.lie_type.family == "A" else [])
        if args.method == "all"
        else [args.method]
    )
    values: dict[str, Polynomial] = {}
    for method in methods:
        if method == "chain":
            values[method] = tau_chain(u, v)
        elif method == "billey":
            values[method] = tau_billey(u, v, word)
        else:
            values[method] = _tau_typea(u, v)
    agree = len(set(values.values())) == 1
    if args.format == "json":
        payload = {
            **_header(args, u, v),
            "values": values,
            "agree": agree,
        }
        _emit(_dumps(payload), args.out)
    else:
        lines = []
        for method, p in values.items():
            rendered = p.to_latex() if args.format == "latex" else p.to_text()
            if len(methods) > 1:
                lines.append(f"{method}: {rendered}")
            else:
                lines.append(rendered)
        if len(methods) > 1:
            lines.append(f"verdict: {'AGREE' if agree else 'DISAGREE'}")
        _emit("\n".join(lines), args.out)
    return 0 if agree else 1


def cmd_chains(args) -> int:
    word, u, v = _job(args, "chain does not end at the element of the word")
    chains = enumerate_max_chains(u, v)
    in_c0 = set(enumerate_c0(u, v))
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
            record["contribution"] = expand(contribution)
        if args.map_to_subwords:
            record["subword"] = list(f_i_map(gamma, word).display())
        records.append((record, contribution))
    if args.format == "json":
        payload = {
            **_header(args, u, v),
            "sigma_count": len(chains),
            "c0_count": len(in_c0),
            "chains": [r for r, _ in records],
        }
        _emit(_dumps(payload), args.out)
    else:
        lines = [
            f"{len(chains)} maximal chain(s) from "
            f"{_element_label(u, args.elements)} to {_element_label(v, args.elements)}"
            f" ({len(in_c0)} h-monotone)"
        ]
        for idx, (record, contribution) in enumerate(records, 1):
            flag = " [C0]" if record["in_c0"] else ""
            steps = []
            for el_word, beta in zip(record["elements"], record["betas"]):
                steps.append("[" + ",".join(map(str, el_word)) + "]")
                beta_text = Polynomial.from_linear(beta).to_text()
                if args.basis == "x":
                    a, b = root_to_xdiff(beta)
                    beta_text = f"x{a}-x{b}"
                steps.append(f"-({beta_text})->")
            steps.append("[" + ",".join(map(str, record["elements"][-1])) + "]")
            lines.append(f"chain {idx}{flag}: " + " ".join(steps))
            if contribution is not None:
                lines.append(
                    f"  contribution: {_factored_text(contribution, args.basis)}"
                )
            if "subword" in record:
                lines.append(f"  subword: {record['subword']}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_subwords(args) -> int:
    word, u, v = _job(args, "--word does not evaluate to v")
    rs = u.rs
    records = []
    for sub in enumerate_reduced_subwords(u, word):
        contribution = subword_contribution(rs, sub)
        records.append((sub, contribution))
    if args.format == "json":
        payload = {
            **_header(args, u, v),
            "word": list(word),
            "count": len(records),
            "subwords": [
                {
                    "mask": list(sub.mask),
                    "letters": list(sub.display()),
                    "contribution": expand(contribution),
                }
                for sub, contribution in records
            ],
        }
        _emit(_dumps(payload), args.out)
    else:
        lines = [
            f"{len(records)} reduced subword(s) of {list(word)} for "
            f"{_element_label(u, args.elements)}"
        ]
        for sub, contribution in records:
            lines.append(
                f"{list(sub.display())}  SC = {_factored_text(contribution, args.basis)}"
            )
        _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    name = args.suite
    try:
        runner = verify_mod.SUITES[name]
    except KeyError:
        raise UsageError(
            f"unknown suite {name!r}; choose from {sorted(verify_mod.SUITES)}"
        )
    reads = inspect.signature(runner).parameters
    flags = {}
    for flag in ("samples", "pairs", "seed"):
        if getattr(args, flag) is not None:
            if flag not in reads:
                raise UsageError(f"--{flag} does not apply to suite {name}")
            flags[flag] = getattr(args, flag)
    family = verify_mod.SUITE_TYPE.get(name, args.type)
    if family is None:
        raise UsageError("--type is required for this suite")
    if args.type not in (None, family):
        raise UsageError(f"--suite {name} requires type {family}")
    default = verify_mod.default_rank(name, family)
    rank = default if args.rank is None else args.rank
    rs = build_root_system(_lie_type(family, rank))
    _elements(rs)
    result = runner(rs, **flags)
    _emit(_dumps(result.to_json()), args.out)
    return 0 if result.ok else 1


def cmd_table(args) -> int:
    lie_type = _lie_type(args.type, args.rank)
    rs = build_root_system(lie_type)
    elements = _elements(rs)
    labels = [_element_label(el, "word") for el in elements]
    rows = [list(row.values()) for row in _tau_table(elements).values()]
    # Written as it is rendered, so the table's text is never held whole.
    with _output(args.out) as fh:
        if args.format == "json":
            payload = {
                "schema": SCHEMA,
                "type": str(lie_type),
                "elements": labels,
                "values": rows,
            }
            _write_json(payload, fh.write, None)
            fh.write("\n")
        elif args.format == "latex":
            fh.write("\\begin{tabular}{l|" + "l" * len(labels) + "}\n")
            header = " & ".join(f"${lbl}$" for lbl in labels)
            fh.write(f" & {header} \\\\ \\hline\n")
            for lbl, row in zip(labels, rows):
                cells = " & ".join(f"${p.to_latex()}$" for p in row)
                fh.write(f"${lbl}$ & {cells} \\\\\n")
            fh.write("\\end{tabular}\n")
        else:
            for lbl, row in zip(labels, rows):
                for vlbl, p in zip(labels, row):
                    if p:
                        fh.write(f"tau[{lbl}]({vlbl}) = {p.to_text()}\n")
    return 0


def _add_common_element_args(parser, need_uv=True, formats=("text", "json", "latex")):
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
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--out", help="write output to a file instead of stdout")


@functools.cache
def build_parser():
    """The parser of every command, built on the first call (not at
    import) and then reused: parsing leaves it unchanged."""
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
    _add_common_element_args(p, formats=("text", "json"))
    p.add_argument("--basis", choices=["alpha", "x"], default="alpha")
    p.add_argument(
        "--map-to-subwords",
        action="store_true",
        help="also print the subword image of each chain",
    )
    p.add_argument(
        "--word",
        help="reduced word for v used for the subword map (default: the "
        "lexicographically least; the type-A bijection of the paper holds "
        "for the descending-run word, typea.canonical_word_iv)",
    )
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("subwords", help="list reduced subwords and contributions")
    _add_common_element_args(p, formats=("text", "json"))
    p.add_argument("--basis", choices=["alpha", "x"], default="alpha")
    p.add_argument("--word", help="reduced word for v (default: canonical)")
    p.set_defaults(func=cmd_subwords)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, help=", ".join(sorted(verify_mod.SUITES)))
    p.add_argument("--type", choices=["A", "B", "C"])
    small = [s for s in verify_mod.SUITES if verify_mod.default_rank(s, "A") == 3]
    p.add_argument(
        "--rank",
        type=int,
        help="defaults to 4 in type A and 3 in types B/C; "
        f"{' and '.join(small)} default to 3",
    )
    reads = {s: inspect.signature(f).parameters for s, f in verify_mod.SUITES.items()}
    for flag in ("samples", "pairs", "seed"):
        kind = int if flag == "seed" else _positive_int
        readers = ", ".join(s for s, params in reads.items() if flag in params)
        p.add_argument(f"--{flag}", type=kind, help=f"read by suites {readers}")
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError, ValueError) as exc:
        print(
            f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
