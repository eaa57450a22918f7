"""Command-line interface: output formats, agreement verdicts, exit codes."""

import errno
import hashlib
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubres import cli, schubert, typea, verify, weyl
from schubres.cli import main
from schubres.poly import CancellationError, Polynomial
from schubres.rootsys import LieType, build_root_system, root_system
from schubres.schubert import tau_chain
from schubres.weyl import element_from_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRestrict:
    def test_a2_simple_value(self, capsys):
        code, out, _ = run(
            capsys,
            "restrict", "--type", "A", "--rank", "2", "--u", "1", "--v", "1,2,1",
        )
        assert code == 0
        assert out.strip() == "a1 + a2"

    def test_method_all_agrees(self, capsys):
        code, out, _ = run(
            capsys,
            "restrict", "--type", "A", "--rank", "3",
            "--u", "2143", "--v", "3421", "--elements", "perm", "--method", "all",
        )
        assert code == 0
        assert "verdict: AGREE" in out
        assert out.count("a1^2 + 2*a1*a2 + a1*a3 + a2^2 + a2*a3") == 3

    # SHA-256 of each command's output on A3, recorded while the type-A
    # route still ran on a second, process-wide system.
    OWN_SYSTEM_DIGESTS = {
        ("restrict", "--u", "1,3", "--v", "2,1,3,2,3", "--method", "all",
         "--format", "json"):
            "262fd67b361eb1c29572fae3aa8d70f1062a695440edef19398f6ee02826216b",
        ("restrict", "--u", "1,3", "--v", "2,1,3,2,3", "--method", "typea",
         "--format", "json"):
            "c7ba1c090fe819ae49f800637eb74abb88c2e5be4276ecce73e6aa5ba6979e51",
        ("verify", "--suite", "oracle"):
            "f22f9411ac03d7139e26be170e379b6505b6e480e7a8d1a05a0098f7c8c3079e",
    }

    @pytest.mark.parametrize("argv", sorted(OWN_SYSTEM_DIGESTS))
    def test_type_a_route_runs_on_the_jobs_own_system(
        self, capsys, monkeypatch, argv
    ):
        def shared_system(*args):
            raise AssertionError("the type-A route asked for a shared system")

        monkeypatch.setattr(typea, "typea_system", shared_system)
        monkeypatch.setattr(typea, "root_system", shared_system)
        rank = "2" if argv[0] == "verify" else "3"
        code, out, err = run(capsys, *argv, "--type", "A", "--rank", rank)
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.OWN_SYSTEM_DIGESTS[argv]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_identity_label_reads_back(self, capsys, fmt):
        outputs = [
            run(
                capsys,
                "restrict", "--type", "A", "--rank", "2", "--u", label,
                "--v", "1,2,1", "--method", "all", "--format", fmt,
            )
            for label in ("e", "", " e ")
        ]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1] == outputs[2]

    def test_b2_chain_method(self, capsys):
        code, out, _ = run(
            capsys,
            "restrict", "--type", "B", "--rank", "2",
            "--u", "2", "--v", "1,2,1", "--method", "chain",
        )
        assert code == 0
        assert out.strip() == "a1 + a2"

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(
            capsys,
            "restrict", "--type", "C", "--rank", "2",
            "--u", "1", "--v", "1,2,1,2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "v1"
        rs = root_system("C", 2)
        u = element_from_word(rs, (1,))
        v = element_from_word(rs, (1, 2, 1, 2))
        parsed = Polynomial.from_json(payload["values"]["chain"], rank=2)
        assert parsed == tau_chain(u, v)

    def test_latex_format(self, capsys):
        code, out, _ = run(
            capsys,
            "restrict", "--type", "A", "--rank", "2",
            "--u", "1", "--v", "1,2,1", "--format", "latex",
        )
        assert code == 0
        assert out.strip() == "\\alpha_{1} + \\alpha_{2}"

    def test_billey_with_explicit_word(self, capsys):
        code, out, _ = run(
            capsys,
            "restrict", "--type", "A", "--rank", "3",
            "--u", "2143", "--v", "3421", "--elements", "perm",
            "--method", "billey", "--word", "2,1,3,2,3",
        )
        assert code == 0
        assert out.strip() == "a1^2 + 2*a1*a2 + a1*a3 + a2^2 + a2*a3"

    def test_method_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "tau_billey", lambda u, v, word: Polynomial.one(u.rs.rank)
        )
        code, out, _ = run(
            capsys,
            "restrict", "--type", "A", "--rank", "2",
            "--u", "1", "--v", "1,2,1", "--method", "all",
        )
        assert code == 1
        assert out.splitlines() == [
            "chain: a1 + a2", "billey: 1", "typea: a1 + a2", "verdict: DISAGREE",
        ]

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(p, beta, v, index):
            raise CancellationError("no factor is proportional")

        monkeypatch.setattr(schubert, "_edge_term", broken)
        code, out, err = run(
            capsys,
            "restrict", "--type", "B", "--rank", "2", "--u", "2", "--v", "1,2,1",
        )
        assert code == 3
        assert out == ""
        assert err == (
            "error: internal error: CancellationError: no factor is proportional\n"
        )
        assert "Traceback" not in err

    def test_odd_doubled_edge_term_exits_3(self, capsys, monkeypatch):
        # The one h-monotone chain from s1 to s1s2s1 in A2 has two edges,
        # so its doubled edge terms must multiply to a multiple of 2^2.
        real = schubert._edge_term

        def odd(p, beta, v, index):
            idx, doubled = real(p, beta, v, index)
            return idx, doubled + 1 if p.length == 1 else doubled

        monkeypatch.setattr(schubert, "_edge_term", odd)
        # A new system, so that no cached column holds the real terms.
        rs = build_root_system(LieType("A", 2))
        u, v = element_from_word(rs, (1,)), element_from_word(rs, (1, 2, 1))
        assert len(schubert.enumerate_c0(u, v)) == 1
        with pytest.raises(CancellationError, match="not divisible by 2"):
            tau_chain(u, v)
        code, out, err = run(
            capsys,
            "restrict", "--type", "A", "--rank", "2", "--u", "1", "--v", "1,2,1",
            "--method", "chain",
        )
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: internal error: CancellationError: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("restrict", "--type", "A", "--rank", "2", "--u", "", "--v", "1,2,1"),
            ("chains", "--type", "A", "--rank", "2", "--u", "", "--v", "1,2,1"),
            ("verify", "--suite", "gt", "--type", "A", "--rank", "2", "--samples", "1"),
            ("table", "--type", "A", "--rank", "2"),
            ("verify", "--suite", "oracle", "--type", "A", "--rank", "2"),
        ],
        ids=["restrict", "chains", "verify-gt", "table", "verify-oracle"],
    )
    def test_broken_chain_edge_exits_3(self, capsys, monkeypatch, argv):
        real = schubert.covers_above

        def swapped(u):
            # The covers of the identity with their roots exchanged: each
            # edge is a cover, but not the reflection by its root.
            covers = real(u)
            if u.length:
                return covers
            return tuple(
                (beta, w) for (beta, _), (_, w) in zip(covers, covers[::-1])
            )

        monkeypatch.setattr(schubert, "covers_above", swapped)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: internal error: AssertionError: ")
        assert "not a right reflection" in lines[0]
        assert "Traceback" not in err

    def test_broken_edge_in_the_moment_map_sum_exits_3(self, capsys, monkeypatch):
        real = schubert.covers_above

        def swapped(u):
            covers = real(u)
            if u.length:
                return covers
            return tuple(
                (beta, w) for (beta, _), (_, w) in zip(covers, covers[::-1])
            )

        # The fill's column values are stubbed out, so the chain route walks
        # no cover and the broken edge is met by the moment-map path sum
        # alone.
        valued = []

        def stub(column, u):
            valued.append((u, column.v))
            return Polynomial.zero(2)

        monkeypatch.setattr(schubert._ChainColumn, "value", stub)
        monkeypatch.setattr(schubert, "covers_above", swapped)
        code, out, err = run(
            capsys,
            "verify", "--suite", "gt", "--type", "A", "--rank", "2", "--samples", "1",
        )
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: internal error: AssertionError: ")
        assert "not a right reflection" in lines[0]
        assert valued


class TestChains:
    def test_c2_counts_and_subword_images(self, capsys):
        code, out, _ = run(
            capsys,
            "chains", "--type", "C", "--rank", "2",
            "--u", "1", "--v", "1,2,1,2",
            "--map-to-subwords", "--word", "1,2,1,2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "v1"
        assert payload["sigma_count"] == 4
        assert payload["c0_count"] == 1
        masks = [tuple(c["subword"]) for c in payload["chains"]]
        assert masks.count((0, 0, 1, 0)) == 3
        assert masks.count((1, 0, 0, 0)) == 1
        surviving = [c for c in payload["chains"] if c["in_c0"]]
        assert len(surviving) == 1
        assert surviving[0]["contribution"] is not None
        non_surviving = [c for c in payload["chains"] if not c["in_c0"]]
        assert all(c["contribution"] is None for c in non_surviving)

    def test_a2_text_listing(self, capsys):
        code, out, _ = run(
            capsys,
            "chains", "--type", "A", "--rank", "2", "--u", "1", "--v", "1,2,1",
        )
        assert code == 0
        assert "2 maximal chain(s)" in out
        assert "(1 h-monotone)" in out
        assert "contribution: (a1 + a2)" in out

    def test_x_basis_rendering(self, capsys):
        code, out, _ = run(
            capsys,
            "chains", "--type", "A", "--rank", "3",
            "--u", "2143", "--v", "3421", "--elements", "perm", "--basis", "x",
        )
        assert code == 0
        assert "(x1-x3)" in out and "(x2-x4)" in out

    def test_non_reduced_element_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "chains", "--type", "B", "--rank", "2", "--u", "1,1", "--v", "1,2,1",
        )
        assert (code, out) == (2, "")
        assert err == "error: word '1,1' is not reduced\n"


    def test_latex_is_refused(self, capsys):
        # The listing has no LaTeX rendering, so the choice is not offered.
        with pytest.raises(SystemExit) as exc:
            main([
                "chains", "--type", "A", "--rank", "2", "--u", "1", "--v", "1,2,1",
                "--format", "latex",
            ])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --format: invalid choice: 'latex'" in captured.err


class TestSubwords:
    def test_a3_masks_and_contributions(self, capsys):
        code, out, _ = run(
            capsys,
            "subwords", "--type", "A", "--rank", "3",
            "--u", "2143", "--v", "3421", "--elements", "perm",
            "--word", "2,1,3,2,3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        letters = {tuple(s["letters"]) for s in payload["subwords"]}
        assert letters == {(0, 1, 3, 0, 0), (0, 1, 0, 0, 3)}

    def test_non_reduced_element_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "subwords", "--type", "C", "--rank", "2", "--u", "1", "--v", "1,1",
        )
        assert (code, out) == (2, "")
        assert err == "error: word '1,1' is not reduced\n"


    def test_latex_is_refused(self, capsys):
        # The listing has no LaTeX rendering, so the choice is not offered.
        with pytest.raises(SystemExit) as exc:
            main([
                "subwords", "--type", "A", "--rank", "2", "--u", "1", "--v", "1,2,1",
                "--format", "latex",
            ])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --format: invalid choice: 'latex'" in captured.err


class TestTypeAOnlyFlags:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("restrict", "--type", "B", "--rank", "2", "--u", "12", "--v", "21",
                 "--elements", "perm"),
                "--elements perm requires type A",
            ),
            (
                ("restrict", "--type", "C", "--rank", "2", "--u", "1", "--v", "1,2",
                 "--method", "typea"),
                "--method typea requires type A",
            ),
            (
                ("chains", "--type", "B", "--rank", "2", "--u", "1", "--v", "1,2,1",
                 "--basis", "x"),
                "--basis x requires type A",
            ),
            (
                ("subwords", "--type", "C", "--rank", "2", "--u", "1", "--v", "1",
                 "--basis", "x"),
                "--basis x requires type A",
            ),
        ],
        ids=["elements-perm", "method-typea", "chains-basis-x", "subwords-basis-x"],
    )
    def test_exact_message(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            # The type label is checked first, then the --word parse, then
            # the flags in the order --elements, --method, --basis.
            (
                ("restrict", "--type", "B", "--rank", "1", "--elements", "perm",
                 "--method", "typea", "--word", "x"),
                "degenerate family: B1 is not supported",
            ),
            (
                ("restrict", "--type", "B", "--rank", "2", "--elements", "perm",
                 "--method", "typea", "--word", "x"),
                "cannot parse word 'x': invalid literal for int() with base 10: 'x'",
            ),
            (
                ("restrict", "--type", "B", "--rank", "2", "--elements", "perm",
                 "--method", "typea"),
                "--elements perm requires type A",
            ),
            (
                ("chains", "--type", "C", "--rank", "2", "--elements", "perm",
                 "--basis", "x"),
                "--elements perm requires type A",
            ),
            (
                ("subwords", "--type", "C", "--rank", "2", "--basis", "x",
                 "--word", "3"),
                "--basis x requires type A",
            ),
        ],
        ids=[
            "type-label-first",
            "then-word-parse",
            "then-elements-before-method",
            "then-elements-before-basis",
            "flags-before-word-evaluation",
        ],
    )
    def test_check_order(self, capsys, argv, message):
        argv = argv + ("--u", "1", "--v", "1")
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestVerify:
    PROBE_JSON = json.dumps(verify.SuiteResult("probe").to_json(), indent=2) + "\n"

    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "oracle", "--type", "A", "--rank", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "v1"
        assert payload["failures"] == []
        assert payload["cases"] > 0

    def test_equivalence_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "equivalence-typeA", "--rank", "3",
        )
        assert code == 0
        assert json.loads(out)["failures"] == []

    @pytest.mark.parametrize(
        "suite,family,rank",
        [
            ("limits", "A", 3),
            ("limits", "B", 3),
            ("limits", "C", 3),
            ("oracle", "A", 4),
            ("oracle", "B", 3),
            ("equivalence-typeA", "A", 3),
        ],
    )
    def test_default_rank(self, capsys, monkeypatch, suite, family, rank):
        # limits evaluates every maximal chain of every pair, 986008 cases
        # and half a minute on A4; the recorder runs no suite at all.
        seen = []

        def recorder(rs):
            seen.append(rs.rank)
            return verify.SuiteResult(suite)

        monkeypatch.setitem(verify.SUITES, suite, recorder)
        code, _, _ = run(capsys, "verify", "--suite", suite, "--type", family)
        assert (code, seen) == (0, [rank])

    @pytest.fixture
    def probe(self, monkeypatch):
        """Put a suite ``probe`` taking ``seed`` into ``verify.SUITES``; it
        records the type, rank and seed of each run."""
        seen = []

        def probe(rs, seed=0):
            seen.append((str(rs.lie_type), seed))
            return verify.SuiteResult("probe")

        monkeypatch.setitem(verify.SUITES, "probe", probe)
        return seen

    def test_new_suite_reads_the_flags_it_takes(self, capsys, probe):
        # No edit to the CLI: the suite's keyword parameters are its flags.
        argv = ("verify", "--suite", "probe", "--type", "B", "--rank", "2")
        assert run(capsys, *argv, "--seed", "3") == (0, self.PROBE_JSON, "")
        assert probe == [("B2", 3)]

    def test_new_suite_refuses_a_flag_it_does_not_take(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "probe", lambda rs, samples=1: None)
        assert run(
            capsys, "verify", "--suite", "probe", "--type", "A", "--rank", "2",
            "--seed", "3",
        ) == (2, "", "error: --seed does not apply to suite probe\n")

    def test_suite_type_lets_the_type_be_left_out(self, capsys, monkeypatch, probe):
        monkeypatch.setitem(verify.SUITE_TYPE, "probe", "C")
        assert run(capsys, "verify", "--suite", "probe", "--rank", "2") == (
            0, self.PROBE_JSON, ""
        )
        assert run(
            capsys, "verify", "--suite", "probe", "--type", "A", "--rank", "2"
        ) == (2, "", "error: --suite probe requires type C\n")
        assert probe == [("C2", 0)]

    def test_flag_help_names_the_suites_that_read_each_flag(self, capsys):
        # A parser of its own: the cached one may have been built while a
        # test had patched the suites.
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--samples SAMPLES read by suites gt --pairs" in text
        assert "--pairs PAIRS read by suites gt, equivalence-typeA --seed" in text
        assert "--seed SEED read by suites gt, equivalence-typeA --out" in text
        assert "limits and equivalence-typeA default to 3" in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "gt", "--type", "A", "--rank", "2", "--samples", "0"],
            ["--suite", "gt", "--type", "A", "--rank", "2", "--samples", "-3"],
            ["--suite", "gt", "--type", "A", "--rank", "2", "--pairs", "0"],
            ["--suite", "gt", "--type", "A", "--rank", "2", "--pairs", "-1"],
            ["--suite", "equivalence-typeA", "--rank", "2", "--pairs", "0"],
            ["--suite", "equivalence-typeA", "--rank", "2", "--pairs", "-1"],
        ],
    )
    def test_non_positive_counts_are_usage_errors(self, capsys, argv):
        # A run of zero cases would report success having checked nothing.
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flag, raw = argv[-2:]
        assert captured.err.endswith(
            f"error: argument {flag}: must be a positive integer, got {raw!r}\n"
        )


class TestErrorStatus:
    """A ``ValueError`` the library raises on user input is a usage error
    with the library's message; any other ``ValueError`` is internal."""

    A2_CHAIN = ("chains", "--type", "A", "--rank", "2", "--u", "1", "--v", "1,2,1")
    CAP_A2 = "group order 6 of A2 exceeds the enumeration cap 5"

    @pytest.mark.parametrize(
        "argv,cap,message",
        [
            (
                ("restrict", "--type", "A", "--rank", "0", "--u", "1", "--v", "1"),
                None,
                "rank must be at least 1",
            ),
            (
                ("subwords", "--type", "B", "--rank", "1", "--u", "1", "--v", "1"),
                None,
                "degenerate family: B1 is not supported",
            ),
            (
                ("verify", "--suite", "gkm", "--type", "C", "--rank", "1"),
                None,
                "degenerate family: C1 is not supported",
            ),
            (
                ("table", "--type", "A", "--rank", "0"),
                None,
                "rank must be at least 1",
            ),
            (("verify", "--suite", "oracle", "--type", "A", "--rank", "2"), "5", CAP_A2),
            (("table", "--type", "A", "--rank", "2"), "5", CAP_A2),
            (
                ("verify", "--suite", "equivalence-typeA", "--rank", "0"),
                None,
                "rank must be at least 1",
            ),
            (("verify", "--suite", "equivalence-typeA", "--rank", "2"), "5", CAP_A2),
            (
                A2_CHAIN + ("--map-to-subwords", "--word", "1,1"),
                None,
                "word is not reduced",
            ),
            (
                A2_CHAIN + ("--map-to-subwords", "--word", "1,2"),
                None,
                "chain does not end at the element of the word",
            ),
            (
                A2_CHAIN + ("--map-to-subwords", "--word", "1,2,9"),
                None,
                "invalid word: letter 9 out of range 1..2",
            ),
        ],
        ids=[
            "restrict-rank-0",
            "subwords-b1",
            "verify-c1",
            "table-rank-0",
            "verify-cap",
            "table-cap",
            "equivalence-rank-0",
            "equivalence-cap",
            "map-word-not-reduced",
            "map-word-not-v",
            "map-word-bad-letter",
        ],
    )
    def test_user_input_is_usage_error(self, capsys, monkeypatch, argv, cap, message):
        if cap is None:
            monkeypatch.delenv("SCHUBERT_MAX_GROUP_ORDER", raising=False)
        else:
            monkeypatch.setenv("SCHUBERT_MAX_GROUP_ORDER", cap)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    #: What each command says when --word is reduced but not a word for v.
    MISMATCH = {
        "restrict": "word does not evaluate to v",
        "chains": "chain does not end at the element of the word",
        "subwords": "--word does not evaluate to v",
    }

    @pytest.mark.parametrize("command", ["restrict", "chains", "subwords"])
    @pytest.mark.parametrize(
        "word,message",
        [
            ("9", "invalid word: letter 9 out of range 1..2"),
            ("1,1", "word is not reduced"),
            ("1,2", None),
            ("", None),
        ],
        ids=["bad-letter", "not-reduced", "other-element", "empty"],
    )
    def test_word_is_checked_whenever_given(self, capsys, command, word, message):
        # u is not below v, so no chain or subword would ever read the
        # word, and restrict's chain method does not use it at all.
        argv = (command, "--type", "A", "--rank", "2", "--u", "1,2", "--v", "2,1")
        if command == "restrict":
            argv += ("--method", "chain")
        message = message or self.MISMATCH[command]
        assert run(capsys, *argv, "--word", word) == (2, "", f"error: {message}\n")


A2_RESTRICT = ("restrict", "--type", "A", "--rank", "2")
A2_PAIR = ("--u", "1", "--v", "1,2,1")


class TestExitStatus:
    """Every ``UsageError`` raise site of ``cli.py`` (exit 2) and one
    internal error (exit 3): argv -> (exit status, stderr prefix).  ``cap``
    is the value of SCHUBERT_MAX_GROUP_ORDER (None: unset); ``broken``
    names a ``schubert`` function replaced by one raising a ValueError."""

    @pytest.mark.parametrize(
        "argv,cap,broken,status,prefix",
        [
            pytest.param(
                A2_RESTRICT + ("--u", "1,x", "--v", "1"), None, None,
                2, "error: cannot parse word '1,x': ", id="word-syntax",
            ),
            pytest.param(
                A2_RESTRICT + ("--elements", "perm", "--u", "113", "--v", "321"),
                None, None,
                2, "error: (1, 1, 3) is not a permutation of 1..3", id="perm-syntax",
            ),
            pytest.param(
                A2_RESTRICT + ("--elements", "perm", "--u", "12", "--v", "321"),
                None, None,
                2, "error: permutation '12' has 2 values; type A rank 2 needs 3",
                id="perm-size",
            ),
            pytest.param(
                A2_RESTRICT + ("--u", "5", "--v", "1"), None, None,
                2, "error: invalid word: letter 5 out of range 1..2",
                id="element-letter",
            ),
            pytest.param(
                A2_RESTRICT + ("--u", "", "--v", "2,1,2,1"), None, None,
                2, "error: word '2,1,2,1' is not reduced", id="element-not-reduced",
            ),
            pytest.param(
                ("restrict", "--type", "A", "--rank", "0", "--u", "1", "--v", "1"),
                None, None,
                2, "error: rank must be at least 1", id="type-label",
            ),
            pytest.param(
                ("restrict", "--type", "A", "--rank", "80", "--u", "1", "--v", "1"),
                None, None,
                2, "error: rank 80 exceeds the largest supported rank 15",
                id="rank-cap",
            ),
            pytest.param(
                ("table", "--type", "C", "--rank", "16"), None, None,
                2, "error: rank 16 exceeds the largest supported rank 15",
                id="rank-cap-table",
            ),
            pytest.param(
                ("verify", "--suite", "equivalence-typeA", "--rank", "16"),
                None, None,
                2, "error: rank 16 exceeds the largest supported rank 15",
                id="rank-cap-verify",
            ),
            pytest.param(
                ("restrict", "--type", "B", "--rank", "2", "--u", "12", "--v", "21",
                 "--elements", "perm"), None, None,
                2, "error: --elements perm requires type A", id="perm-needs-type-a",
            ),
            pytest.param(
                ("restrict", "--type", "C", "--rank", "2", "--u", "1", "--v", "1,2",
                 "--method", "typea"), None, None,
                2, "error: --method typea requires type A", id="typea-needs-type-a",
            ),
            pytest.param(
                ("chains", "--type", "B", "--rank", "2", "--u", "1", "--v", "1,2,1",
                 "--basis", "x"), None, None,
                2, "error: --basis x requires type A", id="basis-x-needs-type-a",
            ),
            pytest.param(
                A2_RESTRICT + A2_PAIR + ("--word", "1,1"), None, None,
                2, "error: word is not reduced", id="word-not-reduced",
            ),
            pytest.param(
                ("subwords", "--type", "A", "--rank", "2") + A2_PAIR
                + ("--word", "1,2"), None, None,
                2, "error: --word does not evaluate to v", id="word-not-v",
            ),
            pytest.param(
                A2_RESTRICT + A2_PAIR + ("--out", "."), None, None,
                2, "error: cannot write '.': ", id="out-unwritable",
            ),
            pytest.param(
                ("table", "--type", "A", "--rank", "2"), "abc", None,
                2, "error: SCHUBERT_MAX_GROUP_ORDER must be a positive integer, "
                "got 'abc'", id="cap-syntax",
            ),
            pytest.param(
                ("table", "--type", "A", "--rank", "2"), "5", None,
                2, "error: group order 6 of A2 exceeds the enumeration cap 5",
                id="cap-exceeded",
            ),
            pytest.param(
                ("verify", "--suite", "equivalence-typeA", "--type", "B", "--rank", "2"),
                None, None,
                2, "error: --suite equivalence-typeA requires type A",
                id="equivalence-needs-type-a",
            ),
            pytest.param(
                ("verify", "--suite", "oracle", "--type", "A", "--rank", "2",
                 "--pairs", "1"), None, None,
                2, "error: --pairs does not apply to suite oracle",
                id="pairs-not-read",
            ),
            pytest.param(
                ("verify", "--suite", "equivalence-typeA", "--rank", "2",
                 "--samples", "3"), None, None,
                2, "error: --samples does not apply to suite equivalence-typeA",
                id="samples-not-read",
            ),
            pytest.param(
                ("verify", "--suite", "gkm", "--type", "B", "--rank", "2",
                 "--seed", "5"), None, None,
                2, "error: --seed does not apply to suite gkm",
                id="seed-not-read",
            ),
            pytest.param(
                ("verify", "--suite", "nope", "--rank", "2"), None, None,
                2, "error: unknown suite 'nope'; choose from ", id="unknown-suite",
            ),
            pytest.param(
                ("verify", "--suite", "gkm", "--rank", "2"), None, None,
                2, "error: --type is required for this suite", id="suite-needs-type",
            ),
            pytest.param(
                ("restrict", "--type", "B", "--rank", "2", "--u", "2", "--v", "1,2,1"),
                None, "_edge_term",
                3, "error: internal error: ValueError: edge out of step",
                id="internal-value-error",
            ),
        ],
    )
    def test_exit_status(self, capsys, monkeypatch, argv, cap, broken, status, prefix):
        if cap is None:
            monkeypatch.delenv("SCHUBERT_MAX_GROUP_ORDER", raising=False)
        else:
            monkeypatch.setenv("SCHUBERT_MAX_GROUP_ORDER", cap)
        if broken is not None:

            def raising(*args):
                raise ValueError("edge out of step")

            monkeypatch.setattr(schubert, broken, raising)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (status, "")
        assert err.startswith(prefix), err
        assert err.count("\n") == 1 and err.endswith("\n")


class TestTableAndPlumbing:
    def test_table_json(self, capsys):
        code, out, _ = run(
            capsys, "table", "--type", "A", "--rank", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["elements"]) == 6
        assert len(payload["values"]) == 6

    @pytest.mark.parametrize(
        "suite",
        ["gkm", "characterization", "oracle", "lemmas", "positivity",
         "equivalence-typeA"],
    )
    def test_group_order_cap_above_default_reaches_suites(
        self, capsys, monkeypatch, suite
    ):
        # A cap raised through the environment holds for the suite's own
        # enumeration of the group too, not only for the command's.
        monkeypatch.setattr(weyl, "DEFAULT_MAX_GROUP_ORDER", 10)
        monkeypatch.setenv("SCHUBERT_MAX_GROUP_ORDER", "100")
        code, out, _ = run(
            capsys, "verify", "--suite", suite, "--type", "A", "--rank", "3"
        )
        assert code == 0
        assert json.loads(out)["failures"] == []

    def test_group_order_cap_below_the_order_stops_a_suite(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHUBERT_MAX_GROUP_ORDER", "23")
        assert run(
            capsys, "verify", "--suite", "gkm", "--type", "A", "--rank", "3"
        ) == (2, "", "error: group order 24 of A3 exceeds the enumeration cap 23\n")

    @pytest.mark.parametrize("command", ["restrict", "chains", "subwords"])
    def test_group_order_cap_leaves_interval_commands_alone(
        self, capsys, monkeypatch, command
    ):
        # Only table and verify enumerate the group; a command on one
        # interval runs under a cap below the order of A2, which is 6.
        monkeypatch.setenv("SCHUBERT_MAX_GROUP_ORDER", "5")
        code, out, err = run(
            capsys, command, "--type", "A", "--rank", "2", "--u", "1", "--v", "1,2,1"
        )
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("raw", ["0", "-5"])
    def test_group_order_cap_must_be_positive(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("SCHUBERT_MAX_GROUP_ORDER", raw)
        code, _, err = run(capsys, "table", "--type", "A", "--rank", "2")
        assert code == 2
        assert err == (
            "error: SCHUBERT_MAX_GROUP_ORDER must be a positive integer, "
            f"got {raw!r}\n"
        )

    # SHA-256 of `table --format json`, the byte-level reference for the
    # values and their serialization.
    TABLE_DIGESTS = {
        ("A", 3): "aa929571b70bfefd78daff9bc7b6e46fc09f437c46d27ed1f7cc69c42f3517da",
        ("B", 3): "a399849f3f8d142d8cc6dfe9c76f686631594f627d4e3defc361ca75200cae4c",
        ("C", 3): "0f8dedc6442a09c0c06eceb5b5bb668cbb89aece552a8a7fa8bfb7b06b9f477f",
    }

    @pytest.mark.parametrize("family,rank", sorted(TABLE_DIGESTS))
    def test_table_json_is_byte_identical(self, capsys, tmp_path, family, rank):
        target = tmp_path / "table.json"
        code, _, _ = run(
            capsys,
            "table", "--type", family, "--rank", str(rank),
            "--format", "json", "--out", str(target),
        )
        assert code == 0
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == self.TABLE_DIGESTS[(family, rank)]

    # SHA-256 of `table --format text` and `--format latex`, recorded
    # when the table was still filled row by row.
    RENDERED_DIGESTS = {
        ("A", 3, "text"): (
            "e17050563718db805d15fc29bae3edfb97f8ae0551a5509d9f64b2cb27b55945"
        ),
        ("A", 3, "latex"): (
            "f87bb1fa4c5cc09f0414b55a77a6c02ed67590f01e15c0154dfdd7c586cf87f4"
        ),
        ("B", 2, "text"): (
            "374586394fb85cc40fa23c2dcf130852c9a229bdf8c7dea08632aded2a40e97a"
        ),
        ("B", 2, "latex"): (
            "6280b522eadc9370815bbf831ccc081ddee79ac2ee818df72c8088b8db084526"
        ),
    }

    @pytest.mark.parametrize("family,rank,fmt", sorted(RENDERED_DIGESTS))
    def test_table_text_and_latex_are_byte_identical(
        self, capsys, tmp_path, family, rank, fmt
    ):
        target = tmp_path / "table.txt"
        code, _, _ = run(
            capsys,
            "table", "--type", family, "--rank", str(rank),
            "--format", fmt, "--out", str(target),
        )
        assert code == 0
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == self.RENDERED_DIGESTS[(family, rank, fmt)]

    # SHA-256 of `restrict --method all` in every format, on rank-4 and
    # rank-5 pairs of A, B and C (A4 s1s2s3s4, s4s3s2s1 is not a Bruhat
    # pair), and of `chains` and `subwords` JSON on one B3 pair: the term
    # order and the number formats of single values.
    A4_W0 = "1,2,1,3,2,1,4,3,2,1"
    A5_W0 = "1,2,1,3,2,1,4,3,2,1,5,4,3,2,1"
    B4_W0 = "1,2,1,3,2,1,4,3,2,1,4,3,2,4,3,4"
    RESTRICT_DIGESTS = {
        ("A", 4, "2,1", A4_W0, "json"): (
            "4ec3d3fcb631bee076cda8afdb13a23de2c8154b021c401fb59ae24dbebc07d1"
        ),
        ("A", 4, "2,1", A4_W0, "latex"): (
            "d45360a2df09cab3ef6b04f1b4bde74c881091358581e5b1cdb93c9df486d409"
        ),
        ("A", 4, "2,1", A4_W0, "text"): (
            "d61dc70f4c174a8ff0a90be5bb455c4ce1a2c85e646877e52d5041ddf5033927"
        ),
        ("A", 4, "1,2,3,4", "4,3,2,1", "json"): (
            "f3e29c602226061a0f91f68abd081efa959f375b12b1faaba2ae0eaed7beaee1"
        ),
        ("A", 4, "1,2,3,4", "4,3,2,1", "latex"): (
            "a54f864c4df91c4b2b104edd36942d34e506f4684ffe3dc6f1a1ff0d28eb39cf"
        ),
        ("A", 4, "1,2,3,4", "4,3,2,1", "text"): (
            "a54f864c4df91c4b2b104edd36942d34e506f4684ffe3dc6f1a1ff0d28eb39cf"
        ),
        ("A", 5, "2,4,3", A5_W0, "json"): (
            "0266ccd73a08e729464b76168d047e4fb540667801fe3acdd91276b4058429a9"
        ),
        ("A", 5, "2,4,3", A5_W0, "latex"): (
            "ea93d09622eb6a37e0cd664eeec2b56d47abdebb2494db6c09174b42ec60cd8e"
        ),
        ("A", 5, "2,4,3", A5_W0, "text"): (
            "3f3879a57efe288d8955688c3540aed61b114d7bc9dd20b185c81688333da68c"
        ),
        ("B", 4, "4,3,2", B4_W0, "json"): (
            "c9d1c7741212294c4a64fb8828c9f4457de49f19da11ebaedbb8dbcb316903e6"
        ),
        ("B", 4, "4,3,2", B4_W0, "latex"): (
            "f16c6fb05b4592d8de87f8dcafd2d51a14096c6abd5019556569dc58ee7bfe4d"
        ),
        ("B", 4, "4,3,2", B4_W0, "text"): (
            "552f09bf1e383c88670ee0f6dcaef8433881b5fb77d14832e4ea827e015cc35b"
        ),
        ("B", 5, "1,5", "1,2,3,4,5,4,3,2,1", "json"): (
            "09a8998957f3eeb5abdf553ff8e391c33c6d8ebadfdabd437e87436946dca63c"
        ),
        ("B", 5, "1,5", "1,2,3,4,5,4,3,2,1", "latex"): (
            "28b63efd235bfa85c6a21e734985ba0914f0e83b1d8442f6afacb87d8d6e58d1"
        ),
        ("B", 5, "1,5", "1,2,3,4,5,4,3,2,1", "text"): (
            "d47bf42cd4e17c1c563cb8d93fe313a7e63ef8309387ac982b85223cadc10b77"
        ),
        ("C", 4, "1,2", "4,3,4,2,1,2", "json"): (
            "fab20b6941c842078cc4bf61a7dcc7cde319a2e0b7c138cfe5d4c930795820ee"
        ),
        ("C", 4, "1,2", "4,3,4,2,1,2", "latex"): (
            "fe7529366b3d664c4fc0fe3e8ebabfa81ccede9c70e50e0df70941d131ef94d3"
        ),
        ("C", 4, "1,2", "4,3,4,2,1,2", "text"): (
            "edf91cf0899778af203d20ef4ee888c400e0f38c2973e3cae50404c21c3988c1"
        ),
        ("C", 5, "2,5", "1,2,3,4,5,4,3,2,1,2,3,4,5", "json"): (
            "fd328051f1d2dc8309bc2bee198892d07e03a499362403b34476cdfe2e77dcab"
        ),
        ("C", 5, "2,5", "1,2,3,4,5,4,3,2,1,2,3,4,5", "latex"): (
            "8769d1a2ad51c13d637e02b8ad9b78ccf8428effa55053750336c3a13ab9f555"
        ),
        ("C", 5, "2,5", "1,2,3,4,5,4,3,2,1,2,3,4,5", "text"): (
            "a7352174cc05d40dd653c774d046cd6454d91a2e6afa99385b3a9ddafb0fa85b"
        ),
    }

    @pytest.mark.parametrize("family,rank,u,v,fmt", sorted(RESTRICT_DIGESTS))
    def test_restrict_all_methods_are_byte_identical(
        self, capsys, family, rank, u, v, fmt
    ):
        code, out, _ = run(
            capsys,
            "restrict", "--type", family, "--rank", str(rank), "--u", u,
            "--v", v, "--method", "all", "--format", fmt,
        )
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.RESTRICT_DIGESTS[(family, rank, u, v, fmt)]

    LISTING_DIGESTS = {
        "chains": "64bad548114fa6e18237a9b7b5c0025e4e1ed9266a4cf890641d6cf64ce5cc27",
        "subwords": "b9411e8512cf73e821c130afdb7b04a1e5d94cfab1c12e9f548d1f6b6079d6ce",
    }

    @pytest.mark.parametrize("command", sorted(LISTING_DIGESTS))
    def test_chains_and_subwords_json_are_byte_identical(self, capsys, command):
        code, out, _ = run(
            capsys,
            command, "--type", "B", "--rank", "3", "--u", "2",
            "--v", "1,2,3,2,1", "--format", "json",
        )
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.LISTING_DIGESTS[command]

    # SHA-256 of `chains` JSON on a B2 pair whose first chain contributes
    # a1/2 + a2, recorded before the writer replaced `json.dumps`: the
    # pins above print only "denominator": 1.
    HALVES_DIGEST = "f7163670d40d7ca3239d2e6fb66c931acf45077d1f15bf8ed0626a34fb2ad1f8"

    def test_chains_json_with_halves_is_byte_identical(self, capsys):
        code, out, _ = run(
            capsys,
            "chains", "--type", "B", "--rank", "2", "--u", "2",
            "--v", "1,2,1", "--format", "json",
        )
        assert code == 0
        assert '"denominator": 2' in out
        assert hashlib.sha256(out.encode()).hexdigest() == self.HALVES_DIGEST

    @pytest.mark.parametrize("fmt", ["json", "text", "latex"])
    def test_table_on_stdout_matches_the_file(self, capsys, tmp_path, fmt):
        target = tmp_path / "table.out"
        argv = ("table", "--type", "B", "--rank", "2", "--format", fmt)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_text() == out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "value.txt"
        code, out, _ = run(
            capsys,
            "restrict", "--type", "A", "--rank", "2",
            "--u", "1", "--v", "1,2,1", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "a1 + a2"

    @pytest.mark.parametrize(
        "command",
        [
            ["restrict", "--type", "A", "--rank", "2", "--u", "1", "--v", "1,2,1"],
            ["table", "--type", "A", "--rank", "2"],
            ["verify", "--suite", "gkm", "--type", "A", "--rank", "2"],
        ],
    )
    @pytest.mark.parametrize(
        "where, reason",
        [("missing", "No such file or directory"), ("directory", "Is a directory")],
    )
    def test_unwritable_output_is_usage_error(
        self, capsys, tmp_path, command, where, reason
    ):
        path = tmp_path / "absent" / "out.txt" if where == "missing" else tmp_path
        target = str(path)
        assert run(capsys, *command, "--out", target) == (
            2, "", f"error: cannot write {target!r}: {reason}\n"
        )

    @pytest.mark.parametrize(
        "command",
        [
            ["restrict", "--type", "A", "--rank", "2", "--u", "1", "--v", "1,2,1"],
            ["table", "--type", "A", "--rank", "2", "--format", "json"],
            ["verify", "--suite", "gkm", "--type", "A", "--rank", "2"],
        ],
    )
    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_closed_stdout_is_usage_error(self, capsys, monkeypatch, command, failing):
        # A reader that closes the pipe early: the write, or the flush of a
        # payload small enough to sit in the buffer, raises BrokenPipeError.
        # The stream has no file descriptor, so fd 1 is left alone.
        class Closed:
            def write(self, text):
                if failing == "write":
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(command) == 2
        assert capsys.readouterr().err == (
            "error: cannot write to standard output: Broken pipe\n"
        )


def plain(obj):
    """``obj`` with every ``Polynomial`` replaced by its ``to_json()``."""
    if isinstance(obj, Polynomial):
        return obj.to_json()
    if isinstance(obj, list):
        return [plain(item) for item in obj]
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    return obj


def written(obj, level):
    parts = []
    cli._write_json(obj, parts.append, level)
    return "".join(parts)


coefficients = st.one_of(
    st.integers(min_value=-10**20, max_value=10**20),
    st.fractions(max_denominator=12),
)


@st.composite
def polynomials(draw):
    rank = draw(st.integers(min_value=1, max_value=4))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * rank)
    return Polynomial(rank, draw(st.dictionaries(exponents, coefficients, max_size=4)))


#: Strings with quotes, backslashes, control and non-ASCII characters.
texts = st.one_of(
    st.text(max_size=6), st.sampled_from(['"', "\\", "\n", "é", "\u2028", "😀"])
)
payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), texts, polynomials()),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(texts, children, max_size=4)
    ),
    max_leaves=12,
)

#: One payload with every leaf the writer distinguishes.
EVERY_LEAF = {
    "zero": Polynomial.zero(2),
    "halves": Polynomial(2, {(1, 0): Fraction(-1, 2), (0, 1): 1, (0, 0): 3}),
    "empty": [{}, [], ""],
    "flags": [True, 1, False, 0, None, -1],
    'quote " back \\ é': ["\u2028", "\x00", "😀"],
}


#: Terms that share a packed key and a numerator but print differently:
#: the constant in ranks 2 and 3, the same numerators over 1 and over 2,
#: and one polynomial at three depths, twice at one of them.
SHARED = Polynomial(2, {(1, 0): 1, (0, 1): 2})
SHARED_TERMS = [
    Polynomial.constant(2, 3),
    Polynomial.constant(3, 3),
    SHARED,
    Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): 1}),
    SHARED,
    {"nested": [SHARED]},
]


class TestJsonWriter:
    """``cli._write_json`` prints what ``json.dumps`` prints for the
    ``to_json()`` form of the payload, indented and compact."""

    @given(obj=payloads)
    @example(obj=EVERY_LEAF)
    @example(obj=[EVERY_LEAF, [EVERY_LEAF]])
    @settings(deadline=None)
    def test_indented_output_is_json_dumps(self, obj):
        assert cli._dumps(obj) == json.dumps(plain(obj), indent=2)
        assert written(obj, 0) == json.dumps(plain(obj), indent=2)

    @given(obj=payloads)
    @example(obj=EVERY_LEAF)
    @settings(deadline=None)
    def test_compact_output_is_json_dumps(self, obj):
        assert written(obj, None) == json.dumps(plain(obj))

    def test_shared_terms_print_as_json_dumps(self):
        assert SHARED_TERMS[3].terms == SHARED.terms
        assert cli._dumps(SHARED_TERMS) == json.dumps(plain(SHARED_TERMS), indent=2)
        assert written(SHARED_TERMS, None) == json.dumps(plain(SHARED_TERMS))

    def test_each_output_formats_its_own_terms(self, monkeypatch):
        # Each distinct term is formatted once per output, and only for
        # that output: a second call formats them all again.
        renders = []
        real = cli._term_format

        class Counting(str):
            def __mod__(self, values):
                renders.append(values)
                return str.__mod__(self, values)

        monkeypatch.setattr(
            cli, "_term_format", lambda rank, level: Counting(real(rank, level))
        )
        first = cli._dumps(SHARED_TERMS)
        assert len(renders) == 8
        assert cli._dumps(SHARED_TERMS) == first
        assert len(renders) == 16

    @pytest.mark.parametrize("obj", [1.5, {1: 2}, (1, 2), {3}, b"x"])
    def test_other_types_are_refused(self, obj):
        with pytest.raises(TypeError):
            cli._dumps(obj)
