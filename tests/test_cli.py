"""Command-line interface: output formats, agreement verdicts, exit codes."""

import hashlib
import json

import pytest

from schubres import cli, schubert
from schubres.cli import main
from schubres.poly import CancellationError, Polynomial
from schubres.rootsys import root_system
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
        def broken(gamma, v):
            raise CancellationError("no factor is proportional")

        monkeypatch.setattr(schubert, "chain_contribution", broken)
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

    def test_perm_elements_require_type_a(self, capsys):
        code, _, err = run(
            capsys,
            "restrict", "--type", "B", "--rank", "2",
            "--u", "12", "--v", "21", "--elements", "perm",
        )
        assert code == 2
        assert "type A" in err

    def test_typea_method_requires_type_a(self, capsys):
        code, _, _ = run(
            capsys,
            "restrict", "--type", "C", "--rank", "2",
            "--u", "1", "--v", "1,2", "--method", "typea",
        )
        assert code == 2

    def test_bad_word_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "restrict", "--type", "A", "--rank", "2", "--u", "5", "--v", "1",
        )
        assert code == 2
        assert "error" in err

    def test_non_reduced_element_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "restrict", "--type", "A", "--rank", "2", "--u", "", "--v", "2,1,2,1",
        )
        assert (code, out) == (2, "")
        assert err == "error: word '2,1,2,1' is not reduced\n"


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

    def test_x_basis_requires_type_a(self, capsys):
        code, _, _ = run(
            capsys,
            "chains", "--type", "B", "--rank", "2",
            "--u", "1", "--v", "1,2,1", "--basis", "x",
        )
        assert code == 2

    def test_non_reduced_element_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "chains", "--type", "B", "--rank", "2", "--u", "1,1", "--v", "1,2,1",
        )
        assert (code, out) == (2, "")
        assert err == "error: word '1,1' is not reduced\n"


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

    def test_word_must_match_v(self, capsys):
        code, _, _ = run(
            capsys,
            "subwords", "--type", "A", "--rank", "2",
            "--u", "1", "--v", "1,2,1", "--word", "1,2",
        )
        assert code == 2

    def test_non_reduced_element_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "subwords", "--type", "C", "--rank", "2", "--u", "1", "--v", "1,1",
        )
        assert (code, out) == (2, "")
        assert err == "error: word '1,1' is not reduced\n"


class TestVerify:
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

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope", "--rank", "2")
        assert code == 2
        assert "unknown suite" in err


class TestTableAndPlumbing:
    def test_table_json(self, capsys):
        code, out, _ = run(
            capsys, "table", "--type", "A", "--rank", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["elements"]) == 6
        assert len(payload["values"]) == 6

    def test_group_order_cap_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHUBERT_MAX_GROUP_ORDER", "5")
        code, _, err = run(capsys, "table", "--type", "A", "--rank", "2")
        assert code == 2
        assert "exceeds" in err

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
