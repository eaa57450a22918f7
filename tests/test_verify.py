"""Suite bookkeeping: case counts and failure messages."""

from schubres import verify
from schubres.poly import Polynomial
from schubres.rootsys import root_system
from schubres.verify import SuiteResult, suite_oracle
from schubres.weyl import simple_reflection


def test_message_is_built_only_on_failure():
    def unreachable():
        raise AssertionError("message built for a passing case")

    result = SuiteResult("demo")
    result.check(True, unreachable)
    result.check(False, lambda: "second case fails")
    assert result.cases == 2
    assert result.failures == ["second case fails"]


def test_mutated_value_gives_exact_messages(monkeypatch):
    # Perturb the chain value at (s1, s1) the way the gkm suite's mutation
    # control does; the subword and type A routes must then disagree with it.
    rs = root_system("A", 1)
    s1 = simple_reflection(rs, 1)
    real = verify.tau_chain

    def mutated(u, v):
        value = real(u, v)
        if (u, v) == (s1, s1):
            value = value + Polynomial.one(rs.rank)
        return value

    monkeypatch.setattr(verify, "tau_chain", mutated)
    result = suite_oracle(rs)
    assert result.cases == 7
    assert result.failures == [
        "tau mismatch at u=<A1 1>, v=<A1 1>, word=(1,): "
        "billey Polynomial(a1) vs chain Polynomial(1 + a1)",
        "typea mismatch at u=<A1 1>, v=<A1 1>",
    ]
