"""Defect computation, the counting identity, and ledger consistency."""

from dadecheck.dadeverify import (
    CHAINS,
    defect_of,
    k_fixed,
    ledger_consistency,
    sylow_consistency,
    verify_dade,
    verify_dade_exact_level,
)
from dadecheck.counting import formula_count
from dadecheck.tabledsl import build_env, eval_expr, eval_expr_int


def _expr(text):
    from dadecheck.tabledsl import _Parser

    return _Parser(text).parse_expr()


def test_chain_table_reduces_to_two_sides():
    # C5 and C6 share a normalizer and opposite signs
    signed = {}
    for _, length, grp in CHAINS:
        signed[grp] = signed.get(grp, 0) + (-1) ** length
    assert signed == {"G": 1, "B": 1, "Pa": -1, "Pb": -1}


def test_defect_examples():
    for n in (1, 2, 3):
        assert defect_of(_expr("(q^13/s2)*p1*p2*p4^2*p12"), n) == 11 * n + 6
        assert defect_of(_expr("(q^10/2)*p1^2*p2^2"), n) == 14 * n + 8
        assert defect_of(_expr("1"), n) == 24 * n + 12


def test_shipped_degrees_positive_integers(model):
    for n in range(1, 9):
        env = build_env(n)
        for led in model.ledgers.values():
            for e in led.entries:
                if e.degree is not None:
                    assert eval_expr_int(e.degree, env) > 0, e.set_id


def test_k_fixed_examples(model):
    led = model.ledgers["d_11n_6"]
    for u in (1, 5):
        total, tokens = k_fixed(model, "G", led, u, 2)
        assert (total, tokens) == (2, set())
    led24 = model.ledgers["d_24n_12"]
    assert k_fixed(model, "B", led24, 3, 1) == (4, set())
    assert k_fixed(model, "B", led24, 1, 1) == (64, set())


def test_k_fixed_case_h(model):
    # defect 20n+10 at n=2, u=5 (so t=1): both sides 4 * 2^t - 3 = 5
    led = model.ledgers["d_20n_10"]
    lhs_num = k_fixed(model, "G", led, 5, 2)[0] + k_fixed(model, "B", led, 5, 2)[0]
    rhs_num = k_fixed(model, "Pa", led, 5, 2)[0] + k_fixed(model, "Pb", led, 5, 2)[0]
    assert lhs_num == rhs_num == 5


def test_unresolved_pair(model):
    led = model.ledgers["d_16n_8"]
    # at u = 3 the pairs stay symbolic; at u = 1 they resolve numerically
    assert k_fixed(model, "B", led, 3, 1)[1]
    total, tokens = k_fixed(model, "B", led, 1, 1)
    assert tokens == set()


def test_verify_dade_all_n(model):
    for n in (1, 2, 3, 4):
        recs = verify_dade(model, n)
        assert recs
        for r in recs:
            assert r.ok, (r.name, r.n, r.u, r.expected, r.actual)


def test_verify_dade_bruteforce_n1_n2(model):
    for n in (1, 2):
        for r in verify_dade(model, n, mode="bruteforce"):
            assert r.ok, (r.name, r.u, r.expected, r.actual)


def test_dade_24n12_u1_values(model):
    recs = {
        (r.name, r.u): r for r in verify_dade(model, 1)
    }
    r = recs[("d_24n_12", 1)]
    assert (r.actual[0], r.expected[0]) == (128, 128)


def test_alternating_sum_is_checked(model, monkeypatch):
    # C6 at length 2 puts +B where -B was, so the sum over the chains is 2B
    from dadecheck import dadeverify

    chains = tuple((cid, 2 if cid == "C6" else length, grp) for cid, length, grp in CHAINS)
    monkeypatch.setattr(dadeverify, "CHAINS", chains)
    failed = [r for r in verify_dade(model, 1) if not r.ok]
    assert failed and all(r.actual[2] is False for r in failed)
    # the two sides still balance; only the chain sum fails
    assert all(r.actual[0] == r.expected[0] for r in failed)


def test_exact_level(model):
    for n in (1, 2, 3, 4):
        for r in verify_dade_exact_level(model, n):
            assert r.ok, (r.name, r.u, r.expected, r.actual)


def test_ledger_consistency(model):
    for n in (1, 2, 3, 4):
        for r in ledger_consistency(model, n):
            assert r.ok, (r.check, r.name, r.expected, r.actual)


def test_pair_bi50_pai40(model):
    for n in (1, 2):
        q2 = 2 ** (2 * n + 1)
        assert formula_count(model.paramsets["BI_50"], n) == q2
        assert formula_count(model.paramsets["PaI_40"], n) == q2


def test_raw_balance_20n11_value(model):
    # both sides carry 8 + (2q^2-4)/3 + (2q^2-4)
    recs = [r for r in ledger_consistency(model, 1) if r.check == "raw_balance"]
    led = {r.name: r for r in recs}["d_20n_11"]
    assert led.expected == led.actual == 8 + 4 + 12


def test_sylow_two_part(model):
    for n in (1, 2, 3, 4):
        assert sylow_consistency(model, n)


def test_coverage_counts(model):
    recs = [r for r in ledger_consistency(model, 1) if r.check == "coverage_count"]
    got = {r.name: r.actual for r in recs}
    assert got == {"B": 58, "Pa": 40, "Pb": 56}


# The proof evaluates each side of the identity in closed form per defect.
# For ledgers containing induction pairs the stated value is the sum over the
# unpaired sets, which is exactly the numeric part while pairs are symbolic
# (t a proper divisor); for pair-free ledgers it holds at every t.
CASE_VALUES = {
    "d_11n_6": lambda t: 2,
    "d_14n_7": lambda t: 1,
    "d_14n_8": lambda t: 4,
    "d_15n_8": lambda t: 2 * 2 ** t,
    "d_16n_8": lambda t: 2 ** t,
    "d_17n_9": lambda t: 2 * (2 ** t - 1),
    "d_18n_9": lambda t: 2 ** t,
    "d_20n_10": lambda t: 4 * 2 ** t - 3,
    "d_20n_11": lambda t: 4,
    "d_20n_12": lambda t: 16,
    "d_21n_11": lambda t: 2 * 2 ** t,
    "d_22n_11": lambda t: 2 * 2 ** t,
    "d_23n_12": lambda t: 4 * 2 ** t,
    "d_24n_12": lambda t: 2 * 2 ** (2 * t),
}

PAIRED_LEDGERS = {"d_16n_8", "d_17n_9", "d_18n_9", "d_20n_10", "d_20n_11"}


def test_case_values_match_proof(model):
    from dadecheck.autfix import divisors

    assert set(CASE_VALUES) == set(model.ledgers)
    for n in (1, 2, 3, 4):
        f = 2 * n + 1
        for lid, value in CASE_VALUES.items():
            led = model.ledgers[lid]
            for t in divisors(f):
                if t == f and lid in PAIRED_LEDGERS:
                    continue  # pairs resolve to raw cardinalities here
                u = f // t
                lhs = k_fixed(model, "G", led, u, n)[0] + k_fixed(model, "B", led, u, n)[0]
                rhs = k_fixed(model, "Pa", led, u, n)[0] + k_fixed(model, "Pb", led, u, n)[0]
                assert lhs == rhs == value(t), (lid, n, t, lhs, rhs, value(t))


def test_defect_value_list(model):
    # the fourteen defect values of the statement, instantiated
    for n in (1, 2, 5):
        expected = sorted(
            c * n + d
            for c, d in (
                (11, 6), (14, 7), (14, 8), (15, 8), (16, 8), (17, 9), (18, 9),
                (20, 10), (20, 11), (20, 12), (21, 11), (22, 11), (23, 12), (24, 12),
            )
        )
        env = build_env(n)
        got = sorted(eval_expr_int(led.value, env) for led in model.ledgers.values())
        assert got == expected
