"""Radical-chain bookkeeping and the per-defect counting identity.

The six radical 2-chains have parabolic normalizers G, Pa, B, Pb, B, B with
lengths 0,1,2,1,2,1; the two length-2/length-1 chains normalized by B cancel,
so the alternating sum reduces to

    k(G,d,u) + k(B,d,u) = k(Pa,d,u) + k(Pb,d,u)

per defect d and stabilizer order u | 2n+1.  Counts come from the fixed-point
rows; parameter sets related by induction pairing contribute equal unknown
counts on both sides and cancel symbolically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .autfix import (
    divisors,
    exact_stabilizer_counts,
    fixed_count_bruteforce,
    fixed_count_formula,
    row_is_enumerable,
)
from .counting import formula_count
from .exactnum import val2
from .record import Record
from .tabledsl import DefectLedger, Model, int_value, no_value

GROUPS = ("G", "B", "Pa", "Pb")
LHS_GROUPS = ("G", "B")
RHS_GROUPS = ("Pa", "Pb")

# Table of radical 2-chains: (chain id, length, normalizer).
CHAINS = (
    ("C1", 0, "G"),
    ("C2", 1, "Pa"),
    ("C3", 2, "B"),
    ("C4", 1, "Pb"),
    ("C5", 2, "B"),
    ("C6", 1, "B"),
)


def two_part_exponent(n: int) -> int:
    """log2 of the 2-part of every chain normalizer: q^24 = 2^(24n+12)."""
    return 24 * n + 12


def defect_of(degree_expr, n: int, owner: Optional[str] = None) -> int:
    """(24n+12) - val2(degree): the 2-defect of a character of that degree.

    A degree that is no positive integer at n is a TableValueError, after owner if given."""
    deg = int_value(degree_expr, n, owner=owner)
    if deg <= 0:
        raise no_value(owner, degree_expr, n, ValueError(f"degree {deg} is not positive"))
    return two_part_exponent(n) - val2(deg)


def sylow_consistency(model: Model, n: int) -> bool:
    """|G|_2 = q^24 = |U| * |T|_2: the hard-coded 2-part is reproduced."""
    order = int_value(model.order_expr, n)
    borel_two = val2(int_value(_BOREL_ORDER, n))
    return val2(order) == two_part_exponent(n) == borel_two


# q^24*(q^2-1)^2, the order of a Borel subgroup
_BOREL_ORDER = ("mul", ("pow", ("sym", "q"), ("int", 24)),
                ("pow", ("sub", ("pow", ("sym", "q"), ("int", 2)), ("int", 1)), ("int", 2)))


def k_fixed(
    model: Model,
    group: str,
    ledger: DefectLedger,
    u: int,
    n: int,
    mode: str = "formula",
) -> Tuple[int, Set[str]]:
    """Fixed-character count of one chain normalizer at one ledger defect.

    Returns (numeric part, unresolved pair ids).  At u = 1 the acting group
    is trivial, so paired entries resolve to their raw cardinalities.
    """
    f = 2 * n + 1
    if f % u:
        raise ValueError(f"u={u} must divide {f}")
    t = f // u
    total = 0
    tokens: Set[str] = set()
    rows_seen: Set[str] = set()
    for e in ledger.entries:
        if e.group != group:
            continue
        if e.tag == "fixed":
            if e.ref in rows_seen:
                continue
            rows_seen.add(e.ref)
            row = model.fixrows[e.ref]
            if mode == "bruteforce" and row_is_enumerable(row, model):
                total += fixed_count_bruteforce(row, model, n, t)
            else:
                total += fixed_count_formula(row, t)
        else:
            if t == f:
                total += formula_count(model.paramsets[e.set_id], n)
            else:
                tokens.add(e.ref)
    return total, tokens


def _identity_records(model: Model, n: int, mode: str, check: str) -> List[Record]:
    """The identity in one mode at every ledger cell and every shared defect value.

    A cell reads expected (rhs, True, True) against actual (lhs, tokens match,
    literal alternating sum over the chain table is 0).
    """
    f = 2 * n + 1
    records = []
    by_value: Dict[Tuple[int, int], List[Record]] = {}
    for lid in sorted(model.ledgers):
        led = model.ledgers[lid]
        d = int_value(led.value, n, owner=lid)
        for u in divisors(f):
            parts, tok = {}, {}
            for g in GROUPS:
                parts[g], tok[g] = k_fixed(model, g, led, u, n, mode)
            lhs = parts["G"] + parts["B"]
            rhs = parts["Pa"] + parts["Pb"]
            # the symbolic pair tokens cancel exactly when both sides carry
            # the same pairs
            tokens_match = (tok["G"] | tok["B"]) == (tok["Pa"] | tok["Pb"])
            alt = sum((-1) ** length * parts[grp] for _, length, grp in CHAINS)
            rec = Record(check, lid, n, (rhs, True, True), (lhs, tokens_match, alt == 0),
                         d=d, u=u)
            records.append(rec)
            by_value.setdefault((d, u), []).append(rec)
    # ledgers colliding on one numeric defect (e.g. 20n+12 = 21n+11 at n=1)
    for (d, u), cells in sorted(by_value.items()):
        if len(cells) < 2:
            continue
        lhs = sum(r.actual[0] for r in cells)
        rhs = sum(r.expected[0] for r in cells)
        records.append(Record(check, f"combined_d{d}", n, (rhs, True, True),
                              (lhs, True, lhs == rhs), d=d, u=u))
    return records


def verify_dade(model: Model, n: int, mode: str = "formula") -> List[Record]:
    """The counting identity for every ledger defect and every u | 2n+1.

    Also folds the literal alternating sum over the six chains (the two
    B-chains of opposite sign cancel) and, per u, the aggregate over ledgers
    that collide on the same numeric defect value.  Mode "both" writes the
    records of each mode (dade_formula, dade_bruteforce) and, per cell, a
    dade_mode_agreement record comparing their (lhs, rhs).
    """
    if mode != "both":
        return _identity_records(model, n, mode, "dade")
    formula, brute = (_identity_records(model, n, md, f"dade_{md}")
                      for md in ("formula", "bruteforce"))
    agreement = []
    for fr, br in zip(formula, brute):  # both modes list the cells in one order
        agreement.append(Record("dade_mode_agreement", fr.name, n,
                                (fr.actual[0], fr.expected[0]),
                                (br.actual[0], br.expected[0]), u=fr.u))
    return formula + brute + agreement


def verify_dade_exact_level(model: Model, n: int) -> List[Record]:
    """Mobius-inverted (exact-stabilizer) version of the identity, per u."""
    f = 2 * n + 1
    records = []
    for lid in sorted(model.ledgers):
        led = model.ledgers[lid]
        d = int_value(led.value, n, owner=lid)
        fix_lhs = {}
        fix_rhs = {}
        for t in divisors(f):
            u = f // t
            parts = {g: k_fixed(model, g, led, u, n)[0] for g in GROUPS}
            fix_lhs[t] = parts["G"] + parts["B"]
            fix_rhs[t] = parts["Pa"] + parts["Pb"]
        lhs = exact_stabilizer_counts(fix_lhs, f)
        rhs = exact_stabilizer_counts(fix_rhs, f)
        for u in divisors(f):
            records.append(Record("dade_exact", lid, n, rhs[u], lhs[u], d=d, u=u))
    return records


# --- ledger consistency -------------------------------------------------------

EXPECTED_COVERAGE = {"B": 58, "Pa": 40, "Pb": 56}


def ledger_consistency(model: Model, n: int) -> List[Record]:
    records = []

    # (i) every entry's computed defect matches its ledger heading
    for lid in sorted(model.ledgers):
        led = model.ledgers[lid]
        d = int_value(led.value, n, owner=lid)
        for e in led.entries:
            name = f"{lid}/{e.set_id}"
            if e.degree is None:
                # no degree shipped (semisimple union): defect by convention
                records.append(Record("entry_defect", name, n, d, d))
                continue
            records.append(Record("entry_defect", name, n, d, defect_of(e.degree, n, name)))

    # (ii) coverage of the parabolic parameter sets, each exactly once
    seen: Dict[str, List[str]] = {g: [] for g in GROUPS}
    for led in model.ledgers.values():
        for e in led.entries:
            seen[e.group].append(e.set_id)
    for grp, expected in EXPECTED_COVERAGE.items():
        ids = seen[grp]
        records.append(
            Record("coverage_count", grp, n, expected, len(ids))
        )
        records.append(
            Record("coverage_unique", grp, n, len(set(ids)), len(ids))
        )
        all_ids = {
            s for s, spec in model.paramsets.items()
            if spec.group == grp and spec.alias_of is None
        }
        records.append(
            Record("coverage_complete", grp, n, sorted(all_ids), sorted(ids))
        )
    # G: everything except the Steinberg set and the semisimple members,
    # which enter through the GI_ss union
    ss = model.paramsets["GI_ss"]
    g_expected = {
        s for s, spec in model.paramsets.items()
        if spec.group == "G" and spec.alias_of is None
    }
    g_expected -= set(ss.members)
    g_expected.discard("GI_21")
    records.append(
        Record(
            "coverage_complete", "G", n, sorted(g_expected), sorted(set(seen["G"]))
        )
    )

    # (iii) induction pairs match cardinalities side by side
    for pid in sorted(model.pairs):
        pair = model.pairs[pid]
        left = sum(formula_count(model.paramsets[s], n) for s in pair.left)
        right = sum(formula_count(model.paramsets[s], n) for s in pair.right)
        records.append(Record("pair_cardinality", pid, n, left, right))
        # each pair lives inside exactly one ledger, left on {G,B}, right on {Pa,Pb}
        homes = set()
        for lid, led in model.ledgers.items():
            for e in led.entries:
                if e.tag == "paired" and e.ref == pid:
                    homes.add(lid)
                    side_groups = LHS_GROUPS if e.side == "left" else RHS_GROUPS
                    records.append(
                        Record(
                            "pair_side", f"{pid}/{e.set_id}", n, True,
                            e.group in side_groups,
                        )
                    )
        records.append(Record("pair_one_ledger", pid, n, 1, len(homes)))
        for lid in homes:
            entry_sets = {
                e.set_id for e in model.ledgers[lid].entries
                if e.tag == "paired" and e.ref == pid
            }
            records.append(
                Record(
                    "pair_complete", pid, n,
                    sorted(pair.left + pair.right), sorted(entry_sets),
                )
            )

    # (iv) raw-cardinality balance per ledger at trivial H (t = 2n+1)
    for lid in sorted(model.ledgers):
        led = model.ledgers[lid]
        lhs = rhs = 0
        for e in led.entries:
            c = formula_count(model.paramsets[e.set_id], n)
            if e.group in LHS_GROUPS:
                lhs += c
            else:
                rhs += c
        records.append(Record("raw_balance", lid, n, lhs, rhs))

    records.append(
        Record("sylow_two_part", "G", n, True, sylow_consistency(model, n))
    )
    return records
