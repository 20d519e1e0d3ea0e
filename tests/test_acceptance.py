"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every expected value here is exact (integer equality, no tolerances);
the stated runtime ceilings are asserted with wall-clock timers.
"""

import json
import time
from itertools import combinations, product as iproduct

import pytest

from qhflag.grading import canonical_order, connected_components, is_a_chain
from qhflag.pwlift import (minimal_representatives, psi_map, pw_lift,
                           qhp_product)
from qhflag.qchev import QuantumFlagRing
from qhflag.rootsys import build_root_system
from qhflag.verify import VerificationSetup, run_suite
from qhflag import weyl
from test_pwlift import pw_lift_bruteforce


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def connected_parabolics(rs):
    for size in range(1, rs.n):
        for par in combinations(range(1, rs.n + 1), size):
            if len(connected_components(rs, par)) == 1:
                yield par


# -- 1: the Fl_3 multiplication table, integer-exact, under one second -------

FL3 = {
    ((1,), (1,)): [((2, 1), (0, 0)), ((), (1, 0))],
    ((1,), (1, 2)): [((1, 2, 1), (0, 0))],
    ((1,), (2, 1)): [((2,), (1, 0))],
    ((2,), (2,)): [((1, 2), (0, 0)), ((), (0, 1))],
    ((2,), (2, 1)): [((1, 2, 1), (0, 0))],
    ((2,), (1, 2)): [((1,), (0, 1))],
    ((1, 2), (1, 2, 1)): [((2,), (1, 1))],
    ((1, 2), (1, 2)): [((2, 1), (0, 1))],
    ((1,), (1, 2, 1)): [((1, 2), (1, 0)), ((), (1, 1))],
    ((2, 1), (1, 2, 1)): [((1,), (1, 1))],
    ((2, 1), (2, 1)): [((1, 2), (1, 0))],
    ((2,), (1, 2, 1)): [((2, 1), (0, 1)), ((), (1, 1))],
    ((1,), (2,)): [((1, 2), (0, 0)), ((2, 1), (0, 0))],
    ((1, 2), (2, 1)): [((), (1, 1))],
    ((1, 2, 1), (1, 2, 1)): [((1, 2), (1, 1)), ((2, 1), (1, 1))],
}


def test_criterion_1_fl3_products():
    t0 = time.monotonic()
    ring = QuantumFlagRing(build_root_system("A", 2))
    for (uw, vw), terms in FL3.items():
        u, v = ring.element_from_word(uw), ring.element_from_word(vw)
        want = {(ring.element_from_word(w), q): 1 for w, q in terms}
        assert ring.quantum_product(u, v).terms == want
        assert ring.quantum_product(v, u).terms == want
    # unit rows complete the full 36-entry table
    e = weyl.identity(ring.rs)
    for w in ring.elements:
        assert ring.quantum_product(e, w).terms == {(w, (0, 0)): 1}
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"all Fl_3 quantum products exact in {elapsed:.3f}s")


# -- 2: the full grading table for (A2, {alpha_1}), cell for cell ------------

TABLE1 = {
    (4, 0): ((), (2, 0)), (4, 1): ((2,), (2, 0)), (4, 2): ((1, 2), (2, 0)),
    (4, 3): ((1,), (2, 1)), (4, 4): ((2, 1), (2, 1)),
    (4, 5): ((1, 2, 1), (2, 1)), (4, 6): ((), (3, 2)),
    (3, 0): ((1,), (1, 0)), (3, 1): ((2, 1), (1, 0)),
    (3, 2): ((1, 2, 1), (1, 0)), (3, 3): ((), (2, 1)),
    (3, 4): ((2,), (2, 1)), (3, 5): ((1, 2), (2, 1)), (3, 6): ((1,), (2, 2)),
    (2, 0): ((), (1, 0)), (2, 1): ((2,), (1, 0)), (2, 2): ((1, 2), (1, 0)),
    (2, 3): ((1,), (1, 1)), (2, 4): ((2, 1), (1, 1)),
    (2, 5): ((1, 2, 1), (1, 1)), (2, 6): ((), (2, 2)),
    (1, 0): ((1,), (0, 0)), (1, 1): ((2, 1), (0, 0)),
    (1, 2): ((1, 2, 1), (0, 0)), (1, 3): ((), (1, 1)),
    (1, 4): ((2,), (1, 1)), (1, 5): ((1, 2), (1, 1)), (1, 6): ((1,), (1, 2)),
    (0, 0): ((), (0, 0)), (0, 1): ((2,), (0, 0)), (0, 2): ((1, 2), (0, 0)),
    (0, 3): ((1,), (0, 1)), (0, 4): ((2, 1), (0, 1)),
    (0, 5): ((1, 2, 1), (0, 1)), (0, 6): ((), (1, 2)),
    (-1, 3): ((), (0, 1)), (-1, 4): ((2,), (0, 1)),
    (-1, 5): ((1, 2), (0, 1)), (-1, 6): ((1,), (0, 2)),
    (-2, 6): ((), (0, 2)),
}


def test_criterion_2_table1_reproduction():
    t0 = time.monotonic()
    from qhflag.cli import grading_table_cells
    rs = build_root_system("A", 2)
    op = canonical_order(rs, (1,))
    cells = grading_table_cells(rs, op, -2, 4, 0, 6, max_weyl=2000)
    got = {}
    for (i, j), entries in cells.items():
        assert len(entries) == 1, f"cell ({i},{j}) not a single element"
        w, lam = entries[0]
        got[(i, j)] = (w.word(), lam)
    assert got == TABLE1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, f"49-cell grading table matches in {elapsed:.3f}s")


# -- 3: the dominance inequality, exhaustively, every canonical order ---------

def test_criterion_3_key_lemma_exhaustive():
    t0 = time.monotonic()
    total = 0
    for name in ("A2", "A3", "B2", "B3", "C3", "G2"):
        rs = build_root_system(name[0], int(name[1]))
        for par in connected_parabolics(rs):
            rep = run_suite("key-lemma",
                            VerificationSetup(system=name, parabolic=par))
            assert rep.ok, (name, par, rep.failures[:3])
            total += rep.total
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(3, f"{total} dominance checks, zero failures, {elapsed:.1f}s")


# -- 4: the filtration bound over all Schubert pairs -------------------------

def test_criterion_4_filtration_exhaustive():
    t0 = time.monotonic()
    expected_pairs = {"A2": 36, "A3": 576, "B3": 2304, "G2": 144}
    for name, par in [("A2", (1,)), ("A3", (1, 2)), ("B3", (1, 2)),
                      ("G2", (1,))]:
        rep = run_suite("filtration",
                        VerificationSetup(system=name, parabolic=par))
        assert rep.ok, (name, rep.failures[:3])
        assert rep.total == expected_pairs[name]
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(4, f"all |W|^2 pairs filtered correctly in {elapsed:.1f}s")


# -- 5: quotient constants equal the parabolic flag ring ---------------------

def test_criterion_5_quotient_isomorphism():
    for name, par in [("A3", (1, 2)), ("B3", (1, 2))]:
        rep = run_suite("ideal-quotient",
                        VerificationSetup(system=name, parabolic=par))
        assert rep.ok, (name, rep.failures[:3])
    _report(5, "quotient structure constants equal the parabolic flag ring")


# -- 6: comparison lifts on the curve-class box, uniqueness by box search ----

def test_criterion_6_pw_lift_box():
    for name, par in [("A3", (1, 2)), ("B3", (1, 2))]:
        rs = build_root_system(name[0], int(name[1]))
        comp = [j for j in range(1, rs.n + 1) if j not in par]
        roots_p = rs.positive_roots_within(par)
        for exps in iproduct(range(4), repeat=len(comp)):
            lam_p = {j: e for j, e in zip(comp, exps)}
            lift = pw_lift(rs, par, lam_p)
            assert all(rs.pairing(b, lift.lambda_B) in (0, -1) for b in roots_p)
            assert lift.delta_P_prime == tuple(
                i for i in par if rs.pairing(rs.simple_root(i),
                                             lift.lambda_B) == 0)
            assert lift.length == len(roots_p) - len(
                rs.positive_roots_within(lift.delta_P_prime))
            assert pw_lift_bruteforce(rs, par, lam_p, bound=6) == [lift.lambda_B]
    _report(6, "unique lift found and confirmed by |a_i| <= 6 box search")


# -- 7: lifted pure quantum classes vanish below the top grading window ------

def test_criterion_7_lift_grading_window():
    for name, par in [("A3", (1, 2)), ("B3", (1, 2))]:
        rs = build_root_system(name[0], int(name[1]))
        op = canonical_order(rs, par)
        comp = [j for j in range(1, rs.n + 1) if j not in par]
        for exps in iproduct(range(4), repeat=len(comp)):
            lam_p = {j: e for j, e in zip(comp, exps)}
            w, lam_b = psi_map(rs, par, weyl.identity(rs), lam_p)
            assert all(x == 0 for x in op.gr(w, lam_b)[:op.r])
            assert all(x >= 0 for x in lam_b)
    _report(7, "gr window [1..r] vanishes on every lifted curve class")


# -- 8: graded pieces: uniqueness, multiplicativity, and the P^m models ------

def test_criterion_8_graded_piece_isomorphisms():
    rep = run_suite("graded-iso",
                    VerificationSetup(system="A3", parabolic=(1, 2)))
    assert rep.ok, rep.failures[:3]
    regime = rep.extra["psi_regime"]
    count = int(regime.split(":")[1])
    assert count >= 100
    assert rep.extra["model"] == "projective space P^3"
    rep2 = run_suite("graded-iso",
                     VerificationSetup(system="A2", parabolic=(1,)))
    assert rep2.ok, rep2.failures[:3]
    assert rep2.extra["model"] == "projective space P^2"
    _report(8, f"graded representatives unique, products normalized, "
               f"{count} lift pairs multiplicative, P^3 and P^2 models match")


# -- 9: ring sanity on every acceptance system -------------------------------

def test_criterion_9_property_suite():
    for name, par in [("A2", (1,)), ("A3", (1, 2)), ("B2", (1,)),
                      ("B3", (1, 2)), ("C3", (1, 2)), ("G2", (1,))]:
        rep = run_suite("basics", VerificationSetup(system=name, parabolic=par))
        assert rep.ok, (name, rep.failures[:3])
    # the reflection-length bound up to rank 4
    for series, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4)]:
        rs = build_root_system(series, rank)
        for gamma in rs.positive_roots:
            bound = rs.two_rho_pairing(rs.coroot_of(gamma)) - 1
            assert weyl.reflection(rs, gamma).length <= bound
    _report(9, "commutativity, associativity, homogeneity, positivity, "
               "length bound: zero failures")


# -- 10: conjecture verdicts are reported, never gating ----------------------

def test_criterion_10_conjecture_report(tmp_path):
    reports = []
    for name in ("A2", "A3", "B2", "B3", "G2"):
        rs = build_root_system(name[0], int(name[1]))
        for par in connected_parabolics(rs):
            rep = run_suite("referee-conjecture",
                            VerificationSetup(system=name, parabolic=par))
            assert rep.informational
            assert len(rep.extra["verdicts"]) == len(rs.positive_roots)
            reports.append(rep.to_json_obj())
    out = tmp_path / "conjecture-report.json"
    out.write_text(json.dumps(reports, indent=2))
    assert json.loads(out.read_text())
    agree = sum(1 for r in reports for v in r["extra"]["verdicts"] if v["agree"])
    total = sum(len(r["extra"]["verdicts"]) for r in reports)
    _report(10, f"conjecture verdicts emitted: {agree}/{total} agree "
                f"(informational)")
