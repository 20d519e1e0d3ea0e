import hashlib
import json
from itertools import combinations, product as iproduct

import pytest

from qhflag.errors import CapExceededError, InvalidInputError
from qhflag.pwlift import (bounded_compositions, minimal_representatives,
                           lambda_rep, psi_map, pw_lift, qhp_product,
                           qhp_structure_constant, quantum_degree)
from qhflag.qchev import QuantumFlagRing
from qhflag.rootsys import RootSystem, build_root_system
from qhflag.verify import VerificationSetup, run_suite
from qhflag import pwlift, weyl


def pw_lift_bruteforce(rs, parabolic, lam_P, bound=6):
    """Independent box search: every lam_P + sum_i a_i alpha_i^vee over the
    parabolic i, |a_i| <= bound, whose pairing with every positive root of
    the parabolic subsystem lies in {0, -1}, sorted."""
    par = rs.check_parabolic(parabolic)
    rep = lambda_rep(rs, par, lam_P)
    roots_p = rs.positive_roots_within(par)
    out = []
    for shifts in iproduct(range(-bound, bound + 1), repeat=len(par)):
        lam = list(rep)
        for i, a in zip(par, shifts):
            lam[i - 1] += a
        if all(rs.pairing(beta, lam) in (0, -1) for beta in roots_p):
            out.append(tuple(lam))
    return sorted(out)


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="module")
def a3():
    return build_root_system("A", 3)


@pytest.fixture(scope="module")
def b3():
    return build_root_system("B", 3)


def test_zero_class_lifts_trivially(a3):
    lift = pw_lift(a3, (1, 2), {})
    assert lift.lambda_B == (0, 0, 0)
    assert lift.delta_P_prime == (1, 2)
    assert lift.omega_factor == weyl.identity(a3)


def test_lift_is_an_immutable_value(a3):
    lift = pw_lift(a3, (1, 2), {3: 1})
    assert lift._fields == ("lambda_B", "delta_P_prime", "omega_factor")
    assert repr(lift) == ("PWLift(lambda_B=(0, 0, 1), delta_P_prime=(1,), "
                          "omega_factor=W[1,2])")
    assert lift.length == lift.omega_factor.length == 2
    same = pwlift.PWLift(tuple(lift.lambda_B), tuple(lift.delta_P_prime),
                         weyl.word_to_element(a3, lift.omega_factor.word()))
    assert same == lift and hash(same) == hash(lift)
    assert same != pw_lift(a3, (1, 2), {})
    for name in ("lambda_B", "length", "other"):
        with pytest.raises(AttributeError):
            setattr(lift, name, ())


def test_a2_end_node_lift(a2):
    lift = pw_lift(a2, (1,), {2: 1})
    assert lift.lambda_B == (0, 1)
    assert lift.delta_P_prime == ()
    assert lift.omega_factor == weyl.simple_reflection(a2, 1)


def test_chain_interior_lift_matches_closed_form(a3):
    # Inside the chain: psi_{Delta_j, Delta_{j-1}}(1, alpha_j) is
    # (u_{j-1}^{(j-1)}, alpha_j^vee).
    lift = pw_lift(a3, (1,), {2: 1})
    assert lift.lambda_B == (0, 1, 0)
    assert lift.omega_factor == weyl.simple_reflection(a3, 1)
    lift = pw_lift(a3, (1, 2), {3: 1})
    assert lift.lambda_B == (0, 0, 1)
    assert lift.omega_factor == weyl.word_to_element(a3, [1, 2])


def test_b_type_end_node_lift(b3):
    # Short end node attached to a chain: lift gains one parabolic q and the
    # factor u_{r-1}^{(r)} u_{r-1}^{(r-1)} = s_2 s_1.
    lift = pw_lift(b3, (1, 2), {3: 1})
    assert lift.lambda_B == (0, 1, 1)
    assert lift.delta_P_prime == (2,)
    assert lift.omega_factor == weyl.word_to_element(b3, [2, 1])
    assert lift.length == 2


def _proper_parabolics(name):
    rs = build_root_system(name[0], int(name[1:]))
    for r in range(1, rs.n):
        for par in combinations(range(1, rs.n + 1), r):
            yield rs, par


def test_lift_invariants_and_uniqueness_box():
    # Every proper nonempty parabolic, connected or not.
    for rs, par in [case for name in ("A3", "B3", "C3", "D4", "G2")
                    for case in _proper_parabolics(name)]:
        comp = rs.complement(par)
        roots_p = rs.positive_roots_within(par)
        for exps in iproduct(range(4), repeat=len(comp)):
            lam_p = {j: e for j, e in zip(comp, exps)}
            lift = pw_lift(rs, par, lam_p)
            for beta in roots_p:
                assert rs.pairing(beta, lift.lambda_B) in (0, -1)
            assert lift.delta_P_prime == tuple(
                i for i in par
                if rs.pairing(rs.simple_root(i), lift.lambda_B) == 0)
            assert lift.length == (len(roots_p) -
                                   len(rs.positive_roots_within(lift.delta_P_prime)))
            # Independent exhaustive search: exactly one candidate.
            assert pw_lift_bruteforce(rs, par, lam_p, bound=6) == [lift.lambda_B]


@pytest.mark.parametrize("weights,total", [((), 3), ((1,), 0), ((1, 1, 1), 4),
                                           ((3, 4), 11), ((2, 5, 1), 7),
                                           ((4,), -1)])
def test_bounded_compositions_match_filtered_product(weights, total):
    expect = [e for e in iproduct(range(max(total, 0) + 1), repeat=len(weights))
              if sum(a * b for a, b in zip(e, weights)) <= total]
    assert bounded_compositions(weights, total) == expect


def _box_candidates(rs, par, reps):
    """Per total degree, every (w, box, lam_P) of that degree: boxes from
    the quantum degrees, w of the matching length."""
    comp = rs.complement(par)
    degs = [quantum_degree(rs, par, j) for j in comp]
    by_len = {}
    for w in reps:
        by_len.setdefault(w.length, []).append(w)
    return {total: [(w, exps, dict(zip(comp, exps)))
                    for exps in bounded_compositions(degs, total)
                    for w in by_len.get(
                        total - sum(e * d for e, d in zip(exps, degs)), ())]
            for total in range(2 * reps[-1].length + 1)}


# (ordered pairs u, v over every proper parabolic, terms in all products)
BOX_ORACLE = {"A2": (54, 63), "A3": (1076, 1848), "B3": (4276, 13282),
              "C3": (4276, 13275), "G2": (216, 401)}


@pytest.mark.parametrize("name", sorted(BOX_ORACLE))
def test_qhp_product_matches_box_enumeration(name):
    # Oracle: one qhp_structure_constant per (box, w) of the right degree.
    # The G/B product memo keeps one entry per unordered pair, so the oracle
    # of (v, u) would reread the numbers of (u, v); it runs once per pair.
    rs = build_root_system(name[0], int(name[1:]))
    ring = QuantumFlagRing(rs)
    pairs = terms = 0
    for r in range(rs.n):  # the empty parabolic too
        for par in combinations(range(1, rs.n + 1), r):
            reps = minimal_representatives(rs, par)
            candidates = _box_candidates(rs, par, reps)
            for k, u in enumerate(reps):
                for v in reps[k:]:
                    expect = {}
                    for w, exps, lam_p in candidates[u.length + v.length]:
                        c = qhp_structure_constant(ring, par, u, v, w, lam_p)
                        if c:
                            expect[(w, exps)] = c
                    assert qhp_product(ring, par, u, v) == expect
                    assert qhp_product(ring, par, v, u) == expect
                    copies = 1 if u == v else 2
                    pairs += copies
                    terms += copies * len(expect)
    assert (pairs, terms) == BOX_ORACLE[name]


def test_qhp_product_uses_the_rings_weyl_cap():
    # |W(B5)| = 3840 exceeds the default cap; the ring's raised cap is enough.
    b5 = build_root_system("B", 5)
    ring = QuantumFlagRing(b5, weyl_cap=4000)
    par = (1, 2, 3, 4)
    s5 = weyl.simple_reflection(b5, 5)
    s45 = weyl.word_to_element(b5, [4, 5])
    assert qhp_product(ring, par, s5, s5) == {(s45, (0,)): 1}
    assert qhp_structure_constant(ring, par, s5, s5, s45, {}) == 1


def test_psi_injective_on_box(a3):
    par = (1, 2)
    reps = minimal_representatives(a3, par)
    seen = {}
    for v in reps:
        for e in range(4):
            image = psi_map(a3, par, v, {3: e})
            assert image not in seen
            seen[image] = (v, e)
    assert len(seen) == len(reps) * 4


def test_psi_rejects_non_representatives(a3):
    with pytest.raises(InvalidInputError, match="minimal"):
        psi_map(a3, (1, 2), weyl.simple_reflection(a3, 1), {})


def test_quantum_degrees(a2, a3):
    assert quantum_degree(a2, (1,), 2) == 3                      # P^2
    assert quantum_degree(a3, (1, 2), 3) == 4                    # P^3
    assert quantum_degree(a3, (1, 3), 2) == 4                    # Gr(2,4)
    with pytest.raises(InvalidInputError):
        quantum_degree(a3, (1, 2), 1)


def test_qhp_constants_via_lift(a2):
    ring = QuantumFlagRing(a2)
    par = (1,)
    one, h, h2 = minimal_representatives(a2, par)
    assert (h.length, h2.length) == (1, 2)
    assert qhp_structure_constant(ring, par, h, h, h2, {}) == 1
    assert qhp_structure_constant(ring, par, h, h2, one, {2: 1}) == 1
    # matches the classical part for zero curve class
    assert qhp_structure_constant(ring, par, h, h, one, {}) == 0


def test_qhp_product_projective_plane(a2):
    ring = QuantumFlagRing(a2)
    par = (1,)
    one, h, h2 = minimal_representatives(a2, par)
    assert qhp_product(ring, par, h, h) == {(h2, (0,)): 1}
    assert qhp_product(ring, par, h, h2) == {(one, (1,)): 1}
    assert qhp_product(ring, par, h2, h2) == {(h, (1,)): 1}
    assert qhp_product(ring, par, one, h2) == {(h2, (0,)): 1}


def test_qhp_product_p3_h4_is_q(a3):
    ring = QuantumFlagRing(a3)
    par = (1, 2)
    reps = minimal_representatives(a3, par)
    one, h, h2, h3 = reps
    # h * h * h = h^3, then h * h^3 = q: iterated products
    assert qhp_product(ring, par, h, h2) == {(h3, (0,)): 1}
    assert qhp_product(ring, par, h, h3) == {(one, (1,)): 1}
    assert qhp_product(ring, par, h2, h3) == {(h, (1,)): 1}
    assert qhp_product(ring, par, h3, h3) == {(h2, (1,)): 1}


def test_qhp_zero_curve_class_matches_classical(a3):
    # lambda_P = 0 constants agree with classical products restricted to
    # minimal representatives.
    ring = QuantumFlagRing(a3)
    par = (1, 3)
    reps = minimal_representatives(a3, par)
    for u in reps:
        for v in reps:
            terms = ring.quantum_product(u, v).terms
            for w in reps:
                expect = terms.get((w, (0, 0, 0)), 0)
                assert qhp_structure_constant(ring, par, u, v, w, {}) == expect


def test_qhp_commutative_and_associative_sampled(a3):
    ring = QuantumFlagRing(a3)
    par = (1, 2)
    reps = minimal_representatives(a3, par)
    for u in reps:
        for v in reps:
            assert qhp_product(ring, par, u, v) == qhp_product(ring, par, v, u)

    def mul(cls_dict, v):
        out = {}
        for (w, exps), c in cls_dict.items():
            for (w2, exps2), c2 in qhp_product(ring, par, w, v).items():
                key = (w2, tuple(a + b for a, b in zip(exps, exps2)))
                out[key] = out.get(key, 0) + c * c2
        return {k: v2 for k, v2 in out.items() if v2}

    for u in reps:
        for v in reps:
            for w in reps:
                assert mul(qhp_product(ring, par, u, v), w) == \
                    mul(qhp_product(ring, par, v, w), u)


def test_rejects_non_representative_inputs(a3):
    ring = QuantumFlagRing(a3)
    s1 = weyl.simple_reflection(a3, 1)
    with pytest.raises(InvalidInputError, match="minimal"):
        qhp_structure_constant(ring, (1, 2), s1, s1, s1, {})
    one = weyl.identity(a3)
    for u, v in ((s1, one), (one, s1)):
        with pytest.raises(InvalidInputError, match="minimal"):
            qhp_product(ring, (1, 2), u, v)


def test_lambda_encoding_validation(a3):
    with pytest.raises(InvalidInputError, match="complement"):
        pw_lift(a3, (1, 2), {1: 1})
    with pytest.raises(InvalidInputError, match="length"):
        pw_lift(a3, (1, 2), (1, 0))


@pytest.mark.parametrize("lam", [{2: 1.5}, {2: True}, {2: "1"}, {2: None},
                                 (0, 1.0), (0, True), (1.5, 1)])
def test_non_integer_curve_class_exponent_rejected(a2, lam):
    # One message for every non-int exponent, parabolic coordinates included.
    for lift in (pw_lift, pw_lift_bruteforce):
        with pytest.raises(InvalidInputError, match="must be integers"):
            lift(a2, (1,), lam)


@pytest.mark.parametrize("lam", [{2: -1}, (0, -1)], ids=["mapping", "sequence"])
def test_negative_curve_class_exponent_rejected(a2, lam):
    with pytest.raises(InvalidInputError, match="nonnegative"):
        pw_lift(a2, (1,), lam)
    with pytest.raises(InvalidInputError, match="nonnegative"):
        pw_lift_bruteforce(a2, (1,), lam)


def test_parabolic_coordinates_of_a_sequence_are_free(a2):
    # Q^vee_P absorbs the parabolic coordinates, so their sign is free.
    assert pw_lift(a2, (1,), (-3, 1)) == pw_lift(a2, (1,), {2: 1})
    assert pw_lift_bruteforce(a2, (1,), (-3, 1)) == [(0, 1)]


def count_solves(monkeypatch):
    """Record the (parabolic, coset) of every lift actually solved."""
    solves = []
    real = pwlift._solve_lift

    def counting(rs, par, rep):
        solves.append((par, rep))
        return real(rs, par, rep)

    monkeypatch.setattr(pwlift, "_solve_lift", counting)
    return solves


def test_all_qhp_pairs_read_off_the_g_b_product(monkeypatch):
    b4 = build_root_system("B", 4)  # fresh, so its tables start empty
    ring = QuantumFlagRing(b4)
    par = (1, 2, 3)
    reps = minimal_representatives(b4, par)
    assert len(reps) == 16
    solves = count_solves(monkeypatch)

    def rederived(*args, **kwargs):
        raise AssertionError("qhp_product re-derived what the G/B product holds")

    for name in ("quantum_degree", "minimal_representatives",
                 "bounded_compositions"):
        monkeypatch.setattr(pwlift, name, rederived)
    monkeypatch.setattr(QuantumFlagRing, "structure_constant", rederived)
    for u in reps:
        for v in reps:
            qhp_product(ring, par, u, v)
    assert len(solves) == len(set(solves)) == len(b4._cache["pw_lift"]) == 3
    # Warm, each call checks its parabolic once, at entry: the lifts and the
    # minimality tests reuse the checked tuple.
    checks = []
    check = RootSystem.check_parabolic
    monkeypatch.setattr(RootSystem, "check_parabolic", lambda rs, indices: (
        checks.append(indices) or check(rs, indices)))
    for u in reps:
        for v in reps:
            qhp_product(ring, par, u, v)
    assert checks == [par] * 256


def test_qhp_product_inverts_each_distinct_lift_once(monkeypatch):
    # omega^{-1} is kept beside its lift, so neither a cold nor a warm pass
    # over W^P x W^P inverts a Weyl factor twice.
    b4 = build_root_system("B", 4)  # fresh, so its tables start empty
    ring = QuantumFlagRing(b4)
    par = (1, 2, 3)
    reps = minimal_representatives(b4, par)
    solves = count_solves(monkeypatch)
    inverted = []
    inverse = weyl.WeylElt.inverse
    monkeypatch.setattr(weyl.WeylElt, "inverse",
                        lambda w: inverted.append(w) or inverse(w))
    for _ in range(2):
        for u in reps:
            for v in reps:
                qhp_product(ring, par, u, v)
        assert len(inverted) == len(solves) == 3
    assert inverted == [lift.omega_factor
                        for lift, _ in b4._cache["pw_lift"].values()]


# sha256 of the lifts below, [series, rank, parabolic, exponents, lambda_B,
# Delta_P', word of omega] as json.dumps lists, taken when each lift still
# inverted its Cartan block and ascended to w0_P itself.
LIFTS_SHA256 = "6744249855642670b90be29a3fc6fb210f6f38096375142e05c84b8ee3e6e521"


def test_parabolic_data_is_derived_once_per_system_and_parabolic(monkeypatch):
    # Every coset with exponents <= 2 on B4/(1,2,3) and C3/(1,2): the
    # Cartan block of each parabolic met (P and each Delta_P') is inverted
    # once, and w0 of each is ascended to once, per fresh system.
    inverted, ascended = [], []
    inverse, longest = pwlift.independent_inverse, weyl.longest_element
    monkeypatch.setattr(pwlift, "independent_inverse", lambda cols, m: (
        inverted.append(m) or inverse(cols, m)))
    monkeypatch.setattr(weyl, "longest_element", lambda rs, ind=None: (
        ascended.append((rs.name, tuple(ind))) or longest(rs, ind)))
    lifts, met = [], set()
    for series, rank, par in (("B", 4, (1, 2, 3)), ("C", 3, (1, 2))):
        rs = build_root_system(series, rank)  # fresh, so its tables start empty
        free = [j for j in range(1, rank + 1) if j not in par]
        for exps in iproduct(range(3), repeat=len(free)):
            lift = pw_lift(rs, par, dict(zip(free, exps)))
            met |= {(rs.name, par), (rs.name, lift.delta_P_prime)}
            lifts.append([series, rank, list(par), list(exps), list(lift.lambda_B),
                          list(lift.delta_P_prime), list(lift.omega_factor.word())])
        assert set(rs._cache["parabolic"]) == {p for name, p in met
                                               if name == rs.name}
    assert sorted(ascended) == sorted(met) and len(inverted) == len(met) == 5
    digest = hashlib.sha256(json.dumps(lifts).encode()).hexdigest()
    assert digest == LIFTS_SHA256


def test_lift_over_the_empty_parabolic_is_the_class_itself():
    # G/B: no sign pattern to search, a single solution, omega = e.
    b3 = build_root_system("B", 3)
    for lam in [(0, 0, 0), (1, 2, 0), (3, 1, 4)]:
        assert pw_lift(b3, (), lam) == (lam, (), weyl.identity(b3))
    assert list(b3._cache["parabolic"]) == [()]


def test_lift_cache_keys_the_coset_not_its_representative(monkeypatch):
    a2 = build_root_system("A", 2)
    solves = count_solves(monkeypatch)
    first = pw_lift(a2, (1,), (-3, 1))
    assert pw_lift(a2, (1,), {2: 1}) is first
    assert solves == [((1,), (0, 1))]
    assert len(a2._cache["pw_lift"]) == 1
    # validation still runs on a cached coset
    with pytest.raises(InvalidInputError, match="nonnegative"):
        pw_lift(a2, (1,), (-3, -1))


def test_cached_w_p_keeps_the_cap_check():
    a3 = build_root_system("A", 3)
    reps = minimal_representatives(a3, (1, 2))
    assert minimal_representatives(a3, (1, 2)) is reps
    with pytest.raises(CapExceededError):
        minimal_representatives(a3, (1, 2), cap=10)


def test_graded_iso_solves_each_distinct_lift_once(monkeypatch):
    # The suite asks for over a thousand lifts on A3/(1,2), 9 of them distinct.
    solves = count_solves(monkeypatch)
    rep = run_suite("graded-iso", VerificationSetup("A3", (1, 2)))
    assert rep.passes == rep.total
    assert len(solves) == len(set(solves)) == 9


@pytest.mark.parametrize("key", [2.7, True, "x"])
def test_non_integer_curve_class_index_rejected(a2, key):
    # 2.7 used to lift as index 2, and "x" raised a bare ValueError.
    for lift in (pw_lift, pw_lift_bruteforce):
        with pytest.raises(InvalidInputError,
                           match="curve-class indices must be integers"):
            lift(a2, (1,), {key: 1})


def test_structure_constant_checks_w_and_the_curve_class(a3):
    ring = QuantumFlagRing(a3)
    one, s1 = weyl.identity(a3), weyl.simple_reflection(a3, 1)
    with pytest.raises(InvalidInputError, match="minimal"):
        qhp_structure_constant(ring, (1, 2), one, one, s1, {})
    with pytest.raises(InvalidInputError, match="complement"):
        qhp_structure_constant(ring, (1, 2), one, one, one, {1: 1})
    with pytest.raises(InvalidInputError, match="index"):
        qhp_structure_constant(ring, (1, 5), one, one, one, {})
