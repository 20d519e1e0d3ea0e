import pytest

from qhflag.errors import InternalConsistencyError, InvalidInputError
from qhflag.rootsys import (RootSystem, build_root_system, parabolic_subsystem,
                            parse_system_id)
from qhflag import weyl
from test_weyl import apply_coroot, apply_root, reflect_coroot

COUNTS = {
    ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16,
    ("C", 3): 9, ("C", 4): 16,
    ("D", 4): 12, ("D", 5): 20,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}

HIGHEST = {
    ("A", 3): (1, 1, 1),
    ("B", 3): (1, 2, 2),
    ("C", 3): (2, 2, 1),
    ("D", 4): (1, 2, 1, 1),
    ("F", 4): (2, 3, 4, 2),
    ("G", 2): (3, 2),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
}


@pytest.mark.parametrize("series,rank", sorted(COUNTS))
def test_positive_root_counts(series, rank):
    rs = build_root_system(series, rank)
    assert len(rs.positive_roots) == COUNTS[(series, rank)]


@pytest.mark.parametrize("series,rank", sorted(HIGHEST))
def test_highest_roots(series, rank):
    assert build_root_system(series, rank).positive_roots[-1] == HIGHEST[(series, rank)]


@pytest.mark.parametrize("series,rank", sorted(COUNTS))
def test_cartan_and_closure_invariants(series, rank):
    rs = build_root_system(series, rank)
    n = rs.n
    for i in range(n):
        assert rs.cartan[i][i] == 2
        for j in range(n):
            if i != j:
                assert rs.cartan[i][j] in (0, -1, -2, -3)
    for i in range(1, n + 1):
        assert rs.simple_root(i) in rs.positive_roots
    for beta in rs.positive_roots:
        assert all(c >= 0 for c in beta) and any(c > 0 for c in beta)
        for i in range(1, n + 1):
            img = rs.reflect_root(i, beta)
            assert rs.is_root(img)


def test_cartan_pairing_convention():
    a2 = build_root_system("A", 2)
    # <alpha_j, alpha_i^vee> = cartan[i][j]
    assert a2.pairing(a2.simple_root(1), a2.simple_coroot(2)) == -1
    assert a2.pairing(a2.simple_root(1), a2.simple_coroot(1)) == 2
    # bilinearity on a combination
    g = (1, 1)
    lam = (2, 3)
    expect = sum(c * a2.pairing(a2.simple_root(k + 1), lam)
                 for k, c in enumerate(g))
    assert a2.pairing(g, lam) == expect


def test_two_rho_pairings():
    a2 = build_root_system("A", 2)
    gv = a2.coroot_of((1, 1))
    assert a2.two_rho_pairing(gv) == 4
    assert a2.two_rho_pairing(a2.simple_coroot(1)) == 2


def brute_coroot(rs, gamma):
    """Oracle: gamma^vee = w(alpha_i^vee) over all w, i with w(alpha_i)=gamma."""
    results = set()
    for w in weyl.enumerate_group(rs):
        for i in range(1, rs.n + 1):
            if apply_root(w, rs.simple_root(i)) == tuple(gamma):
                results.add(apply_coroot(w, rs.simple_coroot(i)))
    assert len(results) == 1, "coroot must not depend on the expression"
    return results.pop()


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("C", 2),
                                         ("B", 3), ("G", 2), ("D", 4)])
def test_coroot_against_orbit_oracle(series, rank):
    rs = build_root_system(series, rank)
    for gamma in rs.positive_roots:
        gv = rs.coroot_of(gamma)
        assert gv == brute_coroot(rs, gamma)
        assert rs.pairing(gamma, gv) == 2


def test_coroot_examples():
    a2 = build_root_system("A", 2)
    assert a2.coroot_of((1, 1)) == (1, 1)
    # Bourbaki B2 (alpha_1 long): brute-force oracle fixes the value.
    b2 = build_root_system("B", 2)
    assert b2.coroot_of((1, 1)) == brute_coroot(b2, (1, 1)) == (2, 1)
    # Reversed node roles appear in C2, where the spec's stated value holds.
    c2 = build_root_system("C", 2)
    assert c2.coroot_of((1, 1)) == brute_coroot(c2, (1, 1)) == (1, 2)
    g2 = build_root_system("G", 2)
    theta = g2.positive_roots[-1]
    assert g2.pairing(theta, g2.coroot_of(theta)) == 2


def test_coroot_reflection_equivariance():
    rs = build_root_system("B", 3)
    for gamma in rs.positive_roots:
        gv = rs.coroot_of(gamma)
        for i in range(1, rs.n + 1):
            img = rs.reflect_root(i, gamma)
            sign = 1 if rs.is_positive_root(img) else -1
            pos = img if sign == 1 else tuple(-c for c in img)
            assert reflect_coroot(rs, i, gv) == tuple(sign * c for c in
                                                     rs.coroot_of(pos))


def test_invalid_types_rejected():
    with pytest.raises(InvalidInputError, match="series"):
        build_root_system("H", 3)
    with pytest.raises(InvalidInputError, match="rank cap"):
        build_root_system("A", 9)
    with pytest.raises(InvalidInputError, match="not a supported finite type"):
        build_root_system("G", 3)
    with pytest.raises(InvalidInputError, match="not a supported finite type"):
        build_root_system("D", 3)
    with pytest.raises(InvalidInputError, match="not a supported finite type"):
        build_root_system("E", 5)
    with pytest.raises(InvalidInputError):
        parse_system_id("Q7")
    with pytest.raises(InvalidInputError):
        parse_system_id("A")


def test_pairing_dimension_mismatch():
    rs = build_root_system("A", 2)
    with pytest.raises(InvalidInputError, match="dimension"):
        rs.pairing((1, 0, 0), (1, 0))
    with pytest.raises(InvalidInputError, match="not a root"):
        rs.coroot_of((2, 0))


def test_complement():
    d4 = build_root_system("D", 4)
    assert d4.complement((1, 3, 4)) == (2,)
    assert d4.complement([4, 2, 2]) == (1, 3)
    assert d4.complement(()) == (1, 2, 3, 4)
    assert d4.complement((1, 2, 3, 4)) == ()
    with pytest.raises(InvalidInputError, match="out of range"):
        d4.complement((5,))


def test_parabolic_subsystem_matches_standard():
    b3 = build_root_system("B", 3)
    sub, index_map = parabolic_subsystem(b3, (1, 2))
    a2 = build_root_system("A", 2)
    assert sub.cartan == a2.cartan
    assert index_map == {1: 1, 2: 2}
    assert len(sub.positive_roots) == 3
    sub2, imap2 = parabolic_subsystem(b3, (2, 3))
    b2 = build_root_system("B", 2)
    assert sub2.cartan == b2.cartan
    assert len(sub2.positive_roots) == 4


def test_positive_root_count_is_checked_for_named_types_only():
    g2 = build_root_system("G", 2)
    with pytest.raises(InternalConsistencyError, match="tables say 3"):
        RootSystem("A", 2, g2.cartan, g2.symmetrizer)
    sub = RootSystem("sub", 2, g2.cartan, g2.symmetrizer, name="G2-like")
    assert len(sub.positive_roots) == 6 and sub.name == "G2-like"


def test_length_bound_up_to_rank_4():
    # l(s_gamma) <= <2 rho, gamma^vee> - 1 for every positive root.
    systems = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
               ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]
    for series, rank in systems:
        rs = build_root_system(series, rank)
        for gamma in rs.positive_roots:
            bound = rs.two_rho_pairing(rs.coroot_of(gamma)) - 1
            assert weyl.reflection(rs, gamma).length <= bound
