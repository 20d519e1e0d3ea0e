"""Comparison lifting between QH*(G/P) and QH*(G/B).

Every curve class of G/P (a coset lambda_P in Q^vee / Q^vee_P) has a unique
representative lambda_B in Q^vee whose pairing with every positive root of
the parabolic subsystem lies in {0, -1}.  The lift also produces the
parabolic subset Delta_P' of roots pairing to zero and the Weyl factor
omega_P omega_{P'}; together these translate G/P structure constants into
G/B structure constants and induce the injective map psi sending
q^{lambda_P} sigma^v to q^{lambda_B} sigma^{v omega_P omega_{P'}}.  By
Peterson's comparison formula, a G/P product is the part of the G/B
product that lies in the image of psi, read back through psi^{-1}.

The solver inverts the parabolic Cartan block once, with the exact
elimination that also writes Schubert classes over divisors
(``qchev.independent_inverse``), applies the inverse to each of the 2^r
sign patterns for the simple-root pairings, keeps integer solutions, and
filters by the full positive-root condition; exactly one survivor is
required.

A lift depends only on the system, the parabolic and the coset of the
curve class, and W^P only on the system and the parabolic, so each is
solved once and kept in the root system's lazy table (``rs._cache``,
beside the Weyl table).  Input is validated on every call.  The entries
are immutable (frozen ``PWLift``s and tuples) and written only through
``dict.setdefault``, so threads sharing a system share them too.

Curve classes serialize as a JSON map from non-parabolic simple index to a
nonnegative integer exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import InternalConsistencyError, InvalidInputError
from .rootsys import Coroot, RootSystem
from . import weyl
from .qchev import QuantumFlagRing, independent_inverse, int_exponents
from .weyl import WeylElt


@dataclass(frozen=True)
class PWLift:
    """The unique comparison lift of one curve class."""

    lambda_B: Tuple[int, ...]
    delta_P_prime: Tuple[int, ...]
    omega_factor: WeylElt

    @property
    def length(self) -> int:
        return self.omega_factor.length


def lambda_rep(rs: RootSystem, parabolic: Sequence[int],
               lam_P: Union[Mapping[int, int], Sequence[int]]) -> Tuple[int, ...]:
    """Normalize a curve-class encoding to a full coroot-coordinate tuple.

    Mappings are keyed by non-parabolic 1-based simple indices; sequences
    must already have full length n.  Exponents at non-parabolic indices
    must be nonnegative; the parabolic coordinates of a sequence are free,
    since Q^vee_P absorbs them.
    """
    par = set(rs.check_parabolic(parabolic))
    rep = lam_P
    if isinstance(lam_P, Mapping):
        rep = [0] * rs.n
        for key, val in lam_P.items():
            i = int(key)
            rs._check_index(i)
            if i in par:
                raise InvalidInputError(
                    f"index {i} lies in the parabolic subset; curve classes "
                    "are indexed by the complement")
            rep[i - 1] = val
    rep = int_exponents(rep)
    if len(rep) != rs.n:
        raise InvalidInputError("curve-class vector must have length n")
    for i, e in enumerate(rep, 1):
        if e < 0 and i not in par:
            raise InvalidInputError("curve class exponents must be nonnegative")
    return rep


def _pairing_condition(rs: RootSystem, roots, lam: Coroot) -> bool:
    return all(rs.pairing(beta, lam) in (0, -1) for beta in roots)


def _system_table(rs: RootSystem, name: str) -> dict:
    return rs._cache.get(name) or rs._cache.setdefault(name, {})


def pw_lift(rs: RootSystem, parabolic: Iterable[int],
            lam_P: Union[Mapping[int, int], Sequence[int]]) -> PWLift:
    """The unique lift of lam_P + Q^vee_P with pairings in {0, -1}.

    The representative may be any member of the coset; the lift is solved
    once per (parabolic, coset) and kept in the system's lift table.
    """
    par = rs.check_parabolic(parabolic)
    rep = lambda_rep(rs, par, lam_P)
    # One entry per coset: its representative with the parabolic part zeroed.
    rep = tuple(0 if i in par else e for i, e in enumerate(rep, 1))
    lifts = _system_table(rs, "pw_lift")
    key = (par, rep)
    return lifts.get(key) or lifts.setdefault(key, _solve_lift(rs, par, rep))


def _solve_lift(rs: RootSystem, par: Tuple[int, ...],
                rep: Tuple[int, ...]) -> PWLift:
    roots_p = rs.positive_roots_within(par)
    solutions: List[Tuple[int, ...]] = []
    if not par:
        solutions.append(rep)
    else:
        # a = M^{-1} (eps - base), M the parabolic block of the Cartan pairing.
        base = [rs.pairing(rs.simple_root(i), rep) for i in par]
        _, inv = independent_inverse(
            ([rs.cartan[j - 1][i - 1] for i in par] for j in par), len(par))
        for eps in iproduct((0, -1), repeat=len(par)):
            rhs = [e - b for e, b in zip(eps, base)]
            a = [sum(x * y for x, y in zip(row, rhs)) for row in inv]
            if any(x.denominator != 1 for x in a):
                continue
            lam = list(rep)
            for i, x in zip(par, a):
                lam[i - 1] += int(x)
            lam_t = tuple(lam)
            if _pairing_condition(rs, roots_p, lam_t):
                solutions.append(lam_t)
    uniq = sorted(set(solutions))
    if len(uniq) != 1:
        raise InternalConsistencyError(
            f"comparison lift of {rep} over {par} found {len(uniq)} "
            "solutions instead of exactly one")
    lam_B = uniq[0]
    dpp = tuple(i for i in par
                if rs.pairing(rs.simple_root(i), lam_B) == 0)
    omega = weyl.multiply(weyl.longest_element(rs, par),
                          weyl.longest_element(rs, dpp))
    expected = len(roots_p) - len(rs.positive_roots_within(dpp))
    if omega.length != expected:
        raise InternalConsistencyError(
            f"omega factor has length {omega.length}, expected {expected}")
    return PWLift(lam_B, dpp, omega)


def pw_lift_bruteforce(rs: RootSystem, parabolic: Sequence[int],
                       lam_P: Union[Mapping[int, int], Sequence[int]],
                       bound: int = 6) -> List[Tuple[int, ...]]:
    """Independent box search for every lift candidate with |a_i| <= bound."""
    par = rs.check_parabolic(parabolic)
    rep = lambda_rep(rs, par, lam_P)
    roots_p = rs.positive_roots_within(par)
    out = []
    for shifts in iproduct(range(-bound, bound + 1), repeat=len(par)):
        lam = list(rep)
        for i, s in zip(par, shifts):
            lam[i - 1] += s
        lam_t = tuple(lam)
        if _pairing_condition(rs, roots_p, lam_t):
            out.append(lam_t)
    return sorted(out)


def minimal_representatives(rs: RootSystem, parabolic: Sequence[int],
                            cap: int = weyl.WEYL_CAP) -> Tuple[WeylElt, ...]:
    """The minimal coset representatives W^P, sorted by (length, word)."""
    par = rs.check_parabolic(parabolic)
    group = weyl.enumerate_group(rs, cap=cap)  # raises on the cap every call
    reps = _system_table(rs, "minimal_representatives")
    return reps.get(par) or reps.setdefault(par, tuple(
        w for w in group if weyl.is_minimal_representative(w, par)))


def psi_map(rs: RootSystem, parabolic: Sequence[int], v: WeylElt,
            lam_P: Union[Mapping[int, int], Sequence[int]]) -> Tuple[WeylElt, Tuple[int, ...]]:
    """The injective lift of q^{lam_P} sigma^v into the G/B basis."""
    par = rs.check_parabolic(parabolic)
    _check_representatives(par, v)
    lift = pw_lift(rs, par, lam_P)
    return weyl.multiply(v, lift.omega_factor), lift.lambda_B


def quantum_degree(rs: RootSystem, parabolic: Sequence[int], j: int) -> int:
    """Complex degree of the G/P quantum variable attached to simple index j."""
    par = rs.check_parabolic(parabolic)
    if j in par:
        raise InvalidInputError(f"index {j} is parabolic; no quantum variable")
    lift = pw_lift(rs, par, {j: 1})
    return lift.length + rs.two_rho_pairing(lift.lambda_B)


def bounded_compositions(weights: Sequence[int],
                         total: int) -> List[Tuple[int, ...]]:
    """Every e >= 0 with sum(e_k * weights_k) <= total, lexicographically;
    the weights must be positive."""
    tails = [((), 0)]  # (suffix, its weighted sum), built right to left
    for wt in reversed(weights):
        tails = [((e,) + t, used + e * wt) for e in range(total // wt + 1)
                 for t, used in tails if used + e * wt <= total]
    return [t for t, _ in tails]


def _check_representatives(par: Tuple[int, ...], *elements: WeylElt) -> None:
    if not all(weyl.is_minimal_representative(x, par) for x in elements):
        raise InvalidInputError(
            "G/P constants are indexed by minimal coset representatives")


def qhp_structure_constant(ring: QuantumFlagRing, parabolic: Sequence[int],
                           u: WeylElt, v: WeylElt, w: WeylElt,
                           lam_P: Union[Mapping[int, int], Sequence[int]]) -> int:
    """A G/P structure constant, evaluated through the comparison lift."""
    rs = ring.rs
    par = rs.check_parabolic(parabolic)
    _check_representatives(par, u, v)  # psi_map checks w
    return ring.structure_constant(u, v, *psi_map(rs, par, w, lam_P))


def qhp_product(ring: QuantumFlagRing, parabolic: Sequence[int],
                u: WeylElt, v: WeylElt) -> Dict[Tuple[WeylElt, Tuple[int, ...]], int]:
    """sigma^u * sigma^v in the Schubert basis of QH*(G/P).

    Keys are (w, exponent tuple over the sorted complement indices).  The
    G/B product is walked once: a term q^lam sigma^x is psi(w, lam_P)
    exactly when lam is the lift of its own coset and x = w omega with w
    minimal in x W_P, omega the lift's Weyl factor.
    """
    rs = ring.rs
    par = rs.check_parabolic(parabolic)
    _check_representatives(par, u, v)
    comp = rs.complement(par)
    undo: Dict[Tuple[int, ...], Optional[WeylElt]] = {}  # lam -> omega^{-1}
    out: Dict[Tuple[WeylElt, Tuple[int, ...]], int] = {}
    for (x, lam), c in ring.quantum_product(u, v).terms.items():
        if lam not in undo:
            lift = pw_lift(rs, par, lam)
            undo[lam] = (lift.omega_factor.inverse()
                         if lift.lambda_B == lam else None)
        if undo[lam] is not None:
            w = weyl.multiply(x, undo[lam])
            if weyl.is_minimal_representative(w, par):
                out[(w, tuple(lam[j - 1] for j in comp))] = c
    return out
