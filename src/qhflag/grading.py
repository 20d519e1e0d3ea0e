"""Grading maps attached to an ordered parabolic subset.

An OrderedParabolic carries a connected proper subset of simple roots
together with a linear order (alpha_1, ..., alpha_r) whose prefixes
Delta_j = {alpha_1, ..., alpha_j} are single-bond chains ending at alpha_j
(for j up to sigma; sigma = r when the subset is an A-chain, r - 1
otherwise).  The grading map sends a basis element q^lambda sigma^w of
QH*(G/B) to a vector in Z^{r+1}, compared lexicographically:

* gr(w) records the lengths of the factors of the chain decomposition of w
  (equivalently, the inversion counts in the successive root layers; both
  are computed and must agree);
* gr of each quantum variable is defined by a recursion through the
  comparison lift of the previous chain level;
* gr is additive in lambda: gr(q^lambda) = sum_k lambda_k gr(q_k).

Empty, non-proper and disconnected subsets raise InvalidInputError.

Canonical orders are produced by matching the subset against a finite list
of labelled presentations of the ambient diagram (one list per Cartan
type), mirroring the fibration-compatible choices; ties between equivalent
presentations are broken deterministically (lowest case first, then
lexicographically smallest index tuple).

An OrderedParabolic caches gr_weyl per element and gr(q^lambda) per lambda
(the lambda table, which checks lambda); all safe for concurrent reads.
"""

from __future__ import annotations

from operator import add
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from .errors import InternalConsistencyError, InvalidInputError
from .qchev import int_exponents
from .rootsys import RootSystem
from . import pwlift, weyl
from .weyl import WeylElt

Grading = Tuple[int, ...]
_INT = frozenset((int,))  # the one type a lambda entry may have


def grading_add(a: Grading, b: Grading) -> Grading:
    return tuple(map(add, a, b))


# ---------------------------------------------------------------------------
# Dynkin-diagram helpers
# ---------------------------------------------------------------------------

def connected_components(rs: RootSystem, indices: Iterable[int]) -> List[Tuple[int, ...]]:
    """Connected components of the sub-diagram, each sorted ascending."""
    todo = set(rs.check_parabolic(indices))
    comps = []
    while todo:
        frontier = [min(todo)]
        comp = set(frontier)
        while frontier:
            i = frontier.pop()
            for j in list(todo - comp):
                if rs.adjacent(i, j):
                    comp.add(j)
                    frontier.append(j)
        comps.append(tuple(sorted(comp)))
        todo -= comp
    return comps


def is_connected(rs: RootSystem, indices: Iterable[int]) -> bool:
    return len(connected_components(rs, indices)) == 1


def is_a_chain(rs: RootSystem, indices: Iterable[int]) -> bool:
    """True iff the sub-diagram is a connected single-bond path."""
    ind = rs.check_parabolic(indices)
    if not ind or not is_connected(rs, ind):
        return False
    degs = []
    for i in ind:
        nb = [j for j in ind if rs.adjacent(i, j)]
        if any(rs.bond(i, j) != 1 for j in nb):
            return False
        degs.append(len(nb))
    return all(d <= 2 for d in degs) and degs.count(1) == (2 if len(ind) > 1 else 0)


# ---------------------------------------------------------------------------
# Canonical orders
# ---------------------------------------------------------------------------

# Each presentation relabels the ambient diagram as positions 1..n.  A valid
# match places the ordered subset on consecutive circle positions
# o+1..o+r, subject to a per-case condition on (o, r, kappa = o + r).


def _presentations(rs: RootSystem):
    """Yield (case, beta, circles, cond) for the ambient diagram.

    ``beta`` maps 0-based position to a 1-based simple index (entries may
    be absent for the smaller E ranks), ``circles`` is the set of 1-based
    positions available to the subset, ``cond(o, r, kappa)`` gates the
    placement.
    """
    n = rs.n
    s = rs.series
    if s == "A":
        for beta in (tuple(range(1, n + 1)), tuple(range(n, 0, -1))):
            yield 1, beta, frozenset(range(1, n + 1)), \
                lambda o, r, k: k <= n - 1
    elif s in ("B", "C"):
        ident = tuple(range(1, n + 1))
        yield 1, ident, frozenset(range(1, n + 1)), \
            lambda o, r, k: k <= n - 1
    elif s == "D":
        ident = tuple(range(1, n + 1))
        swap = tuple(range(1, n - 1)) + (n, n - 1)
        for beta in (ident, swap):
            yield 2, beta, frozenset(range(1, n)), \
                lambda o, r, k: k <= n - 2 or (r >= 3 and k == n - 1)
        tail = tuple(range(n - 3, 0, -1))
        for beta in ((n - 1, n - 2, n) + tail, (n, n - 2, n - 1) + tail):
            yield 3, beta, frozenset({1, 2, 3}), \
                lambda o, r, k: o == 0 and k <= 3
    elif s == "E":
        # One labelling scheme for each case, inherited from the largest
        # E-diagram; positions whose node exceeds n are unusable.
        yield from [
            (4, (8, 7, 6, 5, 4, 3, 1, 2), frozenset(range(1, 8)),
             lambda o, r, k: k <= 5 or (r >= 3 and k == 6) or (r >= 5 and k == 7)),
            (5, (1, 3, 4, 2, 5, 6, 7, 8), frozenset({1, 2, 3, 4}),
             lambda o, r, k: k <= 3 or (r >= 3 and k == 4)),
            (6, (1, 3, 4, 5, 6, 7, 8, 2), frozenset({1, 2, 3, 4}),
             lambda o, r, k: o == 0 and k == 4 and r == 4),
            (7, (8, 7, 6, 5, 4, 2, 3, 1), frozenset(range(1, 7)),
             lambda o, r, k: k == 6 and r >= 3),
            (8, (2, 4, 5, 6, 7, 8, 3, 1), frozenset({1, 2}),
             lambda o, r, k: o == 0 and k == 2),
        ]
    elif s == "F":
        yield 9, (1, 2, 3, 4), frozenset({1, 2}), lambda o, r, k: o == 0 and k == 2
        yield 10, (4, 3, 2, 1), frozenset({1, 2}), lambda o, r, k: o == 0 and k == 2
    # G2 never reaches the table: a proper connected subset has rank 1.


def _placements(rs: RootSystem, target: FrozenSet[int], width: int):
    """All (case, order, extra_node) placements of ``target`` on a run of
    ``width`` circle positions, with the position after the run recorded."""
    n_nodes = rs.n
    out = []
    for case, beta, circles, cond in _presentations(rs):
        positions = {idx: p + 1 for p, idx in enumerate(beta) if idx <= n_nodes}
        if not all(i in positions for i in target):
            continue
        pos = sorted(positions[i] for i in target)
        o, kappa = pos[0] - 1, pos[-1]
        if (kappa - o != width or len(pos) != width
                or not all(p in circles for p in pos)
                or not cond(o, width, kappa)):
            continue
        order = tuple(beta[p - 1] for p in range(o + 1, kappa + 1))
        extra = beta[kappa] if kappa < len(beta) and beta[kappa] <= n_nodes else None
        out.append((case, order, extra))
    return out


def _checked_subset(rs: RootSystem, indices: Iterable[int]) -> Tuple[int, ...]:
    """The sorted subset, unless it is empty, not proper or disconnected."""
    ind = rs.check_parabolic(indices)
    if not 1 <= len(ind) < rs.n:
        raise InvalidInputError(
            f"parabolic subset must be proper and nonempty (got {ind})")
    if not is_connected(rs, ind):
        raise InvalidInputError(f"parabolic subset {ind} is disconnected")
    return ind


def canonical_order(rs: RootSystem, indices: Iterable[int]) -> "OrderedParabolic":
    """The canonical linear order on a connected proper parabolic subset."""
    ind = _checked_subset(rs, indices)
    r = len(ind)
    if r == 1:
        return OrderedParabolic(rs, ind)
    target = frozenset(ind)
    if is_a_chain(rs, ind):
        cands = [(case, order) for case, order, _ in _placements(rs, target, r)
                 if frozenset(order) == target]
        if not cands:
            raise InternalConsistencyError(
                f"no presentation covers the A-chain {ind} in {rs.name}")
        return OrderedParabolic(rs, min(cands)[1])
    # Not an A-chain: order the unique A-chain part first, removed node last.
    if r == 2:
        if rs.series in ("B", "C"):
            return OrderedParabolic(rs, (rs.n - 1, rs.n))
        if rs.series == "F":
            return OrderedParabolic(rs, (3, 2))
        raise InvalidInputError(
            f"rank-2 non-chain subset {ind} unsupported in type {rs.series}")
    sigma = r - 1
    cands = []
    for alpha in ind:
        rest = target - {alpha}
        if not is_a_chain(rs, tuple(sorted(rest))):
            continue
        for case, order, extra in _placements(rs, rest, sigma):
            if frozenset(order) == rest and extra == alpha:
                full = order + (alpha,)
                # The table prefers its last D-inside-E case when both match.
                pref = 0 if case == 7 else 1
                cands.append((pref, case, full))
    if not cands:
        raise InternalConsistencyError(
            f"no presentation covers the subset {ind} in {rs.name}")
    return OrderedParabolic(rs, min(cands)[2])


def ordered_parabolic(rs: RootSystem, parabolic: Iterable[int],
                      order: Optional[Sequence[int]] = None) -> "OrderedParabolic":
    """The parabolic subset in the given order, else in the canonical one."""
    par = rs.check_parabolic(parabolic)
    if order is None:
        return canonical_order(rs, par)
    if tuple(sorted(order)) != par:
        raise InvalidInputError(
            f"order {tuple(order)} must permute the parabolic {par}")
    return OrderedParabolic(rs, order)


# ---------------------------------------------------------------------------
# OrderedParabolic and the grading map
# ---------------------------------------------------------------------------

class OrderedParabolic:
    """A connected proper parabolic subset with a validated linear order."""

    def __init__(self, rs: RootSystem, order: Sequence[int]):
        self.rs = rs
        self.order = tuple(order)
        self.r = len(self.order)
        if len(set(self.order)) != self.r:
            raise InvalidInputError("order contains repeated indices")
        _checked_subset(rs, self.order)
        self.is_a_type = is_a_chain(rs, self.order)
        self.sigma = self.r if self.is_a_type else self.r - 1
        for j in range(2, self.sigma + 1):
            prefix = self.order[:j]
            if not is_a_chain(rs, prefix):
                raise InvalidInputError(
                    f"prefix {prefix} is not a single-bond chain")
            deg = sum(1 for i in prefix[:-1] if rs.adjacent(prefix[-1], i))
            if deg != 1:
                raise InvalidInputError(
                    f"{prefix[-1]} is not an end node of the prefix {prefix}")
        self.position = {idx: j + 1 for j, idx in enumerate(self.order)}
        # Root layers R^+_{P_k} \ R^+_{P_{k-1}} for the inversion formula.
        self.layers: List[FrozenSet] = []
        prev: FrozenSet = frozenset()
        for j in range(1, self.r + 1):
            cur = frozenset(rs.positive_roots_within(self.order[:j]))
            self.layers.append(cur - prev)
            prev = cur
        self.layers.append(frozenset(rs.positive_roots) - prev)
        self._inversions_per_layer = weyl.inversion_counter(rs, self.layers)
        self._grw: Dict[WeylElt, Grading] = {}
        self._grq: Dict[int, Grading] = {}
        self._grql: Dict[Tuple[int, ...], Grading] = {}
        self._build_q_table()

    # -- construction of the q-grading table --------------------------------

    def _build_q_table(self) -> None:
        self._grq[self.order[0]] = (2,) + (0,) * self.r
        for j in range(2, self.r + 1):
            idx = self.order[j - 1]
            self._grq[idx] = self._gr_q_recursive(idx, self.order[:j - 1], j)
        for idx in self.rs.complement(self.order):
            self._grq[idx] = self._gr_q_recursive(idx, self.order, self.r + 1)

    def _gr_q_recursive(self, idx: int, parabolic: Tuple[int, ...],
                        level: int) -> Grading:
        """gr(q_idx) = (l(omega) + 2 + 2 sum a) e_level - gr(omega) - gr(q^a)
        from the lift of alpha_idx^vee, a = lambda_B on ``parabolic``; gr(q^a)
        is final, as ``parabolic`` holds earlier levels only."""
        rs = self.rs
        lift = pwlift.pw_lift(rs, parabolic, rs.simple_coroot(idx))
        if lift.lambda_B[idx - 1] != 1 or any(
                lift.lambda_B[k - 1] for k in rs.complement(parabolic)
                if k != idx):
            raise InternalConsistencyError("comparison lift left the level")
        a = lift.lambda_B[:idx - 1] + (0,) + lift.lambda_B[idx:]
        head = lift.length + 2 + 2 * sum(a)
        g = tuple((head if k == level - 1 else 0) - x
                  for k, x in enumerate(self.gr_weyl(lift.omega_factor)))
        return tuple(x - y for x, y in zip(g, self.gr_q_lambda(a)))

    # -- gradings ------------------------------------------------------------

    def gr_q(self, idx: int) -> Grading:
        """Grading of the quantum variable q_idx (1-based simple index)."""
        self.rs._check_index(idx)
        return self._grq[idx]

    def gr_weyl(self, w: WeylElt) -> Grading:
        """Grading of a Weyl element, computed two independent ways."""
        g = self._grw.get(w)
        if g is None:
            if w.rs != self.rs:
                raise InvalidInputError("Weyl element of another root system")
            parts = weyl._full_decomposition(w, self.order)  # order checked
            via_dec = tuple(p.length for p in parts)
            via_inv = self._inversions_per_layer(w)
            if via_dec != via_inv:
                raise InternalConsistencyError(
                    f"decomposition and inversion gradings disagree on {w!r}")
            g = self._grw[w] = via_dec
        return g

    def gr(self, w: WeylElt, lam: Optional[Sequence[int]] = None) -> Grading:
        """Grading of the basis element q^lam sigma^w."""
        g = self.gr_weyl(w)
        return g if lam is None else grading_add(g, self.gr_q_lambda(lam))

    def graded_basis(self, elements: Iterable[WeylElt],
                     lams: Sequence[Tuple[int, ...]], width: int,
                     keep: Callable[[Grading], bool]
                     ) -> Dict[Grading, List[Tuple[WeylElt, Tuple[int, ...]]]]:
        """Each (w, lam) of elements x lams, w-major, whose grading vanishes
        past its first ``width`` coordinates, keyed by them if ``keep`` does."""
        buckets: Dict[Grading, list] = {}
        grql = [(lam, self.gr_q_lambda(lam)) for lam in lams]
        for w in elements:
            gw = self.gr_weyl(w)
            for lam, gq in grql:
                g = grading_add(gw, gq)
                if not any(g[width:]) and keep(g[:width]):
                    buckets.setdefault(g[:width], []).append((w, lam))
        return buckets

    def gr_q_lambda(self, lam: Sequence[int]) -> Grading:
        """Grading of the monomial q^lam, served from the per-lambda table.
        lam is checked on a miss, and on a hit whenever an entry is not an
        int: True or 1.0 would otherwise be served the entry of 1."""
        key = tuple(lam)
        g = self._grql.get(key)
        if g is None or not _INT.issuperset(map(type, key)):
            if len(key) != self.rs.n:
                raise InvalidInputError("lambda must have one entry per simple root")
            terms = [(b, self._grq[k])
                     for k, b in enumerate(int_exponents(key), start=1) if b]
            g = self._grql.setdefault(key, tuple(
                sum(b * y[i] for b, y in terms) for i in range(self.r + 1)))
        return g

    # -- chain elements and graded representatives ---------------------------

    def u_elt(self, i: int, m: int) -> WeylElt:
        """u_i^(m): the descending product s_{m-i+1} ... s_m of ordered roots."""
        if not 0 <= i <= m <= self.r:
            raise InvalidInputError("u_i^(m) needs 0 <= i <= m <= r")
        word = [self.order[k - 1] for k in range(m - i + 1, m + 1)]
        return weyl.word_to_element(self.rs, word)

    def unique_basis_element(self, d: Sequence[int]) -> Tuple[WeylElt, Tuple[int, ...]]:
        """The unique (w, lambda) whose grading is d on the first sigma
        coordinates and zero beyond them."""
        s = self.sigma
        if len(d) != s or any(type(x) is not int for x in d):
            raise InvalidInputError(f"expected sigma={s} integers, got {tuple(d)}")
        a = [0] * (s + 2)  # 1-based, a[s+1] stays 0
        b = [0] * (s + 1)
        for i in range(s, 0, -1):
            a[i], b[i] = divmod(d[i - 1] + i * a[i + 1], i + 1)
        w = weyl.identity(self.rs)
        for i in range(s, 0, -1):
            w = weyl.multiply(w, self.u_elt(b[i], i))
        lam = [0] * self.rs.n
        for i in range(1, s + 1):
            lam[self.order[i - 1] - 1] = a[i]
        lam_t = tuple(lam)
        got = self.gr(w, lam_t)
        if got != tuple(d) + (0,) * (self.r + 1 - s):
            raise InternalConsistencyError(
                f"graded representative of {tuple(d)} reproduced {got}")
        return w, lam_t
