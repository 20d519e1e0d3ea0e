"""Finite crystallographic root systems of types A-G with exact integer tables.

Roots (resp. coroots) are integer coefficient vectors over the simple roots
(resp. simple coroots), stored as plain tuples.  Simple roots are addressed
by 1-based Bourbaki indices throughout the public API; tuple positions are
0-based.

Cartan convention: ``cartan[i][j] = <alpha_j, alpha_i^vee>`` (0-based
storage).  The symmetrizer ``d`` satisfies ``d[i] * cartan[i][j] ==
d[j] * cartan[j][i]`` and is normalized so short roots get 1.

Instances are immutable after construction apart from the lazily filled
tables in ``_cache`` (the Weyl table, and the comparison lifts and W^P of
``pwlift``), and safe for unrestricted concurrent reads.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import InternalConsistencyError, InvalidInputError

Root = Tuple[int, ...]
Coroot = Tuple[int, ...]

RANK_CAP = 8

_VALID_SERIES = "ABCDEFG"

# Minimal / maximal rank per series (D3 = A3 and B1 = A1 are rejected to keep
# labels unambiguous; E/F/G exist only at their classical ranks).
_RANK_RANGE = {
    "A": (1, RANK_CAP),
    "B": (2, RANK_CAP),
    "C": (2, RANK_CAP),
    "D": (4, RANK_CAP),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _expected_positive_count(series: str, n: int) -> int:
    if series == "A":
        return n * (n + 1) // 2
    if series in ("B", "C"):
        return n * n
    if series == "D":
        return n * (n - 1)
    if series == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    if series == "F":
        return 24
    return 6  # G2


def _cartan_and_symmetrizer(series: str, n: int):
    """Cartan matrix and symmetrizer in Bourbaki numbering."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        # 1-based node labels; a[i][j] = <alpha_j, alpha_i^vee>.
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    d = [1] * n
    if series in ("A", "B", "C"):
        for i in range(1, n):
            bond(i, i + 1)
        if series == "B":
            # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2.
            a[n - 1][n - 2] = -2
            d = [2] * (n - 1) + [1]
        elif series == "C":
            # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2.
            a[n - 2][n - 1] = -2
            d = [1] * (n - 1) + [2]
    elif series == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 2, n)
    elif series == "E":
        for i, j in [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]:
            if j <= n:
                bond(i, j)
        bond(2, 4)
    elif series == "F":
        bond(1, 2)
        bond(2, 3, aij=-1, aji=-2)  # <alpha_2, alpha_3^vee> = -2
        bond(3, 4)
        d = [2, 2, 1, 1]
    elif series == "G":
        # alpha_1 short, alpha_2 long: <alpha_2, alpha_1^vee> = -3.
        bond(1, 2, aij=-3, aji=-1)
        d = [1, 3]
    return tuple(tuple(row) for row in a), tuple(d)


class RootSystem:
    """Root and coroot tables for one Cartan type and rank."""

    def __init__(self, series: str, rank: int, cartan, symmetrizer,
                 name: Optional[str] = None):
        self.series = series
        self.n = rank
        self._name = name if name is not None else f"{series}{rank}"
        self.cartan = tuple(tuple(row) for row in cartan)
        self.symmetrizer = tuple(symmetrizer)
        self._validate_cartan()
        self.positive_roots: Tuple[Root, ...] = self._generate_positive_roots()
        self._posset = frozenset(self.positive_roots)
        if series in _RANK_RANGE:
            expected = _expected_positive_count(series, rank)
            if len(self.positive_roots) != expected:
                raise InternalConsistencyError(
                    f"{series}{rank}: generated {len(self.positive_roots)} "
                    f"positive roots, tables say {expected}")
        self._key = (self.series, self.n, self.cartan)
        self._cache: Dict = {}  # lazy per-system tables (Weyl, lifts, W^P)

    # -- construction ------------------------------------------------------

    def _validate_cartan(self) -> None:
        n = self.n
        a, d = self.cartan, self.symmetrizer
        if len(a) != n or any(len(row) != n for row in a):
            raise InvalidInputError("cartan matrix must be n x n")
        for i in range(n):
            if a[i][i] != 2:
                raise InvalidInputError("cartan diagonal entries must equal 2")
            for j in range(n):
                if i != j and a[i][j] not in (0, -1, -2, -3):
                    raise InvalidInputError(
                        f"cartan[{i}][{j}]={a[i][j]} outside {{0,-1,-2,-3}}")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise InvalidInputError("cartan zero pattern not symmetric")
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise InvalidInputError("symmetrizer does not symmetrize cartan")

    def _generate_positive_roots(self) -> Tuple[Root, ...]:
        n = self.n
        simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(1, n + 1):
                    img = self.reflect_root(i, beta)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        pos = [v for v in seen if all(c >= 0 for c in v)]
        pos.sort(key=lambda v: (sum(v), v))
        neg = {tuple(-c for c in v) for v in pos}
        if seen != set(pos) | neg:
            raise InternalConsistencyError("root set is not symmetric")
        return tuple(pos)

    # -- basic queries -----------------------------------------------------

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, RootSystem) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"RootSystem({self._name})"

    @property
    def name(self) -> str:
        return self._name

    def simple_root(self, i: int) -> Root:
        self._check_index(i)
        return tuple(1 if k == i - 1 else 0 for k in range(self.n))

    def simple_coroot(self, i: int) -> Coroot:
        return self.simple_root(i)  # e_i in simple-coroot coordinates

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise InvalidInputError(f"simple index {i} out of range 1..{self.n}")

    def is_positive_root(self, v: Root) -> bool:
        return tuple(v) in self._posset

    def is_root(self, v: Root) -> bool:
        v = tuple(v)
        return v in self._posset or tuple(-c for c in v) in self._posset

    # -- reflections and pairings ------------------------------------------

    def reflect_root(self, i: int, beta: Root) -> Root:
        """s_i(beta) = beta - <beta, alpha_i^vee> alpha_i on the root lattice."""
        c = sum(a * b for a, b in zip(self.cartan[i - 1], beta))
        return tuple(b - c * (k == i - 1) for k, b in enumerate(beta))

    def pairing(self, beta: Root, lam: Coroot) -> int:
        """<beta, lam> for a root-lattice vector and a coroot-lattice vector."""
        if len(beta) != self.n or len(lam) != self.n:
            raise InvalidInputError("pairing: dimension mismatch")
        return sum(e * sum(a * b for a, b in zip(row, beta))
                   for e, row in zip(lam, self.cartan))

    def coroot_of(self, gamma: Root) -> Coroot:
        """gamma^vee in simple-coroot coordinates (symmetrizer formula)."""
        gamma = tuple(gamma)
        if not self.is_root(gamma):
            raise InvalidInputError(f"{gamma} is not a root")
        norm2 = sum(d * a * gamma[i] * gamma[j]  # (gamma, gamma), symmetrized
                    for i, d in enumerate(self.symmetrizer)
                    for j, a in enumerate(self.cartan[i]))
        if norm2 <= 0 or norm2 % 2:
            raise InternalConsistencyError(f"bad root norm {norm2} for {gamma}")
        dg = norm2 // 2
        out = []
        for j in range(self.n):
            num = gamma[j] * self.symmetrizer[j]
            if num % dg:
                raise InternalConsistencyError(
                    f"coroot of {gamma} is not integral")
            out.append(num // dg)
        return tuple(out)

    def two_rho_pairing(self, lam: Coroot) -> int:
        """<2 rho, lam>; equals 2 * sum of coroot coordinates."""
        return 2 * sum(lam)

    # -- subsets -----------------------------------------------------------

    def check_parabolic(self, indices: Iterable[int]) -> Tuple[int, ...]:
        ind = tuple(sorted(set(indices)))
        for i in ind:
            self._check_index(i)
        return ind

    def complement(self, indices: Iterable[int]) -> Tuple[int, ...]:
        """The simple indices outside the given subset, ascending."""
        ind = set(self.check_parabolic(indices))
        return tuple(i for i in range(1, self.n + 1) if i not in ind)

    def positive_roots_within(self, indices: Iterable[int]) -> Tuple[Root, ...]:
        """Positive roots supported on the given simple indices."""
        ind = set(self.check_parabolic(indices))
        out = []
        for beta in self.positive_roots:
            if all(beta[k] == 0 or (k + 1) in ind for k in range(self.n)):
                out.append(beta)
        return tuple(out)

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and self.cartan[i - 1][j - 1] != 0

    def bond(self, i: int, j: int) -> int:
        """Number of Dynkin-diagram edges between nodes i and j (0..3)."""
        return self.cartan[i - 1][j - 1] * self.cartan[j - 1][i - 1]


def build_root_system(series: str, rank: int) -> RootSystem:
    """Build the root system of the given finite type.

    Raises InvalidInputError naming the violated constraint for any
    (series, rank) outside the supported finite types or above the rank cap.
    """
    if not isinstance(series, str) or series.upper() not in _VALID_SERIES:
        raise InvalidInputError(
            f"series {series!r} invalid: must be one of {_VALID_SERIES}")
    series = series.upper()
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise InvalidInputError("rank must be an integer")
    lo, hi = _RANK_RANGE[series]
    if rank > RANK_CAP:
        raise InvalidInputError(
            f"rank {rank} exceeds the rank cap {RANK_CAP}")
    if not lo <= rank <= hi:
        raise InvalidInputError(
            f"{series}{rank} is not a supported finite type "
            f"(valid {series}-ranks: {lo}..{hi})")
    cartan, d = _cartan_and_symmetrizer(series, rank)
    return RootSystem(series, rank, cartan, d)


def parse_system_id(name: str) -> RootSystem:
    """Parse a '<letter><rank>' id such as 'B3' into a root system."""
    name = name.strip()
    if len(name) < 2 or not name[1:].isdigit():
        raise InvalidInputError(
            f"system id {name!r} must look like 'A2', 'B3', ...")
    return build_root_system(name[0].upper(), int(name[1:]))


def parabolic_subsystem(rs: RootSystem, indices: Sequence[int]) -> Tuple[RootSystem, Dict[int, int]]:
    """Abstract root system on a parabolic subset of simple roots.

    Returns (subsystem, index_map) where index_map sends the ambient
    1-based simple index to the subsystem 1-based index.  The subsystem
    keeps the restricted symmetrizer, so coroots agree with the ambient
    computation.
    """
    ind = rs.check_parabolic(indices)
    if not ind:
        raise InvalidInputError("parabolic subsystem needs at least one index")
    index_map = {orig: k + 1 for k, orig in enumerate(ind)}
    cartan = tuple(tuple(rs.cartan[i - 1][j - 1] for j in ind) for i in ind)
    d = tuple(rs.symmetrizer[i - 1] for i in ind)
    label = f"{rs.name}[{','.join(map(str, ind))}]"
    sub = RootSystem("sub", len(ind), cartan, d, name=label)
    return sub, index_map
