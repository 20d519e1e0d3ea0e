"""Walk through QH*(Fl_3): the multiplication table, the grading table,
and the filtration property, printed step by step."""

from qhflag import (QuantumFlagRing, build_root_system, canonical_order,
                    format_qclass, format_term)
from qhflag.cli import grading_table_cells
from qhflag.grading import grading_add

rs = build_root_system("A", 2)
ring = QuantumFlagRing(rs)
op = canonical_order(rs, (1,))

print("== the full multiplication table of QH*(Fl_3) ==")
for u, v, qc in ring.multiplication_table():
    if u.length and v.length and ring.index[u] <= ring.index[v]:
        print(f"  s{list(u.word())} * s{list(v.word())} = {format_qclass(qc)}")

print("\n== gradings: gr(q1) =", op.gr_q(1), ", gr(q2) =", op.gr_q(2), "==")
cells = grading_table_cells(rs, op, -2, 4, 0, 6, max_weyl=2000)
print("grading table, rows i = 4..-2, columns j = 0..6:")
for i in range(4, -3, -1):
    row = [" ".join(format_term(1, enumerate(lam, start=1), w)
                    for w, lam in cells.get((i, j), []))
           or "0" for j in range(7)]
    print("  " + " | ".join(f"{c:>14}" for c in row))

print("\n== every product respects gr(term) <= gr(u) + gr(v) ==")
checked = 0
for u, v, qc in ring.multiplication_table():
    bound = grading_add(op.gr_weyl(u), op.gr_weyl(v))
    for (w, lam), c in qc.terms.items():
        assert op.gr(w, lam) <= bound
        checked += 1
print(f"  verified on {checked} product terms across all 36 pairs")
