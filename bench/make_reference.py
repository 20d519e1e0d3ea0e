"""Regenerate ``bench/reference.json`` from the library as it stands.

Run this only at a commit whose outputs are trusted; every benchmark run
compares its outputs with this file.  It takes several minutes:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import sys
import zlib
from array import array

from run import import_library

import_library()

from qhflag import cli, pwlift, qchev, rootsys  # noqa: E402
from workloads import (KEYLEMMA_ARGV, REFERENCE_PATH, KeylemmaF4,  # noqa: E402
                       ProductsD4, QhpB4, _dumps, pair_slot, qhp_key,
                       qhp_terms, table_sha256)


def products_d4() -> dict:
    ring = qchev.QuantumFlagRing(rootsys.build_root_system("D", 4))
    n = len(ring.elements)
    texts = {(i, j): _dumps(qchev.qclass_to_json(
                 ring.quantum_product(ring.elements[i], ring.elements[j])))
             for i in range(n) for j in range(n)}
    crcs = array("I", bytes(4 * (n * (n + 1) // 2)))
    for (i, j), text in texts.items():
        if i <= j:
            crcs[pair_slot(i, j, n)] = zlib.crc32(text.encode())
    words = [list(w.word()) for w in ring.elements]
    return {"elements": n, "table_sha256": table_sha256(words, texts),
            "pair_crc32": base64.b64encode(crcs.tobytes()).decode()}


def keylemma_f4() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(KEYLEMMA_ARGV))
    (report,) = json.loads(out.getvalue())["reports"]
    if code != 0 or report["failures"]:
        sys.exit("key-lemma suite fails; refusing to record a reference")
    return {"total": report["total"]}


def qhp_b4() -> dict:
    parabolic = (1, 2, 3)
    ring = qchev.QuantumFlagRing(rootsys.build_root_system("B", 4))
    reps = pwlift.minimal_representatives(ring.rs, parabolic)
    products = {}
    for u in reps:
        for v in reps:
            products[qhp_key(u.word(), v.word())] = qhp_terms(
                pwlift.qhp_product(ring, parabolic, u, v))
    return {"parabolic": list(parabolic),
            "wp_words": [list(w.word()) for w in reps],
            "products": products}


def main() -> None:
    reference = {QhpB4.name: qhp_b4(), KeylemmaF4.name: keylemma_f4(),
                 ProductsD4.name: products_d4()}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
