"""The three benchmark workloads and their correctness gates.

Each workload has the same shape:

* ``setup()`` builds the long-lived inputs that are not part of the timed
  phase (a cold ring, or nothing when the entry point builds its own);
* ``draw(rng)`` makes the inputs of one round from the seeded generator;
* ``run(state, inputs, tracer)`` is the timed phase and returns one output
  (or the exception it raised) per operation;
* ``check(state, inputs, outputs)`` compares every output with the stored
  reference and returns ``(attempted, failed)``.

Library functions are looked up on their modules at call time, so that the
tracer's wrappers (installed by patching those module attributes) see every
call the workloads make.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import os
import sys
import zlib
from array import array

from qhflag import cli, pwlift, qchev, rootsys

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _set_op(tracer, i: int) -> None:
    if tracer is not None:
        tracer.op = i


def _failure(exc: Exception) -> Exception:
    """Report an operation that raised on stderr; it counts as failed."""
    print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return exc


# ---------------------------------------------------------------------------
# products-D4: the full QH*(G/B) product table of D4 in a shuffled order
# ---------------------------------------------------------------------------

def pair_slot(i: int, j: int, n: int) -> int:
    """Index of the unordered pair {i, j} among the n(n+1)/2 pairs.

    Products are commutative, so sigma^u * sigma^v and sigma^v * sigma^u
    are checked against one stored crc32.
    """
    if i > j:
        i, j = j, i
    return i * n - i * (i - 1) // 2 + (j - i)


def table_sha256(words, texts) -> str:
    """sha256 over the product table, one line per ordered pair.

    ``words`` are the reduced words of the ring's elements and ``texts``
    maps (i, j) element indices to the serialised product.  Lines are
    sorted by (i, j), so the digest does not depend on the order the
    products were computed in.
    """
    sha = hashlib.sha256()
    for (i, j) in sorted(texts):
        sha.update(_dumps([words[i], words[j]]).encode()
                   + texts[(i, j)].encode() + b"\n")
    return sha.hexdigest()


class ProductsD4:
    """Every quantum product sigma^u * sigma^v of D4 on a cold ring."""

    name = "products-D4"

    def __init__(self, reference: dict):
        ref = reference[self.name]
        self.n = ref["elements"]
        self.table_sha256 = ref["table_sha256"]
        self.crcs = array("I")
        self.crcs.frombytes(base64.b64decode(ref["pair_crc32"]))

    def setup(self):
        return qchev.QuantumFlagRing(rootsys.build_root_system("D", 4))

    def draw(self, rng):
        order = list(range(self.n * self.n))
        rng.shuffle(order)
        return [divmod(k, self.n) for k in order]

    def run(self, ring, inputs, tracer):
        elements = ring.elements
        outputs = []
        for op, (i, j) in enumerate(inputs):
            _set_op(tracer, op)
            try:
                qc = ring.quantum_product(elements[i], elements[j])
                outputs.append(qchev.qclass_to_json(qc))
            except Exception as exc:  # counted as a failed operation
                outputs.append(_failure(exc))
        return outputs

    def check(self, ring, inputs, outputs):
        """Per-product crc against the reference, then the table digest."""
        if len(ring.elements) != self.n:
            return len(inputs), len(inputs)
        texts = {pair: _dumps(out) for pair, out in zip(inputs, outputs)
                 if not isinstance(out, Exception)}
        failed = len(inputs) - len(texts)
        failed += sum(1 for (i, j), text in texts.items()
                      if zlib.crc32(text.encode())
                      != self.crcs[pair_slot(i, j, self.n)])
        words = [list(w.word()) for w in ring.elements]
        if failed == 0 and table_sha256(words, texts) != self.table_sha256:
            failed = len(inputs)
        return len(inputs), failed


# ---------------------------------------------------------------------------
# keylemma-F4: the exhaustive key-lemma suite through the CLI
# ---------------------------------------------------------------------------

KEYLEMMA_ARGV = ["verify", "F4", "--parabolic", "1,2", "--suites",
                 "key-lemma", "--format", "json"]


class KeylemmaF4:
    """``qhflag verify F4 --parabolic 1,2 --suites key-lemma``, in-process.

    The suite is exhaustive, so the seed does not change its input.
    """

    name = "keylemma-F4"

    def __init__(self, reference: dict):
        self.total = reference[self.name]["total"]

    def setup(self):
        return None

    def draw(self, rng):
        return [KEYLEMMA_ARGV]

    def run(self, state, inputs, tracer):
        outputs = []
        for op, argv in enumerate(inputs):
            _set_op(tracer, op)
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(argv))
                outputs.append((code, buf.getvalue()))
            except Exception as exc:  # counted as failed cases
                outputs.append(_failure(exc))
        return outputs

    def check(self, state, inputs, outputs):
        """One attempted operation per suite case."""
        attempted = failed = 0
        for out in outputs:
            attempted += self.total
            failed += self._failed_cases(out)
        return attempted, failed

    def _failed_cases(self, out) -> int:
        """Failed cases of one suite run; a malformed run fails them all."""
        if isinstance(out, Exception):
            return self.total
        code, text = out
        try:
            (report,) = json.loads(text)["reports"]
            suite, total, failures = (report["suite"], report["total"],
                                      len(report["failures"]))
        except (ValueError, KeyError, TypeError):
            return self.total
        if suite != "key-lemma" or total != self.total:
            return self.total
        if code != 0 and failures == 0:
            return self.total
        return failures


# ---------------------------------------------------------------------------
# qhp-B4: QH*(G/P) products through the comparison lift
# ---------------------------------------------------------------------------

def qhp_terms(result: dict) -> list:
    """Serialise a ``qhp_product`` result as sorted [word, exponents, coeff]."""
    terms = [[list(w.word()), list(exps), int(c)]
             for (w, exps), c in result.items()]
    terms.sort(key=lambda t: (len(t[0]), t[0], t[1]))
    return terms


def qhp_key(u_word, v_word) -> str:
    return "%s;%s" % (",".join(map(str, u_word)), ",".join(map(str, v_word)))


class QhpB4:
    """qhp_product over B4/P(1,2,3) on one shared ring per round.

    A round is a seed-drawn matching of W^P with itself: the pairs
    (u, pi(u)) for a random permutation pi, visited in a random order.
    Every u and every v of W^P occurs exactly once per round, so rounds of
    different seeds do the same mix of short and long products.
    """

    name = "qhp-B4"

    def __init__(self, reference: dict):
        ref = reference[self.name]
        self.parabolic = tuple(ref["parabolic"])
        self.wp_words = [tuple(w) for w in ref["wp_words"]]
        self.products = ref["products"]

    def setup(self):
        return qchev.QuantumFlagRing(rootsys.build_root_system("B", 4))

    def draw(self, rng):
        perm = list(range(len(self.wp_words)))
        rng.shuffle(perm)
        pairs = [(self.wp_words[i], self.wp_words[perm[i]])
                 for i in range(len(perm))]
        rng.shuffle(pairs)
        return pairs

    def run(self, ring, inputs, tracer):
        outputs = []
        for op, (u_word, v_word) in enumerate(inputs):
            _set_op(tracer, op)
            try:
                u = ring.element_from_word(u_word)
                v = ring.element_from_word(v_word)
                outputs.append(pwlift.qhp_product(ring, self.parabolic, u, v))
            except Exception as exc:  # counted as a failed operation
                outputs.append(_failure(exc))
        return outputs

    def check(self, ring, inputs, outputs):
        failed = 0
        for (u_word, v_word), out in zip(inputs, outputs):
            if (isinstance(out, Exception)
                    or qhp_terms(out) != self.products[qhp_key(u_word, v_word)]):
                failed += 1
        return len(inputs), failed


WORKLOADS = {cls.name: cls for cls in (ProductsD4, KeylemmaF4, QhpB4)}
