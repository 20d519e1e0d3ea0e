"""Command-line front end.

Subcommands: qprod, grading-table, mult-table, pw, qhp, verify.
Exit codes: 0 success, 1 theorem-suite verification failure, 2 usage
error, 3 internal-consistency failure.

Weyl elements are entered as comma-separated 1-based simple indices
(reduced words); non-reduced input is reduced with a warning.  Curve
classes for G/P are entered as 'index:exponent' pairs over the
non-parabolic simple indices, e.g. ``--lambda 3:1``.

A flat key=value config file (``--config``) supplies defaults for any
flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import InternalConsistencyError, InvalidInputError, QHError
from . import pwlift, verify, weyl
from .grading import OrderedParabolic, canonical_order
from .qchev import QuantumFlagRing, format_qclass, format_term, qclass_to_json
from .rootsys import parse_system_id
from .weyl import WeylElt

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

FORMATS = ("markdown", "json", "csv")

_CONFIG_KEYS = ("system", "parabolic", "order", "format", "out", "max-q",
                "max-weyl", "seed", "suites", "u", "v", "lambda")


@dataclass
class RunConfig:
    """Flat key=value run configuration; emit/parse round-trips exactly."""

    values: Dict[str, str] = field(default_factory=dict)

    def to_text(self) -> str:
        return "".join(f"{k}={self.values[k]}\n" for k in sorted(self.values))

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values: Dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidInputError(
                    f"config line {lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise InvalidInputError(
                    f"config line {lineno}: unknown key {key!r}")
            values[key] = val.strip()
        return cls(values)


def _parse_int_list(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidInputError(f"expected comma-separated integers, got {text!r}")


def _parse_lambda(text: str) -> Dict[int, int]:
    text = text.strip()
    out: Dict[int, int] = {}
    if not text or text == "0":
        return out
    if text.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"bad JSON curve class: {exc}")
        try:
            out = {int(k): v for k, v in raw.items()}
        except ValueError:
            raise InvalidInputError(f"bad JSON curve class index in {text!r}")
    else:
        for part in text.split(","):
            if ":" not in part:
                raise InvalidInputError(
                    f"curve class entries look like 'index:exponent', got {part!r}")
            k, _, v = part.partition(":")
            try:
                out[int(k)] = int(v)
            except ValueError:
                raise InvalidInputError(f"bad curve class entry {part!r}")
    return out  # pw_lift checks the exponents


def _word_elt(ring: QuantumFlagRing, text: str, label: str) -> WeylElt:
    word = _parse_int_list(text)
    w = ring.element_from_word(word)
    if w.length != len(word):
        print(f"warning: --{label} word {list(word)} is not reduced; "
              f"using {list(w.word())}", file=sys.stderr)
    return w


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_qprod(args) -> int:
    rs = parse_system_id(args.system)
    ring = QuantumFlagRing(rs, weyl_cap=args.max_weyl)
    u = _word_elt(ring, args.u, "u")
    v = _word_elt(ring, args.v, "v")
    qc = ring.quantum_product(u, v)
    if args.format == "json":
        _emit(json.dumps({"u": list(u.word()), "v": list(v.word()),
                          "terms": qclass_to_json(qc)}, indent=2), args.out)
    elif args.format == "csv":
        rows = ["word;q;coeff"]
        rows += ["%s;%s;%s" % (",".join(map(str, w.word())),
                               ",".join(map(str, lam)), c)
                 for (w, lam), c in qc.sorted_terms()]
        _emit("\n".join(rows), args.out)
    else:
        _emit(format_qclass(qc), args.out)
    return EXIT_OK


def grading_table_cells(rs, op: OrderedParabolic, imin: int, imax: int,
                        jmin: int, jmax: int, max_weyl: int):
    """Basis elements graded (i, j, 0, ..., 0), indexed by cell."""
    ncells = (imax - imin + 1) * (jmax - jmin + 1)
    if imin > imax or jmin > jmax:
        return {}
    if ncells > 4000:
        raise InvalidInputError(
            f"grading-table box has {ncells} cells; the cap is 4000")
    ssum = (max(imax, 0) + max(jmax, 0))
    if ssum > 24:
        raise InvalidInputError(
            f"grading-table box reaches degree {ssum}; the cap is 24")
    cells: Dict[Tuple[int, int], list] = {}
    elements = weyl.enumerate_group(rs, cap=max_weyl)
    lams = pwlift.bounded_compositions((1,) * rs.n, ssum // 2)
    for w in elements:
        for lam in lams:
            g = op.gr(w, lam)
            if any(g[2:]):
                continue
            i, j = g[0], (g[1] if op.r >= 1 else 0)
            if imin <= i <= imax and jmin <= j <= jmax:
                cells.setdefault((i, j), []).append((w, lam))
    for entries in cells.values():
        entries.sort(key=lambda t: (t[0].length, t[1]))
    return cells


def _cmd_grading_table(args) -> int:
    rs = parse_system_id(args.system)
    op = _ordered_parabolic(rs, args)
    cells = grading_table_cells(rs, op, args.imin, args.imax,
                                args.jmin, args.jmax, args.max_weyl)
    if args.format == "json":
        rows = [{"i": i, "j": j,
                 "elements": [{"word": list(w.word()), "q": list(lam)}
                              for w, lam in entries]}
                for (i, j), entries in sorted(cells.items())]
        _emit(json.dumps({"system": rs.name, "order": list(op.order),
                          "cells": rows}, indent=2), args.out)
        return EXIT_OK
    lines = []
    header = ["i\\j"] + [str(j) for j in range(args.jmin, args.jmax + 1)]
    sep = ["---"] * len(header)
    body = []
    for i in range(args.imax, args.imin - 1, -1):
        row = [str(i)]
        for j in range(args.jmin, args.jmax + 1):
            entries = cells.get((i, j), [])
            row.append(" | ".join(format_term(1, enumerate(lam, start=1), w)
                                  for w, lam in entries) if entries else "0")
        body.append(row)
    if args.format == "csv":
        lines = [";".join(header)] + [";".join(r) for r in body]
    else:
        lines = ["| " + " | ".join(header) + " |",
                 "| " + " | ".join(sep) + " |"]
        lines += ["| " + " | ".join(r) + " |" for r in body]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_mult_table(args) -> int:
    rs = parse_system_id(args.system)
    ring = QuantumFlagRing(rs, weyl_cap=args.max_weyl)
    rows = list(ring.multiplication_table(max_length=args.max_len))
    if args.format == "json":
        data = [{"u": list(u.word()), "v": list(v.word()),
                 "terms": qclass_to_json(qc)} for u, v, qc in rows]
        _emit(json.dumps(data, indent=2), args.out)
    elif args.format == "csv":
        lines = ["u;v;product"]
        lines += ["%s;%s;%s" % (",".join(map(str, u.word())),
                                ",".join(map(str, v.word())),
                                format_qclass(qc)) for u, v, qc in rows]
        _emit("\n".join(lines), args.out)
    else:
        lines = ["| u | v | u * v |", "| --- | --- | --- |"]
        lines += ["| s[%s] | s[%s] | %s |" % (",".join(map(str, u.word())),
                                              ",".join(map(str, v.word())),
                                              format_qclass(qc))
                  for u, v, qc in rows]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_pw(args) -> int:
    rs = parse_system_id(args.system)
    par = rs.check_parabolic(_parse_int_list(args.parabolic))
    lam_p = _parse_lambda(args.lam)
    lift = pwlift.pw_lift(rs, par, lam_p)
    if args.format == "json":
        _emit(json.dumps({
            "system": rs.name, "parabolic": list(par),
            "lambda_P": {str(k): v for k, v in sorted(lam_p.items())},
            "lambda_B": list(lift.lambda_B),
            "delta_P_prime": list(lift.delta_P_prime),
            "omega_factor_word": list(lift.omega_factor.word()),
            "omega_factor_length": lift.length,
        }, indent=2), args.out)
    else:
        _emit("lambda_B = %s\ndelta_P' = %s\nomega_P*omega' = s[%s] (length %d)"
              % (list(lift.lambda_B), list(lift.delta_P_prime),
                 ",".join(map(str, lift.omega_factor.word())), lift.length),
              args.out)
    return EXIT_OK


def _cmd_qhp(args) -> int:
    rs = parse_system_id(args.system)
    par = rs.check_parabolic(_parse_int_list(args.parabolic))
    ring = QuantumFlagRing(rs, weyl_cap=args.max_weyl)
    u = _word_elt(ring, args.u, "u")
    v = _word_elt(ring, args.v, "v")
    comp = rs.complement(par)
    prod = pwlift.qhp_product(ring, par, u, v)
    items = sorted(prod.items(),
                   key=lambda kv: (kv[0][0].length, kv[0][1], kv[0][0].word()))
    if args.format == "json":
        data = [{"word": list(w.word()),
                 "q": {str(j): e for j, e in zip(comp, exps) if e},
                 "coeff": str(c)} for (w, exps), c in items]
        _emit(json.dumps({"system": rs.name, "parabolic": list(par),
                          "u": list(u.word()), "v": list(v.word()),
                          "terms": data}, indent=2), args.out)
    else:
        _emit(" + ".join(format_term(c, zip(comp, exps), w)
                         for (w, exps), c in items) or "0", args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    rs = parse_system_id(args.system)
    par = rs.check_parabolic(_parse_int_list(args.parabolic))
    names = verify.select_suites(args.suites, rs, par)
    order = _parse_int_list(args.order) if args.order else None
    setup = verify.VerificationSetup(
        system=rs.name, parabolic=par, order=order,
        max_weyl=args.max_weyl, max_q=args.max_q, seed=args.seed)
    reports = [verify.run_suite(name, setup) for name in names]
    ok = all(r.ok for r in reports if not r.informational)
    payload = {"all_theorems_pass": ok,
               "reports": [r.to_json_obj() for r in reports]}
    if args.format in ("json", "csv"):
        print(json.dumps(payload, indent=2))
    else:
        lines = []
        for r in reports:
            tag = "INFO" if r.informational else ("PASS" if r.ok else "FAIL")
            lines.append(f"{tag} {r.suite}: {r.passes}/{r.total} cases "
                         f"({r.elapsed_ms} ms)")
            for f in r.failures[:10]:
                lines.append(f"    {f['case']}: {f['lhs']} vs {f['rhs']}")
        lines.append("all theorem suites pass" if ok
                     else "THEOREM SUITE FAILURES PRESENT")
        print("\n".join(lines))
    # --out (and its alias --report-out) receives the JSON report.
    for path in {args.out, args.report_out} - {None}:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _ordered_parabolic(rs, args) -> OrderedParabolic:
    par = rs.check_parabolic(_parse_int_list(args.parabolic))
    if args.order:
        order = _parse_int_list(args.order)
        if tuple(sorted(order)) != par:
            raise InvalidInputError("--order must permute --parabolic")
        return OrderedParabolic(rs, order)
    return canonical_order(rs, par)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("system_pos", nargs="?", default=None, metavar="SYSTEM",
                    help="root system id (alternative to --system)")
    sp.add_argument("--system", help="root system id, e.g. A2, B3")
    sp.add_argument("--parabolic", default="",
                    help="comma-separated parabolic simple indices")
    sp.add_argument("--order", default="",
                    help="explicit order on the parabolic indices")
    sp.add_argument("--format", choices=FORMATS, default=None)
    sp.add_argument("--out", default=None, help="write output to this path")
    sp.add_argument("--max-q", type=int, default=None, dest="max_q")
    sp.add_argument("--max-weyl", type=int, default=None, dest="max_weyl")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--config", default=None,
                    help="flat key=value config file; flags override")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one usage-error line."""

    def error(self, message):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="qhflag",
        description="Quantum Schubert calculus for flag varieties: products, "
                    "gradings, comparison lifts, verification suites.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("qprod", help="quantum product of two Schubert classes")
    _add_common(sp)
    sp.add_argument("--u", default="", help="reduced word, e.g. 1,2,1")
    sp.add_argument("--v", default="", help="reduced word")

    sp = sub.add_parser("grading-table", help="table of graded basis elements")
    _add_common(sp)
    sp.add_argument("--imin", type=int, default=-2)
    sp.add_argument("--imax", type=int, default=4)
    sp.add_argument("--jmin", type=int, default=0)
    sp.add_argument("--jmax", type=int, default=6)

    sp = sub.add_parser("mult-table", help="all pairwise quantum products")
    _add_common(sp)
    sp.add_argument("--max-len", type=int, default=None, dest="max_len")

    sp = sub.add_parser("pw", help="comparison lift of a curve class")
    _add_common(sp)
    sp.add_argument("--lambda", default="", dest="lam",
                    help="curve class, e.g. 3:1 or {\"3\": 1}")

    sp = sub.add_parser("qhp", help="quantum product in QH*(G/P)")
    _add_common(sp)
    sp.add_argument("--u", default="")
    sp.add_argument("--v", default="")

    sp = sub.add_parser("verify", help="run verification suites")
    _add_common(sp)
    sp.add_argument("--suites", default="all",
                    help="comma-separated suite names or 'all'")
    sp.add_argument("--report-out", default=None, dest="report_out",
                    help="also write the JSON report to this path")
    return p


_DEFAULTS = {"format": "markdown", "max_q": 3, "max_weyl": weyl.WEYL_CAP,
             "seed": 0}

_CONFIG_TO_ARG = {"max-q": "max_q", "max-weyl": "max_weyl", "lambda": "lam"}


def _apply_config(args) -> None:
    if getattr(args, "system_pos", None) and not getattr(args, "system", None):
        args.system = args.system_pos
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            cfg = RunConfig.from_text(fh.read())
    for key, val in cfg.values.items():
        attr = _CONFIG_TO_ARG.get(key, key)
        if hasattr(args, attr) and getattr(args, attr) in (None, ""):
            if isinstance(_DEFAULTS.get(attr), int):
                try:
                    setattr(args, attr, int(val))
                except ValueError:
                    raise InvalidInputError(
                        f"config key {key!r} needs an integer, got {val!r}")
            elif key == "format" and val not in FORMATS:
                raise InvalidInputError(
                    f"config key 'format' must be one of "
                    f"{', '.join(FORMATS)}, got {val!r}")
            else:
                setattr(args, attr, val)
    for attr, val in _DEFAULTS.items():
        if getattr(args, attr, "sentinel") is None:
            setattr(args, attr, val)
    if not getattr(args, "system", None):
        raise InvalidInputError("missing required --system (flag or config)")


_HANDLERS = {
    "qprod": _cmd_qprod,
    "grading-table": _cmd_grading_table,
    "mult-table": _cmd_mult_table,
    "pw": _cmd_pw,
    "qhp": _cmd_qhp,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _apply_config(args)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # --help; a bad command line raises instead
        return EXIT_USAGE if exc.code else EXIT_OK
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except QHError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
