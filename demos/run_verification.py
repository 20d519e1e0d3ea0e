"""Run every verification suite on one system and write the JSON report.

Usage: python3 demos/run_verification.py [SYSTEM] [PARABOLIC]
Defaults to B3 with parabolic 1,2.
"""

import json
import sys

from qhflag.rootsys import parse_system_id
from qhflag.verify import VerificationSetup, run_suite, select_suites

system = sys.argv[1] if len(sys.argv) > 1 else "B3"
parabolic = tuple(int(x) for x in (sys.argv[2] if len(sys.argv) > 2
                                   else "1,2").split(","))

setup = VerificationSetup(system=system, parabolic=parabolic)
reports = []
for name in select_suites("all", parse_system_id(system), parabolic):
    rep = run_suite(name, setup)
    tag = "INFO" if rep.informational else ("PASS" if rep.ok else "FAIL")
    print(f"{tag} {rep.suite}: {rep.passes}/{rep.total} ({rep.elapsed_ms} ms)")
    reports.append(rep.to_json_obj())

path = f"verification-{system}.json"
with open(path, "w", encoding="utf-8") as fh:
    json.dump(reports, fh, indent=2)
print(f"wrote {path}")
