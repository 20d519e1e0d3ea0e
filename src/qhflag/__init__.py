"""Quantum Schubert calculus for flag varieties.

Exact computation in the small quantum cohomology of complete and partial
flag varieties: root systems and Weyl groups, quantum Chevalley products
and full quantum products, the comparison lift between the G/P and G/B
structure constants, grading and filtration machinery, and exhaustive
verification suites.
"""

from .errors import (CapExceededError, InternalConsistencyError,
                     InvalidInputError, QHError)
from .rootsys import RootSystem, build_root_system, parabolic_subsystem, parse_system_id
from .weyl import (WeylElt, enumerate_group, full_decomposition, identity,
                   inversion_set, longest_element, multiply,
                   parabolic_decompose, reflection, simple_reflection,
                   word_to_element)
from .qchev import (QClass, QuantumFlagRing, format_qclass, format_term,
                    qclass_to_json)
from .pwlift import (PWLift, minimal_representatives, psi_map, pw_lift,
                     qhp_product, qhp_structure_constant, quantum_degree)
from .grading import OrderedParabolic, canonical_order
from .verify import Report, VerificationSetup, run_suite, replay_case

__version__ = "0.1.0"
