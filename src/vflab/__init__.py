"""Varadhan functionals on finite spaces: duals, conjugates, and checks.

The library turns the defining properties of nonlinear Laplace-type
functionals into executable objects: build a functional, extract its rate
function by the pit method, reconstruct it from the rate, push it through
the measure-level convex conjugate, and certify (or refute) each axiom on
seeded random trials.  A small large-deviations lab grounds everything in
the Bernoulli/Cramer instance where every number has a closed form.
"""

from . import axioms, convex_duality, duality, functionals, ldp_lab, space
from .space import *
from .functionals import *
from .duality import *
from .convex_duality import *
from .axioms import *
from .ldp_lab import *
from .errors import VflabError
from .serialize import load_measure_sequence as ingest_sequence

__version__ = "0.1.0"

# each module's __all__ is its public interface; the package republishes
# them in the order of the wildcard imports above
__all__ = [
    "__version__",
    *space.__all__,
    *functionals.__all__,
    *duality.__all__,
    *convex_duality.__all__,
    *axioms.__all__,
    *ldp_lab.__all__,
    "ingest_sequence",
    "VflabError",
]
