"""Rigorous certification of coupled map networks built from
piecewise-affine local dynamics and affine coupling.

The library checks, with certified numerics, the crossing ("covering")
conditions that force symbolic dynamics onto a network: expansion across
target sets with nonzero degree in the unstable directions, contraction
into them in the stable ones.  On top of single covering checks it
certifies two network-level conclusions, a periodic orbit of known period
for permutation transition structures and a topological-entropy lower
bound for unified families, together with an explicit perturbation radius
under which every certificate survives.
"""

__version__ = "0.1.0"

from .geometry import (AffineChart, CenterScale, GeometryError, HSet,
                       PiecewiseAffineMap, StretchBounds, UnifiedSet,
                       max_stretch, min_stretch, singular, split_product,
                       unified_validate)
from .degree import (DegreeUndefinedError, DegreeValue, degree_1d, degree_affine,
                     degree_for_map)
from .covering import (CoveringCertificate, CoveringOutcome, ProductFormMap,
                       persistence_bound)
from .symbolic import (SymbolSequence, TransitionMatrix, TransitionError,
                       closed_loops, count_words, entropy_lower_bound,
                       is_admissible, permutation_loop, spectral_radius)
from .network import (CouplingSpec, EntryTable, Graph, NetworkSpec, NodeSystem,
                      SpecError, TheoremReport, ValidationReport, check_covering,
                      conjugacy_audit, entry_failures, kronecker, tau_search,
                      theorem1_check, theorem2_check, validate_spec)
from .dynamics import (Itinerary, LoopError, NeutralCompositionError,
                       NoInvariantSamplesError, OrbitEscapeError, PeriodicOrbitCertificate,
                       Perturbation, empirical_entropy, itinerary,
                       periodic_point, step, step_power)
from .specio import (SpecFormatError, canonical_json, certificate_document,
                     load_spec, parse_spec, serialize_spec, spec_digest,
                     specs_equal)
from . import fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
