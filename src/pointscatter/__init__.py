"""Transfer-matrix toolkit for one-dimensional quantum point interactions.

Covers the full current-conserving family of point interactions (four
SL(2,R) parameters plus a magnetic phase), their short-range local
realisations in the Schrodinger framework (three renormalized deltas) and
the Dirac framework (a single step barrier), and plane-wave scattering in
both.  Natural units, hbar = c = 1.

Both frameworks share one scattering core in connection and differ only in
rho; their propagators and short-range models live in the schrodinger and
dirac submodules, the sweeps in analysis and the CSV command line in cli.
"""

from . import analysis, dirac, schrodinger
from .analysis import Sweep, SweepRow
from .connection import (
    SIGMA2,
    ConnectionParams,
    ModePair,
    NotConnectionForm,
    ScatteringResult,
    SingularProjection,
    TransferMatrix,
    as_matrix,
    conserves_current,
    decompose,
    delta_connection,
    epsilon_connection,
    scatter,
    wrap_angle,
)
from .dirac import BarrierClass, BarrierParams, DegenerateModes, DiracMedium
from .schrodinger import DeltaTriple, ModesRequireFreeSpace, NonRelMedium

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "dirac",
    "schrodinger",
    "SIGMA2",
    "TransferMatrix",
    "ConnectionParams",
    "ModePair",
    "ScatteringResult",
    "Sweep",
    "SweepRow",
    "NonRelMedium",
    "DeltaTriple",
    "DiracMedium",
    "BarrierParams",
    "BarrierClass",
    "NotConnectionForm",
    "SingularProjection",
    "ModesRequireFreeSpace",
    "DegenerateModes",
    "as_matrix",
    "conserves_current",
    "decompose",
    "delta_connection",
    "epsilon_connection",
    "scatter",
    "wrap_angle",
]
