"""Model-based ultrasound signal processing toolkit.

Submodules: ``core`` (domain types), ``numerics`` (Hermitian solve and
SVD over numpy.linalg), ``simulator``, ``tof`` (delays, focusing,
envelope), ``beamform`` (DAS/MV/Wiener/CF/iMAP/compounding), ``sparse``
(ISTA with its step from each model's closed-form norm, and friends),
``clutter`` (SVT/RPCA), ``ulm`` (localization microscopy), ``metrics``,
``io`` (URF1/UIM1/PGM), ``cli``.
"""

from . import beamform, clutter, core, io, metrics, numerics, simulator, sparse, tof, ulm

__all__ = [
    "beamform",
    "clutter",
    "core",
    "io",
    "metrics",
    "numerics",
    "simulator",
    "sparse",
    "tof",
    "ulm",
]

__version__ = "0.1.0"
