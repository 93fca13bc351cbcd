"""Default numerical tolerances, collected in one frozen dataclass.

Every threshold has a single owner here; functions take a ``Tolerances``
object (``DEFAULTS`` unless the caller passes another) so the whole pipeline
can be retuned in one place.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the pipeline.

    imag
        Absolute bound under which a root's imaginary part snaps to zero.
    cluster
        Relative radius for merging nearby roots into one multiple root.
    trim
        Relative floor under which trailing coefficients count as zero, and
        under which a shifted companion's eigenvalue is an infinite root.
    real
        Bound on imaginary residue allowed when projecting complex
        coefficients to real ones.
    degenerate
        Relative second-singular-value bound deciding when (Re v, Im v)
        are dependent.
    circle
        Half-width of the exclusion band around the unit circle.
    kernel
        Relative bound on sigma_min(p(alpha)) for alpha to count as a root;
        p(s) failing it at every trial shift s makes p singular.
    residual
        Default threshold of the ``mirror`` command on each step's reported
        deconvolution remainder, imaginary residue and spectral deviation.
    allpass
        Bound on ||V V^H - I|| on the circle for a factor to verify.
    """

    imag: float = 1e-8
    cluster: float = 1e-7
    trim: float = 1e-12
    real: float = 1e-8
    degenerate: float = 1e-8
    circle: float = 1e-8
    kernel: float = 1e-6
    residual: float = 1e-8
    allpass: float = 1e-9


DEFAULTS = Tolerances()
