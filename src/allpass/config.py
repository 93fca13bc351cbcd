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

    cluster
        Relative radius for merging nearby roots into one multiple root, and
        for folding a conjugate pair whose imaginary part is within it of
        the real axis into a double real root.
    trim
        Relative floor, over ``||p||``, under which a singular value of the
        balanced ``C_q`` counts as zero in the root finder: an infinite
        root, deflated.  A mirror step does not read it: its output keeps
        every leading coefficient above the step's own roundoff.
    degenerate
        Relative second-singular-value bound deciding when (Re v, Im v)
        are dependent.
    circle
        Half-width of the exclusion band around the unit circle, for roots,
        for poles, and for the eigenvalue products of a Stein equation near 1.
    kernel
        Bound on the coefficientwise backward error of alpha,
        sigma_min(p(alpha)) / sum_k |alpha|^k ||C_k||_F, for alpha to count
        as a root; on sigma_min(p(s)) / ||p||, which failing at every trial
        shift s makes p singular; and on a mirror step's relocation residual
        in the certificate of :func:`~allpass.mirror.mirror_set`: normwise
        (sigma_min at 1/alpha over ||p_tilde||, reversed outside the
        circle), so it can pass an image the root test would refuse, and
        also one that leaves with the degree its step drops (a root at
        2.2e-16, image 4.5e15), whose coefficientwise number reads 0.447.
    residual
        Bound :func:`~allpass.mirror.mirror_set` enforces on each step's
        division remainder and spectral deviation, and on each output's
        drift from the input spectrum, and on the relative asymmetry of a
        Stein equation's ``Q``; ``mirror --tol`` sets it.
    allpass
        Bound on ||V V^H - I|| on the circle for a factor to verify.
    """

    cluster: float = 1e-7
    trim: float = 1e-12
    degenerate: float = 1e-8
    circle: float = 1e-8
    kernel: float = 1e-6
    residual: float = 1e-8
    allpass: float = 1e-9


DEFAULTS = Tolerances()
