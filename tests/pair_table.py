"""The pair table: how close each route's pair factor is to all-pass, by modulus.

Run from the repository root with ``PYTHONPATH=src python tests/pair_table.py``;
pytest does not collect it.  For each route (``consecutive``,
``polynomial``, ``statespace``), each ratio ``sigma2/sigma1`` of ``[Re w,
Im w]`` and each modulus ``|alpha|`` it builds the factor for 50 draws
(``default_rng(5)``: the angle of ``alpha`` uniform in ``(0.05, pi -
0.05)``, ``w`` rotated at random) and prints the worst ``verify_allpass(V,
64)``, with ``R<k>`` appended when ``k`` draws were refused.  The polynomial
route takes the ratios 1, 0.3 and 0.1, the others 1, 1e-2 and 1e-5.

A stress sweep follows: 6,000 draws (``default_rng(2)``) with ``|alpha| =
10^U(-5, 5)`` and ratio ``10^U(-7.9, 0)``, and for each route the count of
factors within ``tol.allpass``, above it, and refused (by error class).  It
judges nothing: it exits 0 unless a build raises something other than an
``AllPassError``.
"""

import collections

import numpy as np

from allpass import DEFAULTS, AllPassError, b2_consecutive, b2_polynomial, build_b2, verify_allpass

ROUTES = {
    "consecutive": b2_consecutive,
    "polynomial": b2_polynomial,
    "statespace": lambda alpha, w: build_b2(alpha, w)[1],
}
MODULI = (1e-4, 1e-2, 0.3, 0.9, 0.99, 1.01, 1.1, 3.0, 1e2, 1e3)
RATIOS = {"consecutive": (1.0, 1e-2, 1e-5), "polynomial": (1.0, 0.3, 0.1), "statespace": (1.0, 1e-2, 1e-5)}
DRAWS = 50
STRESS_DRAWS = 6000


def kernel_direction(rng, ratio):
    """Unit ``w`` whose ``[Re w, Im w]`` has singular value ratio ``ratio``."""
    def rotation():
        t = rng.uniform(0.0, 2.0 * np.pi)
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    W = rotation() @ np.diag([1.0, ratio]) @ rotation().T
    w = W[:, 0] + 1j * W[:, 1]
    return w / np.linalg.norm(w)


def pair(rng, modulus, ratio):
    alpha = complex(modulus * np.exp(1j * rng.uniform(0.05, np.pi - 0.05)))
    return alpha, kernel_direction(rng, ratio)


def residual(route, alpha, w):
    """``verify_allpass(V, 64).max_residual``, or the refusal's class name."""
    try:
        return verify_allpass(ROUTES[route](alpha, w), 64).max_residual
    except AllPassError as exc:
        return type(exc).__name__


def table():
    """``{(route, ratio): [(worst residual, refusals) per modulus]}``."""
    rng = np.random.default_rng(5)
    rows = {}
    for route, ratios in RATIOS.items():
        for ratio in ratios:
            cells = []
            for modulus in MODULI:
                values = [residual(route, *pair(rng, modulus, ratio)) for _ in range(DRAWS)]
                kept = [v for v in values if not isinstance(v, str)]
                cells.append((max(kept, default=float("nan")), len(values) - len(kept)))
            rows[route, ratio] = cells
    return rows


def stress():
    """``{route: Counter}`` of ``ok``, ``above`` and refusals by class."""
    rng = np.random.default_rng(2)
    draws = [
        pair(rng, 10.0 ** rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-7.9, 0.0))
        for _ in range(STRESS_DRAWS)
    ]
    counts = {route: collections.Counter() for route in ROUTES}
    for route in ROUTES:
        for alpha, w in draws:
            value = residual(route, alpha, w)
            if isinstance(value, str):
                counts[route][value] += 1
            else:
                counts[route]["ok" if value <= DEFAULTS.allpass else "above"] += 1
    return counts


if __name__ == "__main__":
    print(f"{'route':<12} {'ratio':>7}" + "".join(f"{m:>12g}" for m in MODULI))
    for (route, ratio), cells in table().items():
        text = "".join(f"{v:>12.1e}" if not k else f"{f'{v:.1e}R{k}':>12}" for v, k in cells)
        print(f"{route:<12} {ratio:>7g}{text}", flush=True)
    print(f"\nstress: {STRESS_DRAWS} draws, |alpha| = 10^U(-5, 5), ratio = 10^U(-7.9, 0)")
    print(f"{'route':<12} {'ok':>6} {'above':>6}  refused")
    for route, c in stress().items():
        refused = ", ".join(f"{name} {k}" for name, k in sorted(c.items()) if name not in ("ok", "above"))
        print(f"{route:<12} {c['ok']:>6} {c['above']:>6}  {refused or '-'}", flush=True)
