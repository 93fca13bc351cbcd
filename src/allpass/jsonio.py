"""JSON encoding of every object that crosses the package boundary.

Matrices are row-major nested lists of plain numbers, and a complex number
(a root) is a two-element ``[re, im]`` list.  A coefficient may be read in
that form too, but :class:`~allpass.polymat.PolyMatrix` and
:class:`~allpass.polymat.ScalarPoly` refuse a nonzero imaginary part.
Floats are emitted with Python's shortest round-trip repr, so parsing the
output reproduces the binary values bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .blaschke import RationalAllPass
from .mirror import MirrorReport
from .polymat import PolyMatrix, ScalarPoly
from .roots import RootRecord

__all__ = [
    "poly_to_json",
    "poly_from_json",
    "scalar_to_json",
    "scalar_from_json",
    "record_to_json",
    "record_from_json",
    "allpass_to_json",
    "allpass_from_json",
    "report_to_json",
    "dumps",
]


def dumps(obj) -> str:
    return json.dumps(obj, indent=2)


def _finite(x) -> float:
    # python's json accepts NaN/Infinity literals; none of the math
    # downstream survives them, so they stop here
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {v!r}")
    return v


def _entry_from_json(x):
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise ValueError(f"complex entry must be [re, im], got {x!r}")
        return complex(_finite(x[0]), _finite(x[1]))
    return _finite(x)


def poly_to_json(p) -> dict:
    """``{"dim": n, "degree": q, "coeffs": [M_0, ..., M_q]}``."""
    return {"dim": p.dim, "degree": p.degree, "coeffs": p.coeffs.tolist()}


def poly_from_json(obj: dict):
    dim = int(obj["dim"])
    degree = int(obj["degree"])
    coeffs = obj["coeffs"]
    if len(coeffs) != degree + 1:
        raise ValueError(
            f"degree {degree} but {len(coeffs)} coefficient matrices"
        )
    data = np.empty((degree + 1, dim, dim), dtype=np.complex128)
    for k, mat in enumerate(coeffs):
        if len(mat) != dim:
            raise ValueError(f"coefficient {k} has {len(mat)} rows, expected {dim}")
        for i, row in enumerate(mat):
            if len(row) != dim:
                raise ValueError(
                    f"coefficient {k} row {i} has {len(row)} entries, expected {dim}"
                )
            for j, v in enumerate(row):
                data[k, i, j] = _entry_from_json(v)
    return PolyMatrix(data)


def scalar_to_json(s: ScalarPoly) -> dict:
    """``{"degree": q, "coeffs": [c_0, ..., c_q]}``."""
    return {
        "degree": s.degree,
        "coeffs": s.coeffs.tolist(),
    }


def scalar_from_json(obj: dict) -> ScalarPoly:
    coeffs = [_entry_from_json(c) for c in obj["coeffs"]]
    if len(coeffs) != int(obj["degree"]) + 1:
        raise ValueError(
            f"degree {obj['degree']} but {len(coeffs)} coefficients"
        )
    return ScalarPoly(coeffs)


def record_to_json(r: RootRecord) -> dict:
    return {
        "alpha": [r.alpha.real, r.alpha.imag],
        "multiplicity": r.multiplicity,
        "kind": r.kind,
        "location": r.location,
    }


def record_from_json(obj: dict) -> RootRecord:
    re, im = obj["alpha"]
    return RootRecord(
        alpha=complex(_finite(re), _finite(im)),
        multiplicity=int(obj["multiplicity"]),
        kind=str(obj["kind"]),
        location=str(obj["location"]),
    )


def allpass_to_json(V: RationalAllPass) -> dict:
    return {
        "num": poly_to_json(V.num),
        "den": scalar_to_json(V.den),
        "alpha": [V.alpha.real, V.alpha.imag],
        "method": V.method,
    }


def allpass_from_json(obj: dict) -> RationalAllPass:
    re, im = obj["alpha"]
    return RationalAllPass(
        num=poly_from_json(obj["num"]),
        den=scalar_from_json(obj["den"]),
        alpha=complex(_finite(re), _finite(im)),
        method=str(obj["method"]),
    )


def report_to_json(rep: MirrorReport) -> dict:
    out = dataclasses.asdict(rep)
    out["mirrored_roots"] = [[z.real, z.imag] for z in rep.mirrored_roots]
    return out
