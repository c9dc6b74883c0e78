"""Vectorized angle-wrapping and authalic-latitude kernels.

Re-expresses reference utils.py:47-343 as numpy array kernels.  Scalar
semantics (including branch structure and evaluation order) are kept
identical so that float64 results match the reference bit-for-bit on
every element; only the execution model changes (whole-column numpy ops
instead of one Python call per point).
"""

from __future__ import annotations

import math

import numpy as np

from rhealpixdggs_py_ray.core.config import EngineConfig


def my_round(x, digits: int = 0):
    """Round a float, or a (possibly nested) list/tuple of floats, to
    ``digits`` digits (reference utils.py:24-44).

    Scalars go through Python's correctly-rounded ``round`` — NOT
    ``np.round``, whose scale-round-unscale differs on some doubles —
    so results match the reference exactly.  numpy arrays take a
    vectorized path through the same ``round`` via ``np.frompyfunc``
    (this is a test/doc helper, never a hot-path kernel).
    """
    if isinstance(x, np.ndarray):
        return np.frompyfunc(lambda v: round(float(v), digits), 1, 1)(x).astype(
            np.float64
        )
    try:
        return round(x, digits)
    except TypeError:
        result = [my_round(xx, digits) for xx in x]
        return tuple(result) if isinstance(x, tuple) else result


def ravel_pair(a, b) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(shape, a, b): ``a`` and ``b`` as float64, broadcast together and
    raveled, for kernels that index the rows of 1-D arrays.  Reshape
    their outputs to ``shape``.  Equal-shape 1-D inputs come back as
    they are."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    return a.shape, a.ravel(), b.ravel()


def wrap_longitude(lam: np.ndarray, radians: bool = False) -> np.ndarray:
    """Wrap angles into [-half, half) (reference utils.py:47-71)."""
    lam = np.asarray(lam, dtype=np.float64)
    half = math.pi if radians else 180.0
    out = lam.copy()
    need = (lam < -half) | (lam >= half)
    if np.any(need):
        r = np.mod(lam[need], 2 * half)
        r = np.where(r >= half, r - 2 * half, r)
        out[need] = r
    return out


def wrap_latitude(phi: np.ndarray, radians: bool = False) -> np.ndarray:
    """Wrap/reflect angles into [-half/2, half/2] (utils.py:74-113)."""
    phi = wrap_longitude(phi, radians=radians)
    half = math.pi if radians else 180.0
    out = phi.copy()
    need = np.abs(phi) > half / 2
    if np.any(need):
        out[need] = phi[need] - np.copysign(half, phi[need])
    return out


def auth_lat(
    phi: np.ndarray,
    cfg_or_e: "EngineConfig | float",
    inverse: bool = False,
    radians: bool = False,
) -> np.ndarray:
    """Authalic <-> geodetic latitude (reference utils.py:116-343).

    Forward: direct formula for flattening f > 1/150, else the 6-term
    power series (eq. A19, arXiv:2212.05818).  Inverse: always the
    series (eq. A20).  Series coefficients are precomputed once per
    ellipsoid (EngineConfig tables) instead of per call.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if isinstance(cfg_or_e, EngineConfig):
        cfg = cfg_or_e
        e = cfg.e
    else:
        e = float(cfg_or_e)
        cfg = EngineConfig(a=1.0, f=1 - math.sqrt(1 - e**2)) if e != 0 else None
    if e == 0:
        return phi

    f = 1 - math.sqrt(1 - e**2)
    if not inverse and abs(f) > 1 / 150:
        # Direct formula (utils.py:157-175), vectorized.
        p = phi if radians else phi * math.pi / 180
        sp = np.sin(p)
        q = ((1 - e**2) * sp) / (1 - (e * sp) ** 2) - (1 - e**2) / (2.0 * e) * np.log(
            (1 - e * sp) / (1 + e * sp)
        )
        qp = 1 - (1 - e**2) / (2.0 * e) * math.log((1.0 - e) / (1.0 + e))
        ratio = q / qp
        ratio = np.where(np.abs(ratio) > 1, np.copysign(1.0, ratio), ratio)
        result = np.arcsin(ratio)
        if not radians:
            result = result * 180 / math.pi
        return result

    coeffs = cfg.auth_coeffs_inv if inverse else cfg.auth_coeffs_fwd
    p = phi if radians else phi * math.pi / 180
    # Sum in the same left-to-right order as the reference's expression
    # so float64 results are identical.
    acc = coeffs[0] * np.sin(2 * p)
    for k in range(1, 6):
        acc = acc + coeffs[k] * np.sin(2 * (k + 1) * p)
    result = p + acc
    if not radians:
        result = result * 180 / math.pi
    return result
