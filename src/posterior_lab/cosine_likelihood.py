"""The cosine family's log-likelihood

    ln L(theta) = sum_i ln(1 + cos(theta x_i)) - n ln(1 + sin(theta)/theta)

at the Kronrod nodes of whole panels (``panel_loglik``), and its upper bounds
on the cells of a lattice past the quadrature head (``Lattice``), with which
the cosine engine ends its reach.
"""

from __future__ import annotations

import math

import numpy as np

from .densities import cosine_normalizer
from .numerics import LN2, kronrod_nodes

__all__ = ["panel_loglik", "Lattice"]

# elements of each (panel, node, data) buffer of panel_loglik
_CHUNK = 1 << 15
# the positive Kronrod nodes xi_k: the centre less h xi_k is column k of a
# panel's row, the centre plus h xi_k column 14 - k
_XI = -kronrod_nodes(np.zeros(1), np.ones(1))[0, :7]


def panel_loglik(c: np.ndarray, h: np.ndarray, data: np.ndarray) -> np.ndarray:
    """sum_i ln(1 + cos(theta x_i)) - n ln(1 + sin(theta)/theta) at the 15
    Kronrod nodes theta of each panel (c_j, h_j), as an (m, 15) array;
    LOG_ZERO where a point sits on a zero of the pdf.  With u = c x / 2 and
    v_k = h xi_k x / 2, the half-angle cosines are cos(u -+ v_k) = cos u
    cos v_k +- sin u sin v_k and cos u at the centre: a panel costs one cos
    and one sin per data point, and each distinct half-width a table of
    cos v_k and sin v_k.  The panels go in order of h, one table alive at a
    time, a chunk of rows at a time through (rows, 7, n) buffers that each
    step overwrites; each (panel, node) row is reduced on its own, so a
    panel's values do not depend on the others.  The normalizer term is
    taken at the float nodes."""
    x = 0.5 * data
    out = x.size * (LN2 - np.log(cosine_normalizer(kronrod_nodes(c, h))))
    rows = min(c.size, max(1, _CHUNK // (14 * max(1, x.size))))
    anchor, sine = np.empty((rows, x.size)), np.empty((rows, x.size))
    prod, cross = np.empty((rows, 7, x.size)), np.empty((rows, 7, x.size))
    order = np.argsort(h, kind="stable")
    cuts = np.flatnonzero(h[order][1:] != h[order][:-1]) + 1
    with np.errstate(divide="ignore"):
        for group in np.split(order, cuts):
            v = np.multiply.outer(h[group[0]] * _XI, x)
            cos_v, sin_v = np.cos(v), np.sin(v, out=v)
            for i in range(0, group.size, rows):
                sel = group[i:i + rows]
                r = sel.size
                a = np.multiply.outer(c[sel], x, out=anchor[:r])
                b = np.sin(a, out=sine[:r])
                np.cos(a, out=a)
                mid = np.abs(a, out=prod[:r, 0])
                out[sel, 7] += 2.0 * np.log(mid, out=mid).sum(axis=1)
                p = np.multiply(a[:, None], cos_v, out=prod[:r])
                q = np.multiply(b[:, None], sin_v, out=cross[:r])
                np.subtract(p, q, out=q)  # cos(u + v_k)
                np.log(np.abs(q, out=q), out=q)
                out[sel, 8:] += 2.0 * q.sum(axis=2)[:, ::-1]
                np.add(p, np.multiply(b[:, None], sin_v, out=q), out=p)  # cos(u - v_k)
                np.log(np.abs(p, out=p), out=p)
                out[sel, :7] += 2.0 * p.sum(axis=2)
    return out


# the Psi lattice: points per block, blocks per run (a run is anchored
# directly at its first point) and data per chunk
_PSI_J, _PSI_B, _PSI_S = 32, 16, 128
_EPS = math.ulp(1.0)


class Lattice:
    """The lattice k w of one data set, w = H/4 a quarter of its rounded half
    period H: Psi(k w) = n^-1 sum_i cos(k w x_i) at its points, kept a run
    at a time once computed, and AM-GM bounds of ln L on its cells."""

    def __init__(self, data: np.ndarray, half: float):
        self.data, self.n, self.w = data, int(data.size), 0.25 * half
        self.xmax = float(data.max()) if self.n else 0.0
        # n^-1 sum x_i^2, rounded up
        self.m2 = float(np.square(data).sum()) / max(1, self.n) * (1.0 + _EPS * (self.n + 2))
        self._runs = {}  # run r -> Psi at its points r R + j, R = _PSI_J _PSI_B

    def psi(self, k0: int, k1: int) -> tuple:
        """(Psi, delta): Psi at the points k = k0..k1-1, and a bound delta of
        its rounding.  With z = e^(i w x), Psi(k w) = n^-1 sum_i Re z_i^k.
        The lattice goes in runs of _PSI_B blocks of _PSI_J points: a run's
        first point is e^(i k w x) taken directly, one cos and one sin per
        datum, each next block's first point is the one before times
        z^_PSI_J, and a block's points are its first times z^j, j <
        _PSI_J, from one table of repeated products.  Each datum's terms are
        summed with einsum (numpy's own loops, no BLAS), _PSI_S data at a
        time.  A run keeps its bits whichever call computed it."""
        J, R, w = _PSI_J, _PSI_J * _PSI_B, self.w
        runs = [r for r in range(k0 // R, (k1 - 1) // R + 1) if r not in self._runs]
        if runs:
            acc = np.zeros((len(runs), _PSI_B, J))
            for i in range(0, self.n, _PSI_S):
                x = self.data[i:i + _PSI_S]
                z = np.exp(1j * (w * x))
                powers = np.cumprod(np.vstack([np.ones_like(z), np.broadcast_to(z, (J, z.size))]),
                                    axis=0)  # z^j, j = 0..J
                re, im = powers[:J].real.copy(), powers[:J].imag.copy()
                hops = np.broadcast_to(powers[J], (_PSI_B - 1, z.size))
                for m, r in enumerate(runs):
                    first = np.cumprod(np.vstack([np.exp(1j * ((r * R * w) * x)), hops]), axis=0)
                    acc[m] += np.einsum("bi,ji->bj", first.real.copy(), re) \
                        - np.einsum("bi,ji->bj", first.imag.copy(), im)
            self._runs.update(zip(runs, acc.reshape(len(runs), R) / self.n))
        r0 = k0 // R
        psi = np.concatenate([self._runs[r] for r in range(r0, (k1 - 1) // R + 1)])
        # per term: the direct arguments round by their size in ulps, each
        # cos or sin by 1 ulp, and each complex product by under 3 ulps plus
        # the error of z (under 2 ulps, w x < 1); a point is at most _PSI_B
        # hops of z^_PSI_J, each _PSI_J products, and _PSI_J products more,
        # so under 5 (_PSI_B + 1) (_PSI_J + 1) ulps; the sums by n ulps
        delta = _EPS * (2.0 * self.n + 4.0 * k1 * w * self.xmax
                        + 5.0 * (_PSI_B + 1) * (J + 1) + 16.0)
        return psi[k0 - r0 * R:k1 - r0 * R], delta

    def cell_loglik(self, k0: int, k1: int, head: float) -> np.ndarray:
        """Upper bounds of ln L on the cells [max(head, k w), (k+1) w], k =
        k0..k1-1, with head >= 30.  By AM-GM the product of the 1 + cos(theta
        x_i) is at most (1 + Psi(theta))^n, and Psi'' is at most m_2 = n^-1
        sum x_i^2 in size, so on a cell Psi is at most its larger end value
        plus m_2 w^2 / 8 (and 1 + Psi at most 2); the normalizer 1 +
        sin(theta)/theta is at least 1 - 1/theta."""
        w = self.w
        psi, delta = self.psi(k0, k1 + 1)
        top = np.maximum(psi[:-1], psi[1:]) + (self.m2 * w * w / 8.0 + delta)
        left = np.maximum(np.arange(k0, k1) * w, head)
        return self.n * (np.log1p(np.minimum(top, 1.0)) - np.log1p(-1.0 / left))
