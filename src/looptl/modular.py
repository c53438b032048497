"""Closed-form bookkeeping for the doubled even theories.

Label counts, the S-matrix at level ell, the even-sector rank test, and
the torus/higher-genus dimension formulas.  Everything here is numeric
and closed-form; the heavier algebra lives in the annular module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigInvalid

# the level table and the S-matrix report stop at this level
LEVEL_CAP = 16


def label_count(ell):
    """Number of (even, even) integer pairs in [0, ell]^2."""
    return math.ceil((ell + 1) / 2) ** 2


def color_reversing_count(ell):
    return math.ceil(ell / 2) ** 2


def specific_heat(ell):
    return math.ceil((ell + 1) ** 2 / 2)


def s_matrix(ell):
    """(ell+1) x (ell+1) S-matrix in the shifted label convention,
    S[y][x] = sqrt(2/(ell+2)) * sin(pi (x+1)(y+1) / (ell+2)).

    The normalization makes S unitary.  The annular betas take their S
    entries from the closed form, in this convention and in the unshifted
    one, sin(pi x y / (ell+2)), not from this matrix.
    """
    k = ell + 2
    norm = math.sqrt(2.0 / k)
    out = np.zeros((ell + 1, ell + 1))
    for y in range(ell + 1):
        for x in range(ell + 1):
            out[y, x] = norm * math.sin(math.pi * (x + 1) * (y + 1) / k)
    return out


def even_sector(ell):
    """Restriction of the S-matrix to even labels 0, 2, 4, ..."""
    S = s_matrix(ell)
    idx = list(range(0, ell + 1, 2))
    return S[np.ix_(idx, idx)]


def twist(ell, a):
    """Topological spin exp(2 pi i h_a), h_a = a(a+2)/(4(ell+2))."""
    return complex(np.exp(2j * math.pi * a * (a + 2) / (4 * (ell + 2))))


def transparent_labels(ell):
    """Even labels whose double braiding with every even label is trivial.

    Detected from the S-matrix: b is transparent iff S_{ab} = d_a d_b S_00
    for all even a, with quantum dimensions d_a = S_{0a}/S_{00}.
    """
    S = s_matrix(ell)
    evens = list(range(0, ell + 1, 2))
    dims = {a: S[0, a] / S[0, 0] for a in evens}
    out = []
    for b in evens:
        if all(abs(S[a, b] - dims[a] * dims[b] * S[0, 0]) < 1e-9
               for a in evens):
            out.append(b)
    return out


def theory_singular(ell):
    """Whether the doubled even theory is singular.

    The even sector always contains the transparent label ell when ell is
    even; its twist is exp(i pi ell/2).  A transparent fermion (twist -1,
    ell = 2 mod 4) obstructs a nonsingular doubled theory; a transparent
    boson (ell = 0 mod 4) does not, and odd levels have no transparent
    label besides the vacuum.
    """
    for b in transparent_labels(ell):
        if b and abs(twist(ell, b) - 1.0) > 1e-9:
            return True
    return False


class LevelData:
    """All computed quantities for one level."""

    def __init__(self, ell):
        self.ell = ell
        self.label_count = label_count(ell)
        self.color_reversing_count = color_reversing_count(ell)
        self.specific_heat = specific_heat(ell)
        self.S_even = even_sector(ell)
        self.even_rank = int(np.linalg.matrix_rank(self.S_even, tol=1e-9))
        self.even_singular = self.even_rank < self.S_even.shape[0]
        self.theory_singular = theory_singular(ell)


def level_table(ell_max):
    if ell_max > LEVEL_CAP:
        raise ConfigInvalid("level table capped at ell = %d" % LEVEL_CAP)
    return [LevelData(ell) for ell in range(1, ell_max + 1)]


LEVEL_COLUMNS = ("ell", "label_count", "color_reversing_count",
                 "specific_heat", "even_restriction_rank", "theory_singular")


def level_rows(ell_max):
    """One dict per level 1..ell_max, keyed by LEVEL_COLUMNS; the values
    are the cells of level_table_csv (theory_singular is "yes" or "no")."""
    return [dict(zip(LEVEL_COLUMNS, (
        ld.ell, ld.label_count, ld.color_reversing_count, ld.specific_heat,
        ld.even_rank, "yes" if ld.theory_singular else "no")))
        for ld in level_table(ell_max)]


def level_table_csv(ell_max):
    """level_rows(ell_max) as CSV text under one header line."""
    lines = [",".join(LEVEL_COLUMNS)]
    for row in level_rows(ell_max):
        lines.append(",".join(str(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def verlinde_dimension(ell, genus):
    """Exact genus-g dimension of the doubled even theory.

    Sums (S_{0a} S_{0b})^(2-2g) over even label pairs (a, b); at genus 1
    this is exactly the label count.
    """
    chi = 2 - 2 * genus
    k = ell + 2
    total = 0.0
    for a in range(0, ell + 1, 2):
        for b in range(0, ell + 1, 2):
            s0a = math.sqrt(2.0 / k) * math.sin(math.pi * (a + 1) / k)
            s0b = math.sqrt(2.0 / k) * math.sin(math.pi * (b + 1) / k)
            total += (s0a * s0b) ** chi
    return total


def torus_dimension_estimate(ell, genus):
    """Dimension of the doubled even theory on a genus-g surface.

    At genus 1 the exact count (= label_count) is returned after being
    cross-checked against the Verlinde sum; at higher genus the Verlinde
    sum itself (verlinde_dimension).
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    if genus == 1:
        v = verlinde_dimension(ell, 1)
        lc = label_count(ell)
        if abs(v - lc) > 1e-9:
            raise AssertionError(
                f"genus-1 Verlinde sum {v} disagrees with label count {lc}")
        return float(lc)
    return verlinde_dimension(ell, genus)
