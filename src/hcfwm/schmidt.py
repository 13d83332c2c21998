"""Schmidt decomposition of a discretized joint spectral amplitude.

The continuum decomposition F(omega_s, omega_i) = sum_n sqrt(c_n)
S_n(omega_s) I_n(omega_i) is approximated by an SVD of the grid matrix.
A JsaGrid is weighted by sqrt(cell area), which only makes the singular
values s_n satisfy sum s_n^2 = 1; the coefficients c_n are renormalized
to sum 1 either way, and K is scale-free.  The Schmidt number
K = 1 / sum c_n^2 counts effective modes: K = 1 for a factorable state,
K > 1 for a correlated one; its inverse is the heralded-photon purity.
Where only K is needed, as at every sweep point, ``schmidt_number`` takes
it from the Gram identity K = (tr G)^2 / ||G||_F^2, G = M M^H, without an
SVD.

Two variants matter in practice and are never interchanged silently:
the complex-JSA decomposition uses the full amplitude including phase,
while the flat-phase variant decomposes sqrt(JSI) = |F|, which is what a
phase-insensitive intensity measurement constrains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import export
from .errors import ValidationError
from .jsa import JsaGrid

TRUNCATION_RELATIVE = 1e-12
MODES_CSV_COUNT = 8


@dataclass(frozen=True)
class SchmidtResult:
    """Coefficients, mode count, and Schmidt modes of one decomposition.

    coefficients are descending and sum to 1; signal_modes[:, n] and
    idler_modes[:, n] are the discrete orthonormal mode vectors on the
    grid axes, with weighted_grid = sum_n s_n S_n outer I_n.
    """

    coefficients: np.ndarray
    K: float
    purity: float
    flat_phase: bool
    signal_modes: np.ndarray
    idler_modes: np.ndarray

    @property
    def n_modes(self) -> int:
        return int(self.coefficients.size)


def _weighted_matrix(grid, flat_phase: bool):
    """The amplitude matrix of a JsaGrid (weighted by sqrt(cell area)) or a
    raw grid array, and whether it is flat-phase; raises ValidationError on
    an input no decomposition accepts."""
    if isinstance(grid, JsaGrid):
        area = grid.cell_area
        if not area > 0.0:  # an axis out of order, repeated or NaN
            raise ValidationError(f"JsaGrid cell_area must be > 0, got {area}")
        a = grid.values
    else:
        area = 1.0
        a = np.asarray(grid)
        if a.ndim != 2 or min(a.shape) < 2:
            raise ValidationError("grid must be a 2-D array, at least 2x2")
        if not np.iscomplexobj(a):
            # a real grid is a JSI: amplitude is its square root
            if np.any(a < 0.0):
                raise ValidationError("a JSI grid must be non-negative")
            a, flat_phase = np.sqrt(a), True
    matrix = np.abs(a) if flat_phase else a
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("grid contains non-finite values")
    if not np.any(matrix):
        raise ValidationError("degenerate input: grid is identically zero")
    return np.asarray(matrix) * np.sqrt(area), bool(flat_phase)


def schmidt_number(grid, flat_phase: bool = False) -> float:
    """Schmidt number K of the same input as ``schmidt_decompose``, without
    an SVD.

    With G = M M^H for the weighted matrix M, the Schmidt coefficients are
    the eigenvalues of G / tr G, so K = 1 / Tr rho_s^2 = (tr G)^2 / ||G||_F^2
    (Law, Walmsley & Eberly, PRL 84, 5304 (2000)).  G is formed on the
    shorter grid axis.  No coefficient is truncated, so K can differ from
    ``schmidt_decompose(...).K`` in the last digits.
    """
    m, _ = _weighted_matrix(grid, flat_phase)
    if m.shape[0] > m.shape[1]:
        m = m.T
    g = m @ m.conj().T
    return float(np.trace(g).real ** 2 / np.vdot(g, g).real)


def schmidt_decompose(grid, flat_phase: bool = False) -> SchmidtResult:
    """SVD-based Schmidt decomposition of a JsaGrid or a raw grid array.

    A JsaGrid brings its own cell area; flat_phase=True decomposes the
    magnitude |F| instead of F.  A raw real array is interpreted as a JSI
    (decomposed as sqrt(JSI), necessarily flat-phase); a raw complex array
    as a JSA.  Coefficients below 1e-12 of the leading one are truncated
    as SVD noise, then renormalized.
    """
    weighted, flat_phase = _weighted_matrix(grid, flat_phase)
    u, s, vh = np.linalg.svd(weighted, full_matrices=False)

    c = s**2
    c = c / np.sum(c)
    keep = c >= TRUNCATION_RELATIVE * c[0]
    c = c[keep]
    c = c / np.sum(c)
    rank = int(np.count_nonzero(keep))

    # copies, so that the result does not keep the full N x N factors alive
    return SchmidtResult(
        coefficients=c,
        K=float(1.0 / np.sum(c**2)),
        purity=float(np.sum(c**2)),
        flat_phase=bool(flat_phase),
        signal_modes=u[:, :rank].copy(),
        idler_modes=vh[:rank, :].T.copy(),
    )


def schmidt_to_json(result: SchmidtResult, path: str | None = None) -> str | None:
    obj = {
        "c": result.coefficients,
        "K": result.K,
        "purity": result.purity,
        "flat_phase": result.flat_phase,
    }
    return export.to_json(obj, path)


def schmidt_modes_to_csv(result: SchmidtResult, path: str | None = None) -> str | None:
    """The MODES_CSV_COUNT leading Schmidt mode vectors (fewer when the
    decomposition has fewer) as CSV columns (real part, then imag when any
    mode is complex)."""
    n = min(MODES_CSV_COUNT, result.n_modes)
    sig = result.signal_modes[:, :n]
    idl = result.idler_modes[:, :n]
    complex_modes = np.iscomplexobj(sig) or np.iscomplexobj(idl)
    header = []
    cols = []
    for m in range(n):
        if complex_modes:
            header += [f"S{m}_re", f"S{m}_im", f"I{m}_re", f"I{m}_im"]
            cols += [sig[:, m].real, np.imag(sig[:, m]), idl[:, m].real, np.imag(idl[:, m])]
        else:
            header += [f"S{m}", f"I{m}"]
            cols += [sig[:, m].real, idl[:, m].real]
    return export.to_csv(header, np.column_stack(cols), path)
