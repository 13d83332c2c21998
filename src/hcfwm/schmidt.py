"""Schmidt decomposition of a discretized joint spectral amplitude.

The continuum decomposition F(omega_s, omega_i) = sum_n sqrt(c_n)
S_n(omega_s) I_n(omega_i) is approximated by an SVD of the grid matrix.
The SVD runs on the amplitude values as they are: the coefficients c_n
are normalized to sum 1 and K is scale-free, so a cell-area weight would
change neither.  The Schmidt number
K = 1 / sum c_n^2 counts effective modes: K = 1 for a factorable state,
K > 1 for a correlated one; its inverse is the heralded-photon purity.
Where only K is needed, as at every sweep point, ``schmidt_number`` takes
it from the Gram identity K = (tr G)^2 / ||G||_F^2, G = M M^H, without an
SVD and without forming G.

Two variants matter in practice and are never interchanged silently:
the complex-JSA decomposition uses the full amplitude including phase,
while the flat-phase variant decomposes sqrt(JSI) = |F|, which is what a
phase-insensitive intensity measurement constrains.  No output reads the
flat-phase modes, so that SVD computes the singular values only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import export
from .errors import ValidationError
from .jsa import _BLOCK_CELLS, JsaGrid

TRUNCATION_RELATIVE = 1e-12
MODES_CSV_COUNT = 8


@dataclass(frozen=True)
class SchmidtResult:
    """Coefficients, mode count, and Schmidt modes of one decomposition.

    coefficients are descending and sum to 1.  For a complex
    decomposition, signal_modes[:, n] and idler_modes[:, n] are the discrete
    orthonormal mode vectors on the grid axes, with amplitude matrix =
    sum_n s_n S_n outer I_n.  A flat-phase result carries no modes: its
    mode arrays are empty, N x 0 and M x 0, for an N x M grid.
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


def _amplitude_matrix(grid, flat_phase: bool):
    """The amplitude matrix of a JsaGrid or a raw grid array, unscaled (for
    a complex input, its own values, not a copy), and whether it is
    flat-phase; raises ValidationError on an input no decomposition accepts."""
    if isinstance(grid, JsaGrid):
        a = grid.values
    else:
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
    return matrix, bool(flat_phase)


def schmidt_number(grid, flat_phase: bool = False) -> float:
    """Schmidt number K of the same input as ``schmidt_decompose``, without
    an SVD.

    With G = M M^H for the amplitude matrix M, the Schmidt coefficients are
    the eigenvalues of G / tr G, so K = 1 / Tr rho_s^2 = (tr G)^2 / ||G||_F^2
    (Law, Walmsley & Eberly, PRL 84, 5304 (2000)).  tr G is the squared
    norm of M.  ||G||_F^2 is summed over blocks of whole rows of M, about
    _BLOCK_CELLS cells each, M oriented so that its rows run along the
    shorter grid axis: a block is conj(G[rows, start:]) =
    conj(M[rows]) M[start:]^T, and as |G_jk| = |G_kj| its cells right of
    the diagonal count twice.  So neither G nor a conjugate copy of M is
    formed.  No coefficient is truncated, so K can differ from
    ``schmidt_decompose(...).K`` in the last digits.
    """
    m, _ = _amplitude_matrix(grid, flat_phase)
    trace = np.vdot(m, m).real
    if m.shape[0] > m.shape[1]:
        m = m.T
    step = max(1, _BLOCK_CELLS // m.shape[1])
    frobenius = 0.0
    for start in range(0, m.shape[0], step):
        block = np.conj(m[start:start + step]) @ m[start:].T
        diagonal = block[:, :block.shape[0]]
        frobenius += 2.0 * np.vdot(block, block).real - np.vdot(diagonal, diagonal).real
    return float(trace**2 / frobenius)


def schmidt_decompose(grid, flat_phase: bool = False) -> SchmidtResult:
    """SVD-based Schmidt decomposition of a JsaGrid or a raw grid array.

    flat_phase=True decomposes the magnitude |F| instead of F.  A raw real
    array is interpreted as a JSI (decomposed as sqrt(JSI), necessarily
    flat-phase); a raw complex array as a JSA.  Coefficients below 1e-12
    of the leading one are truncated as SVD noise; the rest sum to 1.  A
    flat-phase decomposition computes the singular values only and returns
    empty mode arrays.
    """
    matrix, flat_phase = _amplitude_matrix(grid, flat_phase)
    if flat_phase:
        s = np.linalg.svd(matrix, compute_uv=False)
        u, vh = np.empty((matrix.shape[0], 0)), np.empty((0, matrix.shape[1]))
    else:
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)

    c = s**2
    rank = int(np.count_nonzero(c >= TRUNCATION_RELATIVE * c[0]))
    c = c[:rank] / np.sum(c[:rank])

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
    """The MODES_CSV_COUNT leading Schmidt mode vectors of a complex
    decomposition (fewer when it has fewer) as CSV columns, real part then
    imaginary; a flat-phase result, which carries no modes, is refused."""
    if result.flat_phase:
        raise ValidationError("a flat-phase Schmidt result carries no modes")
    n = min(MODES_CSV_COUNT, result.n_modes)
    sig = result.signal_modes[:, :n]
    idl = result.idler_modes[:, :n]
    header = []
    cols = []
    for m in range(n):
        header += [f"S{m}_re", f"S{m}_im", f"I{m}_re", f"I{m}_im"]
        cols += [sig[:, m].real, sig[:, m].imag, idl[:, m].real, idl[:, m].imag]
    return export.to_csv(header, np.column_stack(cols), path)
