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
phase-insensitive intensity measurement constrains.  Both take their
coefficients from one values-only SVD.  No output reads the flat-phase
modes, so that variant stops there.  The complex variant adds the
MODES_CSV_COUNT leading modes, the ones ``modes.csv`` writes, from a
short block subspace iteration on M with Rayleigh-Ritz (Halko,
Martinsson & Tropp, SIAM Rev. 53, 217 (2011), Alg. 4.4), which never
forms the other singular vectors.  Its pass count follows from the known
singular values, and every mode it returns is checked against
||M v_n - s_n u_n|| <= 1e-10 s_n; where the gap is too small for that
or the check fails, the modes come from the full SVD instead.  Either
way each mode has one fixed phase: <r, S_n> = sum_j (j + 1) S_n[j] is
real and positive.  A ramp r is used because an all-ones r is orthogonal
to every odd mode of a symmetric grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import export
from .errors import ValidationError
from .jsa import _BLOCK_CELLS, JsaGrid

TRUNCATION_RELATIVE = 1e-12
MODES_CSV_COUNT = 8
# columns the subspace iteration carries beyond the modes it returns
_OVERSAMPLE = 8
# ||M v_n - s_n u_n|| / s_n that every returned mode must meet
_RESIDUAL_RELATIVE = 1e-10
# passes are chosen so that gap^(2 passes + 1) reaches this, a decade
# below the residual bound; a gap that needs more than _MAX_PASSES goes
# to the full SVD, which at N = 512 costs about 60 passes
_CONVERGED = 0.1 * _RESIDUAL_RELATIVE
_MAX_PASSES = 16
# one column of the start block per prime: frac((j + 1) sqrt(prime)) - 1/2
# at row j, Weyl sequences whose columns are asymptotically uncorrelated,
# as the square roots of distinct primes are rationally independent
_START_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@dataclass(frozen=True)
class SchmidtResult:
    """Coefficients, mode count, and leading Schmidt modes of one
    decomposition.

    coefficients are descending and sum to 1; n_modes counts them.  For a
    complex decomposition of an N x M grid, signal_modes (N x k) and
    idler_modes (M x k) hold the k = min(MODES_CSV_COUNT, n_modes) leading
    discrete orthonormal mode vectors on the grid axes, with amplitude
    matrix ~ sum_n s_n S_n outer I_n, and each S_n is phased so that
    sum_j (j + 1) S_n[j] is real and positive.  A flat-phase result
    carries no modes: its mode arrays are empty, N x 0 and M x 0.
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
    flat-phase); a raw complex array as a JSA.  The coefficients come from
    a values-only SVD; those below 1e-12 of the leading one are truncated
    as SVD noise, and the rest sum to 1.  A complex decomposition adds its
    MODES_CSV_COUNT leading modes (fewer when it has fewer coefficients);
    a flat-phase one returns empty mode arrays.
    """
    matrix, flat_phase = _amplitude_matrix(grid, flat_phase)
    s = np.linalg.svd(matrix, compute_uv=False)
    c = s**2
    rank = int(np.count_nonzero(c >= TRUNCATION_RELATIVE * c[0]))
    if flat_phase:
        u, v = np.empty((matrix.shape[0], 0)), np.empty((matrix.shape[1], 0))
    else:
        u, v = _leading_modes(matrix, s, min(MODES_CSV_COUNT, rank))
    c = c[:rank] / np.sum(c[:rank])

    return SchmidtResult(
        coefficients=c,
        K=float(1.0 / np.sum(c**2)),
        purity=float(np.sum(c**2)),
        flat_phase=bool(flat_phase),
        signal_modes=u,
        idler_modes=np.conj(v),
    )


def _passes(gap: float) -> int | None:
    """Subspace-iteration passes that bring gap^(2 passes + 1) down to
    _CONVERGED, or None where that takes more than _MAX_PASSES.  After
    q passes on a block of p columns, the angle to the n-th mode has
    shrunk as (s[p-1] / s[n])^(2q + 1), so the last written mode, n = k - 1,
    sets the gap."""
    if gap == 0.0:
        return 0
    if gap >= 1.0:
        return None
    passes = max(0, int(np.ceil((np.log(_CONVERGED) / np.log(gap) - 1.0) / 2.0)))
    return passes if passes <= _MAX_PASSES else None


def _start_block(rows: int, p: int) -> np.ndarray:
    """The fixed rows x p start block of the subspace iteration."""
    j = np.arange(1.0, rows + 1.0)[:, None]
    return (j * np.sqrt(np.array(_START_PRIMES[:p], dtype=float))) % 1.0 - 0.5


def _subspace_modes(m, k: int, p: int, passes: int):
    """Alg. 4.4 of Halko et al. with Rayleigh-Ritz: the k leading left and
    right singular vectors of m from `passes` passes on a p-column block,
    with a QR after every product.  m^H q is formed as (q^H m)^H, so no
    conjugate copy of m is made."""
    q = np.linalg.qr(m @ _start_block(m.shape[1], p))[0]
    for _ in range(passes):
        q = np.linalg.qr((q.conj().T @ m).conj().T)[0]
        q = np.linalg.qr(m @ q)[0]
    ub, _, vhb = np.linalg.svd(q.conj().T @ m, full_matrices=False)
    return q @ ub[:, :k], vhb[:k].conj().T


def _leading_modes(m, s, k: int):
    """The k leading singular vector pairs (u_n, v_n), M v_n = s_n u_n, of
    m with singular values s, each phased so that <r, u_n> is real and
    positive for the ramp r_j = j + 1; from the subspace iteration where
    the gap allows it and every residual passes, else from the full SVD."""
    p = min(k + _OVERSAMPLE, *m.shape)
    # a block that spans the smaller side captures every mode at once
    passes = _passes(s[p - 1] / s[k - 1] if p < min(m.shape) else 0.0)
    if passes is not None:
        u, v = _subspace_modes(m, k, p, passes)
        residual = np.linalg.norm(m @ v - u * s[:k], axis=0)
        if not np.all(residual <= _RESIDUAL_RELATIVE * s[:k]):
            passes = None
    if passes is None:
        u, _, vh = np.linalg.svd(m, full_matrices=False)
        u, v = u[:, :k], vh[:k].conj().T
    # summed elementwise, so that no BLAS thread split enters the phase; a
    # mode orthogonal to r (angle 0) keeps the phase it has
    projection = np.sum(np.arange(1.0, u.shape[0] + 1.0)[:, None] * u, axis=0)
    phase = np.exp(-1j * np.angle(projection))
    return u * phase, v * phase


def schmidt_to_json(result: SchmidtResult, path: str | None = None) -> str | None:
    obj = {
        "c": result.coefficients,
        "K": result.K,
        "purity": result.purity,
        "flat_phase": result.flat_phase,
    }
    return export.to_json(obj, path)


def schmidt_modes_to_csv(result: SchmidtResult, path: str | None = None) -> str | None:
    """The Schmidt mode vectors a complex decomposition holds (its
    MODES_CSV_COUNT leading ones, fewer when it has fewer) as CSV columns,
    real part then imaginary; a flat-phase result, which carries no
    modes, is refused."""
    if result.flat_phase:
        raise ValidationError("a flat-phase Schmidt result carries no modes")
    sig, idl = result.signal_modes, result.idler_modes
    header = []
    cols = []
    for m in range(sig.shape[1]):
        header += [f"S{m}_re", f"S{m}_im", f"I{m}_re", f"I{m}_im"]
        cols += [sig[:, m].real, sig[:, m].imag, idl[:, m].real, idl[:, m].imag]
    return export.to_csv(header, np.column_stack(cols), path)
