"""Tube-model dispersion of gas-filled antiresonant hollow-core fiber.

The fundamental-ish core modes of a single-ring antiresonant fiber are
modeled as those of a gas-filled tube of effective radius ``R_eff`` with a
silica wall of thickness ``t``:

    n_eff = n_gas - u^2 / (2 k0^2 n_gas R_eff^2)
            - u^2 / (k0^3 n_gas^2 R_eff^3)
              * cot(psi) * (eps + 1) / (2 sqrt(eps - 1))

with ``u`` the n-th zero of the Bessel function J_{m-1} for mode HE_{mn}
(2.405 for HE11), ``psi = k0 t sqrt(n_si^2 - n_gas^2)`` the transverse phase
across the wall, and ``eps = n_si^2 / n_gas^2``.  The cot term diverges at
the wall resonances

    lambda_j = (2 t / j) sqrt(n_si^2(lambda_j) - n_gas^2(lambda_j)),  j = 1, 2, ...

which split the spectrum into transmission bands, labeled with Roman
numerals from the long-wavelength side: band I lies above lambda_1, band II
between lambda_2 and lambda_1, and so on.  Labels are the orders j
themselves, so clipping to a narrower window never renumbers bands.
Evaluation is refused inside an exclusion zone of +-0.5% of lambda_j around
every resonance, where the tube model has no quantitative meaning.  Only
the resonances whose zones reach the window are solved, and a band is
listed only where some wavelength may be evaluated.

All dispersion arithmetic runs on reduced quantities: the reduced index
``delta_eff = n_eff - 1`` (a few 1e-4 in magnitude) and the reduced
wavevector ``kappa = omega * delta_eff / c``, so that group-delay
differences between pump, signal, and idler survive in double precision.
Group velocity dispersion is formed from kappa by central differences; the
full ``k = omega / c + kappa`` is reconstructed only on demand.

Units: R_eff in um, t in nm, wavelengths vacuum nm, omega rad/s, beta1 s/m,
beta2 s^2/m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gasmedia
from .errors import (
    ConvergenceError,
    DivergenceZoneError,
    NumericalError,
    RangeError,
    StencilError,
    ValidationError,
    check_number,
)
from .gasmedia import GasState

_C = 299792458.0  # speed of light in vacuum, m/s (exact in SI)

EXCLUSION_FRACTION = 0.005

# A mode order of 1000 makes the Bessel-zero eigensolve 2064 x 2064
# (34 MB); without a cap, mode_n = 1000000 asks for a 29 TiB matrix.
MAX_MODE_N = 1000
# A 100 um wall has about 1,400 resonances that reach the vacuum window, to
# solve at about 0.2 ms each; without a cap, t_nm = 1e12 asks for 1e10.
MAX_T_NM = 1e5

# relative omega steps for the dispersion stencils; the second-difference
# step is wider because beta2 of these fibers is ~1e-28 s^2/m and a 1e-5
# step would push the difference below double-precision cancellation noise
BETA1_REL_STEP = 1e-5
BETA2_REL_STEP = 1e-4
# a stencil that leaves its band is halved up to STENCIL_HALVINGS times, so
# the narrowest beta2 stencil reaches this far (relative) in omega
STENCIL_HALVINGS = 3
MIN_STENCIL_REACH = BETA2_REL_STEP * 0.5**STENCIL_HALVINGS
ZDW_GRID_POINTS = 400  # omega points of find_zdw's beta2 scan over a band

_ROMAN = (
    (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"),
    (90, "XC"), (50, "L"), (40, "XL"), (10, "X"), (9, "IX"),
    (5, "V"), (4, "IV"), (1, "I"),
)


def roman(n: int) -> str:
    n = check_number("roman numeral n", n, lo=1, integer=True)
    out = []
    for value, glyph in _ROMAN:
        while n >= value:
            out.append(glyph)
            n -= value
    return "".join(out)


# j_{0,1}, the HE11 mode parameter, as _bessel_zero_eigen rounds it (and
# as scipy's jn_zeros does): one ulp below the correctly rounded
# 2.404825557695773.  Every artifact depends on these bits, and the literal
# keeps a LAPACK call, which wakes the BLAS threads, out of every HE11 run.
_J01 = 2.4048255576957724


def _bessel_zero(nu: int, n: int) -> float:
    """n-th positive zero j_{nu,n} of the Bessel function J_nu."""
    if nu == 0 and n == 1:
        return _J01
    return _bessel_zero_eigen(nu, n)


def _bessel_zero_eigen(nu: int, n: int) -> float:
    """j_{nu,n} by an eigen-solve.

    The numbers 4 / j_{nu,k}^2 are the eigenvalues of a symmetric
    tridiagonal matrix (Ikebe, Kikuchi & Fujishiro, J. Comput. Appl. Math.
    38, 169 (1991)); cut at 2n + 64 rows, its n largest are exact to double
    precision.
    """
    k = np.arange(1.0, 2 * n + 65) * 2.0 + nu
    diag = 2.0 / ((k - 1.0) * (k + 1.0))
    off = 1.0 / ((k[:-1] + 1.0) * np.sqrt(k[:-1] * (k[:-1] + 2.0)))
    lam = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return float(2.0 / np.sqrt(lam[-n]))


def omega_from_lambda_nm(lambda_nm):
    return 2.0 * np.pi * _C / (np.asarray(lambda_nm, dtype=float) * 1e-9)


def lambda_nm_from_omega(omega):
    return 2.0 * np.pi * _C / np.asarray(omega, dtype=float) * 1e9


@dataclass(frozen=True)
class FiberModel:
    """Geometry and mode of the tube model."""

    R_eff_um: float
    t_nm: float
    mode_m: int = 1
    mode_n: int = 1

    def __post_init__(self):
        check_number("R_eff_um", self.R_eff_um, lo=0, lo_open=True)
        check_number("t_nm", self.t_nm, lo=0, lo_open=True)
        check_number("t_nm", self.t_nm, hi=MAX_T_NM)
        for name, cap in (("mode_m", None), ("mode_n", MAX_MODE_N)):
            # stored as an int, so mode_n = 1.0 indexes and prints as 1
            n = check_number(name, getattr(self, name), lo=1, hi=cap, integer=True)
            object.__setattr__(self, name, n)

    @cached_property
    def u(self) -> float:
        """Transverse mode parameter: n-th zero of J_{m-1}."""
        return _bessel_zero(self.mode_m - 1, self.mode_n)

    @property
    def mode_label(self) -> str:
        return f"HE{self.mode_m}{self.mode_n}"


@dataclass(frozen=True)
class Band:
    """One transmission band, clipped to the model window."""

    label: str
    index: int
    lo_nm: float
    hi_nm: float
    res_lo_nm: float | None
    res_hi_nm: float | None

    @property
    def usable_lo_nm(self) -> float:
        """Lower edge with the resonance exclusion zone removed."""
        if self.res_lo_nm is not None:
            return max(self.lo_nm, self.res_lo_nm * (1.0 + EXCLUSION_FRACTION))
        return self.lo_nm

    @property
    def usable_hi_nm(self) -> float:
        if self.res_hi_nm is not None:
            return min(self.hi_nm, self.res_hi_nm * (1.0 - EXCLUSION_FRACTION))
        return self.hi_nm


@dataclass(frozen=True)
class BandStructure:
    """Resonances and bands of one (fiber, gas) pair over a window; the
    resonances run from lambda_{first_j} down."""

    gas: GasState
    window_nm: tuple[float, float]
    resonances_nm: tuple[float, ...]  # descending: lambda_j > lambda_{j+1} > ...
    bands: tuple[Band, ...]
    first_j: int = 1

    @cached_property
    def bands_by_label(self) -> dict[str, Band]:
        return {b.label: b for b in self.bands}

    def band_index(self, lambda_nm) -> np.ndarray:
        """Band index j for each wavelength of the window (band I is j = 1):
        first_j plus the number of solved resonances above it."""
        lam = np.atleast_1d(np.asarray(lambda_nm, dtype=float))
        # arrays negated so searchsorted sees ascending order
        res = np.asarray(self.resonances_nm, dtype=float)
        return self.first_j + np.searchsorted(-res, -lam, side="left")

    def in_band_mask(self, lambda_nm) -> np.ndarray:
        """True where evaluation is allowed: in a band's usable interval."""
        lam = np.atleast_1d(np.asarray(lambda_nm, dtype=float))
        ok = np.zeros(lam.shape, dtype=bool)
        for b in self.bands:
            ok |= (lam > b.usable_lo_nm) & (lam < b.usable_hi_nm)
        return ok

    def require_band(self, lambda_nm: float) -> Band:
        """The band containing the wavelength, or require_bands' error."""
        check_number("lambda_nm", lambda_nm, lo=0, lo_open=True)
        self.require_bands(lambda_nm)
        return self.bands_by_label[roman(int(self.band_index(lambda_nm)[0]))]

    def require_bands(self, lambda_nm) -> None:
        """Check a whole array at once; the first wavelength outside every
        band raises the error that says why."""
        flat = np.asarray(lambda_nm, dtype=float).ravel()
        ok = self.in_band_mask(flat)
        if ok.all():
            return
        lam = float(flat[np.argmin(ok)])
        lo, hi = self.window_nm
        if not (lo < lam < hi):
            raise RangeError(
                f"{lam:.6g} nm outside the model window [{lo:.6g}, {hi:.6g}] nm "
                f"for {self.gas.species} at {self.gas.pressure_bar:g} bar"
            )
        # inside the window but in no band's usable interval, so within a
        # zone, whose edges are those of Band.usable_*
        for lj in self.resonances_nm:
            zone = (lj * (1.0 - EXCLUSION_FRACTION), lj * (1.0 + EXCLUSION_FRACTION))
            if zone[0] <= lam <= zone[1]:
                raise DivergenceZoneError(
                    f"{lam:.6g} nm lies within {100 * EXCLUSION_FRACTION:.1f}% of the "
                    f"wall resonance at {lj:.6g} nm where the tube model diverges",
                    lambda_j_nm=lj,
                )


def model_window_nm(fiber: FiberModel, gas: GasState) -> tuple[float, float]:
    """Joint validity window of the gas and wall dispersion data."""
    si = gasmedia.get_model("silica")
    lo = max(gas.model.lambda_min_nm, si.lambda_min_nm)
    hi = min(gas.model.lambda_max_nm, si.lambda_max_nm)
    if not lo < hi:
        raise ValidationError(
            f"empty joint validity window for {gas.species} and silica"
        )
    return (lo, hi)


def _wall_index(gas: GasState, lam_nm):
    """sqrt(n_si^2 - n_gas^2) at lam_nm.  It falls with the wavelength for
    the bundled gases, whose indices fall more slowly than silica's."""
    si = gasmedia.get_model("silica")
    n_si2 = 1.0 + si.n_squared_minus_one(lam_nm, check=False)
    dg = gasmedia.delta_gas(gas, lam_nm, check=False)
    return np.sqrt(n_si2 - (1.0 + dg) ** 2)


def _solve_resonance(fiber: FiberModel, gas: GasState, j: int) -> float:
    """Fixed-point solve of lambda_j = (2t/j) sqrt(n_si^2 - n_gas^2)."""
    t_um = fiber.t_nm * 1e-3
    # seed with fixed indices n_si = 1.45, n_gas = 1
    lam_um = (2.0 * t_um / j) * np.sqrt(1.45**2 - 1.0)
    for _ in range(100):
        nxt = (2.0 * t_um / j) * _wall_index(gas, lam_um * 1e3)
        if abs(nxt - lam_um) < 1e-12:  # 1e-9 nm in um
            return float(nxt * 1e3)
        lam_um = nxt
    raise ConvergenceError(
        f"resonance j={j} did not converge to 1e-9 nm within 100 iterations "
        f"(t = {fiber.t_nm:g} nm, {gas.species} at {gas.pressure_bar:g} bar)"
    )


@lru_cache(maxsize=64)
def band_structure(fiber: FiberModel, gas: GasState) -> BandStructure:
    """Bands over the full joint validity window (cached).

    G(x) = 2t sqrt(n_si^2 - n_gas^2) falls in x, so lambda_j < x exactly
    when j > G(x) / x.  That picks the resonances below
    c = hi / (1 - EXCLUSION_FRACTION), whose zones can reach the window,
    down to a floor past its lower edge (170 nm keeps the Sellmeier sums
    clear of their UV poles).
    """
    window = model_window_nm(fiber, gas)
    lo, hi = window

    def order(x: float) -> int:
        with np.errstate(invalid="ignore"):
            g = 2.0 * fiber.t_nm * _wall_index(gas, x) / x
        if not np.isfinite(g):
            raise RangeError(
                f"no wall resonances: n_si^2 - n_gas^2 is not positive at "
                f"{x:.6g} nm for {gas.species} at {gas.pressure_bar:g} bar"
            )
        return int(g)

    first = order(hi / (1.0 - EXCLUSION_FRACTION)) + 1
    last = order(max(170.0, 0.8 * lo))
    res = tuple(_solve_resonance(fiber, gas, j) for j in range(first, last + 1))

    bands: list[Band] = []
    # band j spans (lambda_j, lambda_{j-1}); lambda_{first - 1} lies above c
    edges = (np.inf,) + res + (0.0,)
    for idx, (res_hi, res_lo) in enumerate(zip(edges, edges[1:]), start=first):
        band = Band(
            label=roman(idx),
            index=idx,
            lo_nm=max(lo, res_lo),
            hi_nm=min(hi, res_hi),
            res_lo_nm=res_lo if res_lo > 0.0 else None,
            res_hi_nm=res_hi if np.isfinite(res_hi) else None,
        )
        if band.usable_lo_nm < band.usable_hi_nm:
            bands.append(band)
    return BandStructure(
        gas=gas, window_nm=window, resonances_nm=res, bands=tuple(bands), first_j=first
    )


def delta_eff(
    fiber: FiberModel,
    gas: GasState,
    lambda_nm,
    check: bool = True,
):
    """Reduced effective index n_eff - 1 of the mode.

    Gas dispersion, minus the capillary deficit of the core, minus the
    strut term whose cot diverges at the wall resonances.
    """
    lam = np.asarray(lambda_nm, dtype=float)
    if check:  # also holds lam inside the gas and silica windows
        band_structure(fiber, gas).require_bands(lam)
    dg = gasmedia.delta_gas(gas, lam, check=False)
    n_gas = 1.0 + dg
    u = fiber.u
    k0 = 2.0 * np.pi / (lam * 1e-9)
    R = fiber.R_eff_um * 1e-6
    si = gasmedia.get_model("silica")
    n_si2 = 1.0 + si.n_squared_minus_one(lam, check=False)
    eps = n_si2 / n_gas**2
    psi = k0 * (fiber.t_nm * 1e-9) * np.sqrt(n_si2 - n_gas**2)
    return dg - u**2 / (2.0 * k0**2 * n_gas * R**2) - (
        u**2 / (k0**3 * n_gas**2 * R**3)
        * (eps + 1.0) / (2.0 * np.sqrt(eps - 1.0) * np.tan(psi))
    )


def reduced_kappa(fiber: FiberModel, gas: GasState, omega, check: bool = True):
    """Reduced wavevector kappa = omega (n_eff - 1) / c in rad/m."""
    om = np.asarray(omega, dtype=float)
    lam = lambda_nm_from_omega(om)
    return om * delta_eff(fiber, gas, lam, check=check) / _C


@dataclass(frozen=True)
class DispersionPoint:
    """Local dispersion at one wavelength, or per element of an array."""

    lambda_nm: float
    k: float        # rad/m
    beta1: float    # s/m, inverse group velocity
    beta2: float    # s^2/m


def dispersion_derivatives(
    fiber: FiberModel, gas: GasState, lambda_nm
) -> DispersionPoint:
    """k, beta1, beta2 by central differences on kappa, at one wavelength
    or per element of an array (the fields then take its shape).

    beta1 = 1/c + d kappa / d omega at relative step 1e-5; beta2 from the
    second central difference at relative step 1e-4.  If a stencil point
    lands outside the band (near a resonance or window edge) that element's
    steps are halved up to three times before giving up.  The first
    wavelength outside a band, or without room for a stencil, names the
    error.
    """
    lam0 = np.asarray(lambda_nm, dtype=float)
    structure = band_structure(fiber, gas)
    structure.require_bands(lam0)
    lam = lam0.ravel()
    om0 = omega_from_lambda_nm(lam)

    # row a of h1 and h2 halves the steps a times; pts is (5, rows, lam.size)
    halving = 0.5 ** np.arange(STENCIL_HALVINGS + 1.0)[:, None]
    h1, h2 = BETA1_REL_STEP * om0 * halving, BETA2_REL_STEP * om0 * halving
    pts = om0 + np.array([-h2, -h1, np.zeros_like(h1), h1, h2])
    fits = np.all(structure.in_band_mask(lambda_nm_from_omega(pts)), axis=0)
    room = fits.any(axis=0)
    if not room.all():
        raise StencilError(
            f"no room for a dispersion stencil at {lam[np.argmin(room)]:.6g} nm; "
            f"a band edge or resonance exclusion zone is closer than "
            f"{MIN_STENCIL_REACH:.1e} (relative) in omega"
        )
    first, cols = np.argmax(fits, axis=0), np.arange(lam.size)
    h1, h2, pts = h1[first, cols], h2[first, cols], pts[:, first, cols]

    kap = reduced_kappa(fiber, gas, pts, check=False)
    k = om0 / _C + kap[2]
    beta1 = 1.0 / _C + (kap[3] - kap[1]) / (2.0 * h1)
    beta2 = (kap[4] - 2.0 * kap[2] + kap[0]) / h2**2
    fields = (lam, k, beta1, beta2)
    if lam0.ndim == 0:
        return DispersionPoint(*(float(f[0]) for f in fields))
    return DispersionPoint(*(f.reshape(lam0.shape) for f in fields))


def _beta2_on_grid(
    fiber: FiberModel, gas: GasState, omega: np.ndarray
) -> np.ndarray:
    """Vectorized beta2 for grids already known to sit safely inside a band.

    One kappa evaluation covers the whole stencil; kappa is elementwise, so
    its rows equal three separate evaluations bit for bit.
    """
    h2 = BETA2_REL_STEP * omega
    kp, k0, km = reduced_kappa(
        fiber, gas, np.stack((omega + h2, omega, omega - h2)), check=False
    )
    return (kp - 2.0 * k0 + km) / h2**2


def _brentq(f, xa, xb, xtol=2e-12, rtol=1e-13, maxiter=100) -> float:
    """Root of f between xa and xb by Brent's method.

    A step-for-step port of SciPy's C ``brentq`` (R. P. Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4), so it evaluates f
    at the same points and returns the same float.  f(xa) and f(xb) must
    differ in sign.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError(f"no sign change to bracket on [{xa!r}, {xb!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise ConvergenceError(
        f"Brent root solve did not converge within {maxiter} iterations "
        f"on [{xa!r}, {xb!r}]"
    )


def find_zdw(fiber: FiberModel, gas: GasState, band: Band) -> list[float]:
    """Zero-dispersion wavelengths (beta2 = 0) inside one band, in nm.

    Scans beta2 on a uniform omega grid of ZDW_GRID_POINTS over the band
    interior (staying clear of exclusion zones and leaving stencil margin),
    brackets sign changes, and polishes each with a Brent root solve.
    Returns wavelengths in ascending order; empty list if beta2 does not
    cross zero.

    beta2 comes from a finite-difference stencil on kappa, and within about
    1e-8 (relative) of the root its sign is rounding noise, so the model
    fixes the ZDW only to about 1e-8 relative.  The value returned is
    reproducible far below that, because the Brent solve visits the same
    points on every run; a different root finder would land elsewhere in
    the noise band.
    """
    # interior margins: exclusion zone is 0.5%, stencil reach is 2e-4, so
    # 0.6% against resonance edges and 0.1% against window edges is safe
    lo, hi = band.lo_nm * 1.001, band.hi_nm * 0.999
    if band.res_lo_nm is not None:
        lo = max(band.lo_nm, band.res_lo_nm * (1.0 + EXCLUSION_FRACTION + 1e-3))
    if band.res_hi_nm is not None:
        hi = min(band.hi_nm, band.res_hi_nm * (1.0 - EXCLUSION_FRACTION - 1e-3))
    if not lo < hi:
        return []

    om = np.linspace(
        float(omega_from_lambda_nm(hi)), float(omega_from_lambda_nm(lo)),
        ZDW_GRID_POINTS,
    )
    b2 = _beta2_on_grid(fiber, gas, om)

    def f(omega: float) -> float:
        return float(_beta2_on_grid(fiber, gas, np.array([omega]))[0])

    roots: list[float] = []
    sign = np.sign(b2)
    for i in range(om.size - 1):
        if sign[i] == 0.0:
            roots.append(float(om[i]))
        elif sign[i] * sign[i + 1] < 0.0:
            roots.append(_brentq(f, om[i], om[i + 1]))
    if sign[-1] == 0.0:
        roots.append(float(om[-1]))

    lams = sorted(float(lambda_nm_from_omega(r)) for r in roots)
    deduped: list[float] = []
    for lam in lams:
        if not deduped or abs(lam - deduped[-1]) > 1e-5 * lam:
            deduped.append(lam)
    return deduped
