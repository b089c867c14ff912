"""Closed-form spectrum, ambiguity function and autocorrelation.

With c_m the coefficients of the periodic phase factor (see gbf), the pulse is
s(t) = T^(-1/2) sum_m c_m exp(j 2 pi m t / T) on |t| <= T/2, so

    S(f) = sqrt(T) sum_m c_m sinc(T f - m),

where sinc x = sin(pi x) / (pi x).  With n = rint(T f) and r = T f - n, an
exact subtraction with |r| <= 1/2, every sine of the sum is one sine:
sin(pi (T f - m)) = (-1)^(n - m) sin(pi r), so

    S(f) = sqrt(T) (-1)^n sin(pi r) / pi  sum_m (-1)^m c_m / (T f - m).

That costs one sine per frequency and one reciprocal per (f, m) pair, and
the sine never sees an argument beyond pi / 2.  At r = 0 the prefactor and
the term m = n are 0 and 1/0; there sinc(n - m) is 1 at m = n and 0
elsewhere, so S = sqrt(T) c_n, or 0 when |n| > M.

Integrating each harmonic pair over the overlap of the two shifted pulses
gives, for 0 <= tau <= T and A = 1 - tau/T,

    chi(tau, nu) = A sum_{m,n} c_m conj(c_n) exp(-j pi (m + n) tau / T)
                   sinc(A x),   x = m - n + nu T,

with chi(-tau, -nu) = conj(chi(tau, nu)) and chi = 0 for |tau| >= T.  The
autocorrelation is R(tau) = chi(tau, 0).

The double sum is never evaluated pairwise.  Writing
A sinc(A x) = (exp(j pi A x) - exp(-j pi A x)) / (j 2 pi x) splits every term
with x != 0 into one exponential in tau carried by m and one carried by n:

    chi = exp(-j pi nu tau) sum_m u_m z_m - exp(j pi nu tau) sum_n v_n z_n
          + A sinc(A x0) exp(-j pi k0 tau / T) sum_n g_n z_n,

    z_m = exp(-j 2 pi m tau / T),
    u_m = c_m sum_n p_{m-n} conj(c_n),     p_k = exp(j pi x_k) / (j 2 pi x_k),
    v_n = conj(c_n) sum_m q_{m-n} c_m,     q_k = exp(-j pi x_k) / (j 2 pi x_k),
    g_n = c_{n+k0} conj(c_n),              x_k = k + nu T.

k0 is the lag nearest -nu T.  It is the one lag where x can vanish and the
two exponentials cancel, so it is left out of p and q and kept in the direct
sinc form; every other lag has |x_k| >= 1/2.  u and v are two convolutions
over the 4M + 1 lags, one FFT product each, so a Doppler costs O(M log M)
and every delay after that O(M).  Since q_k = -conj(p_k), v_n is
-conj(c_n sum_m p_{m-n} conj(c_m)), the lag correlation of the same kernel
with conj(c), and one kernel per Doppler serves both.

_chi_causal evaluates this on a half tau >= 0 for one Doppler grid;
af_surface calls it once for that half and once for the tau < 0 rows, found
as conj chi(-tau, -nu).  g depends on nu only through k0, so each call sums
g once per distinct k0 of the Doppler grid (21 for 64 Dopplers in +-10/T),
while the sinc and phase factors stay per Doppler.  On a uniform delay grid
s_i = s_0 + i ds, each delay sum sum_m W_m z_m is a chirp-z transform in m.
Each call builds one transform over its own ascending delays and applies it
to the g rows and to each Doppler block's u and v rows, at
O((M + n_tau) log) per row.  A Doppler block's kernels hold _BLOCK complex
elements, or one kernel row if that is longer, and the g rows go through the
transform in blocks of as many rows, so beyond the transforms and the
output the working set does not grow with the grid.

At nu = 0, k0 = 0, g_n = |c_n|^2 and p_k = q_k = (-1)^k / (j 2 pi k).  That
kernel is imaginary and odd in k, so conj(p_{n-m}) = -p_{n-m} = p_{m-n} and

    conj(u_n) = conj(c_n) sum_m conj(p_{n-m}) c_m
              = conj(c_n) sum_m p_{m-n} c_m = v_n.

So u - v = 2j Im u, and

    R(tau) = A sum_m w_m z_m + 2j sum_m v_m z_m,
    w_m = |c_m|^2,  v_m = Im u_m,

two sums of real weights from one lag convolution, which lag_weights
returns.  w is the line spectrum, |S(m / T)|^2 = T w_m.  On the grid
tau_j = j T / N, z_m depends on m mod N alone, so after binning the
harmonics each sum is one length-N FFT.  The binning is exact for any N.

Each kernel takes T and c = c_{-M..M} from gbf.compute_coefficients, the one
input that describes the pulse: it depends on h and the code, not on T.  A
kernel returns the arrays it computes and no grid the caller passed in.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .waveform import OutOfSupport, _count, _fft_len

# af_surface builds the kernels of as many Dopplers at a time as fit in
# _BLOCK complex elements; spectrum forms the reciprocals of as many
# frequencies at a time as fit in 2 * _BLOCK reals.
_BLOCK = 1 << 14


def _order(c: np.ndarray) -> int:
    """M of c = c_{-M..M}; ValueError unless c is 1-d and odd in length."""
    if c.ndim != 1 or len(c) % 2 == 0:
        raise ValueError(f"c must be 1-d and odd in length, got {c.shape}")
    return len(c) // 2


def spectrum(c: np.ndarray, T: float, f_grid) -> np.ndarray:
    """S(f) on f_grid (Hz), |f T| <= 2^52, a complex array of its shape.

    The reciprocals are formed in blocks of 2 * _BLOCK reals, a row at a
    time beyond 8192 columns, and each value is a sum over its own row in a
    fixed order.  So a single frequency equals its entry in any grid, bit
    for bit, whatever the block size or the machine's thread settings.
    """
    M = _order(c)
    m = np.arange(-M, M + 1)
    x = T * OutOfSupport.check(f_grid, OutOfSupport.CYCLES / T, "f").ravel()
    n = np.rint(x)
    r = x - n
    on = r == 0.0
    # (-1)^m c_m, split into contiguous real vectors, which take einsum's
    # vectorized loop
    alt = np.where(m % 2, -c, c)
    re, im = np.ascontiguousarray(alt.real), np.ascontiguousarray(alt.imag)
    scale = (np.sqrt(T) / np.pi * np.where(n % 2, -1.0, 1.0)
             * np.sin(np.pi * r))
    # rows with r = 0 are set below; 0.5 keeps their reciprocals finite
    x = np.where(on, 0.5, x)
    vals = np.empty(len(x), dtype=complex)
    # einsum sums a row longer than its iterator's 8192-element buffer in
    # pieces whose order depends on the other rows, so those go one by one
    step = max(1, 2 * _BLOCK // len(m)) if len(m) <= 8192 else 1
    for i in range(0, len(x), step):
        inv = np.subtract.outer(x[i:i + step], m)
        np.divide(1.0, inv, out=inv)
        # einsum without optimize sums each row on its own, never in BLAS
        row_scale = scale[i:i + step]
        vals.real[i:i + step] = row_scale * np.einsum("ij,j->i", inv, re)
        vals.imag[i:i + step] = row_scale * np.einsum("ij,j->i", inv, im)
    n = n[on]
    c_n = c[np.clip(n, -M, M).astype(int) + M]
    vals[on] = np.where(np.abs(n) <= M, np.sqrt(T) * c_n, 0.0)
    return vals.reshape(np.shape(f_grid))


def _kernel_fft(M: int, nuT: np.ndarray, size: int) -> np.ndarray:
    """Length-size FFT of p_k over k = -2M..2M, one row per Doppler nu T.

    p_k = exp(j pi x) / (j 2 pi x), x = k + nu T, with the lag nearest
    -nu T left out.  A size of at least 4M + 1 keeps the wrapped tail of
    the full convolution off the slice _lag_conv returns.
    """
    k = np.arange(-2 * M, 2 * M + 1)
    x = k + nuT[:, None]
    near = k == -np.rint(nuT)[:, None]
    x[near] = 1.0
    p = np.exp(1j * np.pi * x)
    p /= 2j * np.pi * x
    p[near] = 0.0
    return np.fft.fft(p, size)


def _lag_conv(P: np.ndarray, D: np.ndarray, M: int) -> np.ndarray:
    """sum_n p_{m-n} d_n for m = -M..M, from the FFTs P of p and D of d."""
    return np.fft.ifft(P * D)[:, 2 * M:4 * M + 1]


def _sinc_rows(c: np.ndarray, M: int, k0: np.ndarray) -> np.ndarray:
    """g_n = c_{n+k0} conj(c_n) of the module docstring, one row per k0."""
    src = np.arange(2 * M + 1) + k0.astype(int)[:, None]
    inside = (src >= 0) & (src <= 2 * M)
    return np.where(inside, c[np.clip(src, 0, 2 * M)], 0.0) * np.conj(c)


def chirp_z(b: float, a: float, q: float, n_in: int, n_out: int):
    """The map x -> sum_n x[..., n] exp(-j 2 pi (b + k a)(q + n)) for
    k = 0..n_out - 1, over the last axis of x (n_in samples); 2q must be an
    integer.

    Bluestein's chirp-z transform: 2 k n = k^2 + n^2 - (k - n)^2 turns the
    sum into one FFT convolution with the chirp exp(j pi a j^2).  Each phase
    is pi times b or a times an exact integer J, |J| < 2^53, taken mod 2 pi
    from exact products: the Veltkamp halves of b or a times the 26-bit
    halves of J.  The factors are built once; the map applies them to rows.
    """
    def turn(x, J):
        hi = x * 134217729.0
        hi -= hi - x
        J_lo = np.fmod(J, 67108864.0)
        r = np.fmod(np.multiply.outer([hi, x - hi], [J - J_lo, J_lo]), 2.0)
        return np.exp(-1j * np.pi * r.sum(axis=(0, 1)))

    n, k = np.arange(n_in, dtype=float), np.arange(n_out, dtype=float)
    size = _fft_len(n_in + n_out - 1)
    pre = turn(b, 2.0 * (q + n)) * turn(a, n * n)
    j = np.arange(1 - n_in, n_out, dtype=float)
    chirp = np.fft.fft(np.conj(turn(a, j * j)), size)
    post = turn(a, k * (2.0 * q + k))

    def transform(x):
        conv = np.fft.ifft(np.fft.fft(x * pre, size) * chirp)
        return post * conv[..., n_in - 1:n_in - 1 + n_out]

    return transform


def _chi_causal(c: np.ndarray, M: int, s: np.ndarray, ds: float,
                nuT: np.ndarray) -> np.ndarray:
    """chi at the delays s T >= 0, s = s_0 + i ds ascending, and the
    Dopplers nuT / T; one row per delay."""
    size = _fft_len(4 * M + 1)
    F_conj = np.fft.fft(np.conj(c), size)
    # the FFT of conj(c) reversed turns _lag_conv into a lag correlation
    F_rev = np.fft.fft(np.conj(c[::-1]), size)
    sums = chirp_z(s[0], ds, -M, 2 * M + 1, len(s))
    # the distinct k0, sorted; np.unique would import numpy.ma
    k0s = np.sort(-np.rint(nuT))
    k0s = k0s[np.diff(k0s, prepend=np.nan) != 0.0]
    block = max(1, _BLOCK // size)
    g_sums = np.empty((len(s), len(k0s)), dtype=complex)
    for j in range(0, len(k0s), block):
        g_sums[:, j:j + block] = sums(_sinc_rows(c, M, k0s[j:j + block])).T
    A = (1.0 - s)[:, None]
    chi = np.empty((len(s), len(nuT)), dtype=complex)
    for j in range(0, len(nuT), block):
        x = nuT[j:j + block]
        P = _kernel_fft(M, x, size)
        u = c * _lag_conv(P, F_conj, M)
        v = -np.conj(c * _lag_conv(P, F_rev, M)[:, ::-1])
        S = sums(np.concatenate([u, v])).T
        k0 = -np.rint(x)
        chi[:, j:j + block] = (
            np.exp(-1j * np.pi * np.outer(s, x)) * S[:, :len(x)]
            - np.exp(1j * np.pi * np.outer(s, x)) * S[:, len(x):]
            + A * np.sinc(A * (k0 + x)) * np.exp(-1j * np.pi * np.outer(s, k0))
            * g_sums[:, np.searchsorted(k0s, k0)])
    chi[s >= 1.0] = 0.0
    return chi


def ambiguity(c: np.ndarray, T: float, tau: float, nu: float) -> complex:
    """chi(tau, nu) at a single delay/Doppler point.

    Raises OutOfSupport unless |tau| <= T and |nu T| <= 2^52; chi(+-T, nu) = 0.
    """
    return complex(af_surface(c, T, [tau], [nu])[0, 0])


def af_surface(c: np.ndarray, T: float, tau_grid, nu_grid) -> np.ndarray:
    """chi on the outer product of tau_grid and nu_grid: a complex array
    with one row per delay and one column per Doppler.

    tau_grid must be ascending and uniform, as np.linspace makes it, or one
    delay; any other delay grid raises ValueError.  Negative delays come
    from chi(tau, nu) = conj(chi(-tau, -nu)).  Each half of the grid,
    tau >= 0 and tau < 0, takes its delay sums by one chirp-z transform at
    s_0 + i ds, where s_0 is the half's delay nearest 0 and ds the grid's
    step, both over T; these lie within a few ulps of tau_grid / T.
    Results repeat bit for bit across runs, but not across grid shapes.
    """
    M = _order(c)
    taus = OutOfSupport.check(tau_grid, T, "tau")
    nuT = OutOfSupport.check(nu_grid, OutOfSupport.CYCLES / T, "nu") * T
    s = taus / T
    ds = (s[-1] - s[0]) / (len(s) - 1) if len(s) > 1 else 0.0
    # 20000 random np.linspace grids lay at most 7 ulps off s_0 + i ds
    if ds < 0.0 or np.any(np.abs(s - (s[:1] + ds * np.arange(len(s))))
                          > 16.0 * np.spacing(np.max(np.abs(s), initial=0.0))):
        raise ValueError("tau_grid must be ascending and uniformly spaced")
    neg = s < 0
    chi = np.empty((len(taus), len(nuT)), dtype=complex)
    if not neg.all():
        chi[~neg] = _chi_causal(c, M, s[~neg], ds, nuT)
    if neg.any():
        chi[neg] = np.conj(_chi_causal(c, M, -s[neg][::-1], ds, -nuT))[::-1]
    return chi


@lru_cache(maxsize=1)
def _acf_kernel(M: int, size: int) -> np.ndarray:
    """_kernel_fft's read-only nu = 0 row; a scan's codes share their M."""
    P = _kernel_fft(M, np.zeros(1), size)
    P.setflags(write=False)
    return P


def lag_weights(c: np.ndarray):
    """(w, v) over m = -M..M, the real weights of R(tau) in the module
    docstring: w_m = |c_m|^2 and v_m = Im u_m at nu = 0."""
    M = _order(c)
    size = _fft_len(4 * M + 1)
    P = _acf_kernel(M, size)
    u = c * _lag_conv(P, np.fft.fft(np.conj(c), size), M)[0]
    return c.real ** 2 + c.imag ** 2, u.imag


def acf_uniform(c: np.ndarray, T: float, n_tau: int | None = None):
    """R(tau) on the uniform grid tau_j = j T / n_tau, j = 0..n_tau.

    n_tau=None takes max(4096, 2 size), size = _fft_len(4M + 1) the lag
    FFT's length: steps of at most T / (4 (2M + 1)), a quarter of the
    resolution of harmonics spanning (2M + 1) / T.  The grid includes
    tau = T, where R vanishes.  The weights of lag_weights are binned by
    m mod n_tau and evaluated with one length-n_tau FFT each.

    Returns:
        (tau, R): arrays of length n_tau + 1.
    """
    M = _order(c)
    n_tau = _count(max(4096, 2 * _fft_len(4 * M + 1)) if n_tau is None
                   else n_tau, 1, "n_tau")
    w, v = lag_weights(c)
    bins = np.arange(-M, M + 1) % n_tau
    G = np.fft.fft(np.bincount(bins, w, n_tau))
    U = np.fft.fft(np.bincount(bins, v, n_tau))
    A = 1.0 - np.arange(n_tau) / n_tau
    tau = np.arange(n_tau + 1) * (T / n_tau)
    return tau, np.concatenate([A * G + 2j * U, [0.0]])
