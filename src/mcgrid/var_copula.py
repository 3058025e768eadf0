"""Built-in example study: portfolio Value-at-Risk under copula dependence.

One sub-job simulates ``n`` iid vectors of ``d`` dependent log-returns whose
dependence is a Clayton or Gumbel copula with Kendall's tau ``tau``, maps them
through standard-normal margins, aggregates the weighted linear losses

    L = -sum_j w_j * (exp(X_j) - 1),

and returns the empirical ``alpha``-quantiles of L (the Value-at-Risk
estimates), one per confidence level.

Copula sampling uses the frailty construction: draw V once per vector, then
U_j = psi(E_j / V) with E_j iid standard exponentials, where psi is the
generator inverse (Clayton: psi(t) = (1+t)^(-1/theta) with V ~ Gamma(1/theta);
Gumbel: psi(t) = exp(-t^(1/theta)) with V positive stable of index 1/theta,
drawn by the Kanter/Chambers-Mallows-Stuck representation).  All uniforms are
strictly inside (0, 1).

The kernels work in place on the (n, d) arrays and are bit-identical to the
out-of-place expressions and to the AS 241 reference evaluation order
(``np.polyval`` over each branch's coefficients, highest degree first).  A
sub-job recycles its weights to d and draws the frailties of all n vectors
once, then runs blocks of rows sized to stay in cache through copula, margins
and losses; the stream is read in the same order, so the losses are those of
the whole (n, d) sample, bit for bit.  A custom margin quantile ``qF`` is
therefore called block by block, and must be elementwise, as any quantile
function is.

The module also provides the small statistics used to summarize such studies:
type-7 empirical quantiles, the median absolute deviation, and the Huber
robust mean.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .registry import register_study
from .seeding import RngStream
from .varlist import VarList, VarSpec

__all__ = [
    "itau", "std_normal_quantile", "sample_copula", "portfolio_loss",
    "quantile_type7", "huber_mean", "mad", "do_one_var",
    "example_varlist", "example_config",
]


def itau(family: str, tau: float) -> float:
    """Copula parameter theta achieving Kendall's tau ``tau``.

    Clayton: theta = 2*tau/(1-tau), tau in (0, 1).
    Gumbel:  theta = 1/(1-tau), tau in [0, 1) (tau = 0 gives independence).
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must be in [0, 1), got {tau}")
    if family == "Clayton":
        if tau == 0.0:
            raise ValueError("Clayton requires tau > 0")
        return 2.0 * tau / (1.0 - tau)
    if family == "Gumbel":
        return 1.0 / (1.0 - tau)
    raise ValueError(f"unknown copula family {family!r}")


# Wichura's algorithm AS 241 (PPND16): rational approximations for the
# standard-normal quantile, relative error below 1e-9 over (0, 1).
_A = [2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
      4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
      1.3314166789178437745e2, 3.3871328727963666080e0]
_B = [5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
      2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
      4.2313330701600911252e1, 1.0]
_C = [7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
      4.63033784615654529590e0, 1.42343711074968357734e0]
_D = [1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
      2.05319162663775882187e0, 1.0]
_E = [2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
      5.46378491116411436990e0, 6.65790464350110377720e0]
_F = [2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0]


def _horner(coefs, x: np.ndarray) -> np.ndarray:
    """``np.polyval(coefs, x)`` for finite ``x``, with the same two roundings
    per step (``y = y * x + c``) but without its temporaries."""
    y = x * coefs[0]
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def std_normal_quantile(p):
    """Standard-normal quantile function (inverse CDF), vectorized.

    p = 0 and p = 1 map to -inf/+inf; values outside [0, 1] map to NaN.

    The central AS 241 branch is evaluated over the whole array; a second
    pass recomputes only the entries with |p - 0.5| > 0.425, which include
    0 and 1: there they are set to -inf/+inf.  Other entries outside (0, 1)
    come out NaN from the tail pass's logarithm, and NaN inputs from the
    central pass.  When all tail entries are on the near branch (p > ~1.4e-11
    from 0 and 1), it is evaluated in place, the entries not split by branch.
    """
    arr = np.asarray(p, dtype=float)
    pp = arr.reshape(-1)
    q = pp - 0.5
    with np.errstate(all="ignore"):
        r = q * q
        np.subtract(0.180625, r, out=r)
        out = _horner(_A, r)
        out *= q
        out /= _horner(_B, r)

        tail = np.flatnonzero(np.abs(q) > 0.425)
        if tail.size:
            qt, pt = q[tail], pp[tail]
            lower = qt < 0.0
            r = np.where(lower, pt, 1.0 - pt)
            np.log(r, out=r)
            np.negative(r, out=r)
            np.sqrt(r, out=r)
            if r.max() <= 5.0:    # all near the centre: no NaN, 0 or 1
                r -= 1.6
                val = _horner(_C, r)
                val /= _horner(_D, r)
            else:
                near = r <= 5.0
                val = np.empty_like(r)
                i = np.flatnonzero(near)
                if i.size:
                    rn = r[i] - 1.6
                    val[i] = _horner(_C, rn) / _horner(_D, rn)
                i = np.flatnonzero(~near)
                if i.size:
                    rf = r[i] - 5.0
                    val[i] = _horner(_E, rf) / _horner(_F, rf)
                val[r == np.inf] = np.inf      # p = 0 (or -0) and p = 1
            np.negative(val, out=val, where=lower)
            out[tail] = val
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _positive_stable(alpha: float, rng: RngStream, n: int) -> np.ndarray:
    """Positive stable draws with Laplace transform exp(-t**alpha), 0<alpha<1.

    Kanter/Chambers-Mallows-Stuck: with Theta ~ U(0, pi), W ~ Exp(1),
    V = (A(Theta)/W)**((1-alpha)/alpha) where
    A(t) = [sin(alpha t)^alpha * sin((1-alpha) t)^(1-alpha) / sin t]^(1/(1-alpha)).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"stable index must lie in (0, 1), got {alpha}")
    theta = np.pi * rng.uniforms(n)
    w = rng.exponentials(n)
    a = (np.sin(alpha * theta) ** alpha
         * np.sin((1.0 - alpha) * theta) ** (1.0 - alpha)
         / np.sin(theta)) ** (1.0 / (1.0 - alpha))
    return (a / w) ** ((1.0 - alpha) / alpha)


def _frailty(family: str, theta: float, n: int, rng: RngStream) -> np.ndarray:
    """The frailties V of ``n`` rows: V = 1, drawing nothing, under Gumbel
    independence (theta = 1), where psi(t) = exp(-t)."""
    if family == "Clayton":
        return rng.standard_gamma(1.0 / theta, n)
    return np.ones(n) if theta == 1.0 else _positive_stable(1.0 / theta, rng, n)


def sample_copula(family: str, theta: float, n: int, d: int, rng: RngStream,
                  v: np.ndarray | None = None) -> np.ndarray:
    """(n, d) sample of the Archimedean copula, uniforms strictly in (0, 1).

    ``v`` holds the rows' frailties when they were drawn beforehand, as
    ``do_one_var`` draws them once for all its row blocks; without it they
    are drawn here.  Either way they precede the rows' exponentials in the
    stream."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if family == "Clayton" and not theta > 0.0:
        raise ValueError("Clayton requires theta > 0")
    if family == "Gumbel" and not theta >= 1.0:
        raise ValueError("Gumbel requires theta >= 1")
    if family not in ("Clayton", "Gumbel"):
        raise ValueError(f"unknown copula family {family!r}")
    if v is None:
        v = _frailty(family, theta, n, rng)
    elif len(v) != n:
        raise ValueError(f"{len(v)} frailties for {n} rows")
    u = rng.exponentials((n, d))
    u /= v[:, None]
    if family == "Clayton":
        u += 1.0
        u **= -1.0 / theta
    else:
        u **= 1.0 / theta
        np.negative(u, out=u)
        np.exp(u, out=u)
    np.maximum(u, _U_MIN, out=u)
    return np.minimum(u, _U_MAX, out=u)


def _recycled(weights, d: int) -> np.ndarray:
    """``weights`` raveled and recycled cyclically to ``d`` entries, as ``np.resize``."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.size == 0:
        raise ValueError("portfolio weights are empty")
    return w if w.size == d else w[np.arange(d) % w.size]


def portfolio_loss(u: np.ndarray, weights, margin_quantile) -> np.ndarray:
    """Aggregate losses L_i = -sum_j w_j (exp(X_ij) - 1) with X = margin_quantile(U).

    ``weights`` is recycled cyclically to the number of margins; empty
    weights are a ``ValueError``.  The margins' array is overwritten; one
    that shares memory with ``u`` or is read-only is copied first.
    """
    n, d = u.shape
    w = _recycled(weights, d)
    x = np.asarray(margin_quantile(u), dtype=float)
    if not x.flags.writeable or np.may_share_memory(x, u):
        x = x.copy()
    np.expm1(x, out=x)
    x *= w
    return -x.sum(axis=1)


def quantile_type7(sample, probs):
    """Empirical quantile, interpolation type 7: h = (n-1) p + 1 on the order
    statistics.  Scalar in, scalar out; sequence in, array out."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    p = np.asarray(probs, dtype=float)
    scalar = p.ndim == 0
    p1 = np.atleast_1d(p)
    if np.any((p1 < 0.0) | (p1 > 1.0)):
        raise ValueError("probabilities must be in [0, 1]")
    h = (n - 1) * p1
    j = np.floor(h).astype(np.int64)
    g = h - j
    j1 = np.minimum(j + 1, n - 1)
    q = (1.0 - g) * x[j] + g * x[j1]
    return float(q[0]) if scalar else q


def _rows(sample, axis: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """``sample`` as C-contiguous rows along ``axis``, and the result shape."""
    x = np.moveaxis(np.asarray(sample, dtype=float), axis, -1)
    if x.shape[-1] == 0:
        raise ValueError("empty sample")
    return np.ascontiguousarray(x.reshape(-1, x.shape[-1])), x.shape[:-1]


def mad(sample, constant: float = 1.4826, axis: int = -1):
    """Median absolute deviation about the median, scaled by ``constant``.
    Reduces ``axis`` of any array; a 1-D sample gives a float."""
    x, shape = _rows(sample, axis)
    s = constant * np.median(np.abs(x - np.median(x, axis=1)[:, None]), axis=1)
    return float(s[0]) if shape == () else s.reshape(shape)


def huber_mean(sample, k: float = 1.5, tol: float = 1e-6, max_iter: int = 50,
               axis: int = -1):
    """Huber robust location: winsorized-mean iteration with fixed scale s = MAD.

    mu starts at the median; mu <- mean(clip(x, mu-k*s, mu+k*s)) until
    |delta mu| < tol*s.  A zero MAD returns the median.  Reduces ``axis`` of
    any array, each row until it converges; a 1-D sample gives a float."""
    x, shape = _rows(sample, axis)
    mu, s = np.median(x, axis=1), mad(x)
    live = np.flatnonzero(s != 0.0)      # rows still iterating
    for _ in range(max_iter):
        if not live.size:
            break
        m, ks = mu[live], k * s[live]
        mu[live] = np.clip(x[live], (m - ks)[:, None], (m + ks)[:, None]).mean(axis=1)
        live = live[~(np.abs(mu[live] - m) < tol * s[live])]
    return float(mu[0]) if shape == () else mu.reshape(shape)


_MARGINS = {"std-normal": std_normal_quantile}
_U_MIN, _U_MAX = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)  # sample_copula's clip


def _resolve_margin(spec):
    if spec is None:
        return std_normal_quantile
    if callable(spec):
        return spec
    if isinstance(spec, Mapping):
        if not spec:
            raise ValueError(f"margin quantile spec {dict(spec)!r} is empty")
        spec = next(iter(spec.values()))
    if callable(spec):
        return spec
    if isinstance(spec, str):
        try:
            return _MARGINS[spec]
        except KeyError:
            raise ValueError(f"unknown margin quantile {spec!r}") from None
    raise ValueError(f"cannot interpret margin quantile spec {spec!r}")


# elements per row block of do_one_var.  Its (rows, d) float64 temporaries,
# at most 128 KiB each, stay in a 2 MiB L2 cache together, and below glibc's
# default mmap threshold: larger ones are mapped, or the heap is trimmed and
# grown again, block after block, and each fresh page costs a page fault (the
# example study's sequential run took ~139k faults with 256 KiB blocks and
# ~156k whole, against ~20 with these).
_BLOCK_ELEMS = 2 ** 14


@register_study("var-copula")
def do_one_var(params: dict, rng: RngStream, warn) -> np.ndarray | float:
    """One sub-job of the Value-at-Risk study.

    Expects variables n, d, family, tau, alpha and optionally varWgts (weights,
    possibly keyed by the stringified dimension) and qF (margin quantile).
    One copula sample drives the quantile estimates for all alpha levels.
    The frailties of all ``n`` rows are drawn first; the rows then go through
    copula, margins and losses in blocks of about ``_BLOCK_ELEMS`` elements.
    """
    n, d = int(params["n"]), int(params["d"])
    family, tau = params["family"], float(params["tau"])
    alpha = params["alpha"]
    wspec = params.get("varWgts", 1.0)
    if isinstance(wspec, Mapping):
        wspec = wspec[str(d)]
    margin = _resolve_margin(params.get("qF"))

    theta = itau(family, tau)
    v = _frailty(family, theta, n, rng)
    rows = max(1, _BLOCK_ELEMS // d)
    w = _recycled(wspec, d)
    losses = np.empty(n)
    for i in range(0, n, rows):
        m = min(rows, n - i)
        u = sample_copula(family, theta, m, d, rng, v[i:i + m])
        losses[i:i + m] = portfolio_loss(u, w, margin)
    return quantile_type7(losses, alpha)


@register_study("probe-first-uniform")
def probe_first_uniform(params: dict, rng: RngStream, warn) -> float:
    """Diagnostic study: returns the first uniform draw of the sub-job's stream."""
    return rng.uniform()


def example_varlist() -> VarList:
    """The packaged example study: 32 replications over a 32-row grid."""
    return VarList([
        VarSpec("n.sim", "N", 32, label="$N_{sim}$"),
        VarSpec("n", "grid", (64, 256)),
        VarSpec("d", "grid", (5, 20, 100, 500)),
        VarSpec("varWgts", "frozen", {"5": 1, "20": 1, "100": 1, "500": 1},
                label="$\\mathbf{w}$"),
        VarSpec("qF", "frozen", {"qF": "std-normal"}, label="$F ^ {- 1}$"),
        VarSpec("family", "grid", ("Clayton", "Gumbel"), label="$C$"),
        VarSpec("tau", "grid", (0.25, 0.5), label="$\\tau$"),
        VarSpec("alpha", "inner", (0.95, 0.99, 0.999), label="$\\alpha$"),
    ])


def example_config() -> dict:
    """Run-configuration document for the packaged example study."""
    doc = example_varlist().canonical()
    return {"study": "var-copula", "variables": doc["variables"]}
