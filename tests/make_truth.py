"""Write tests/data/truth.json: 40-digit mpmath references for test_truth.py.

Run from the repository root with mpmath installed:

    python3 tests/make_truth.py

The tests read the committed JSON and never import mpmath.  Each law is
integrated from its density, split at its kinks, with tanh-sinh
quadrature, so no reference shares the closed forms under test.  The
exceptions are a Weibull moment E[X^s] = lam^s Gamma(1 + s/k), the
reference at t = 0 where the density may be infinite, and the Weyl
integral of a knot table, whose pieces integrate in closed form.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp

mp.mp.dps = 40

OUT = Path(__file__).resolve().parent / "data" / "truth.json"

EXP_KNOTS = [[t, math.exp(-t)] for t in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)]
KINKS = [[0.5, 0.9], [1.5, 0.3], [2.5, 0.05]]


def numeric(knots):
    return {"kind": "numeric", "params": {"knots": knots}}


# (name, distribution JSON, thresholds t); every case runs at NEGATIVE_ORDERS
NEGATIVE_CASES = [
    ("kinks", numeric(KINKS), [0.25, 1.5, 3.0]),
    ("exp_knots", numeric(EXP_KNOTS), [0.0, 0.25, 0.6, 5.0]),
    ("bounded", numeric([[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]]), [0.0, 0.5, 1.0, 2.5]),
    ("atom_at_zero", numeric([[0.0, 0.8], [1.0, 0.4], [2.0, 0.1]]), [0.0, 0.5]),
    ("flat_last_knots", numeric([[0.0, 1.0], [1.0, 0.5], [2.0, 0.5]]), [0.5, 2.0, 3.0]),
    ("deductible", {"kind": "deductible", "params": {"d": 1.0}, "inner": numeric(KINKS)},
     [0.0, 0.25, 2.0]),
    ("zero_inflated", {"kind": "zero_inflated", "params": {"p": 0.3},
                       "inner": numeric(EXP_KNOTS)}, [0.0, 1.0, 4.5]),
]
NEGATIVE_ORDERS = [-0.9, -0.5, -0.1]


def weibull(k, lam=1):
    return {"kind": "weibull", "params": {"k": k, "lambda": lam}}


# upper_partial_moment of laws with neither partial form, which integrate
# their density at s < 0 and their survival function at s > 0:
# (name, distribution JSON, t, s), each law at t in {0, 0.3, 2} and
# SMOOTH_ORDERS, then one heavy-tail point
SMOOTH_ORDERS = NEGATIVE_ORDERS + [0.5, 1.5]
SMOOTH_POINTS = [(name, spec, t, s) for name, spec in [
    ("weibull07", weibull(0.7)),
    ("weibull2", weibull(2)),
    ("deductible", {"kind": "deductible", "params": {"d": 1}, "inner": weibull(0.7)}),
    ("zero_inflated", {"kind": "zero_inflated", "params": {"p": 0.3}, "inner": weibull(0.7)}),
] for s in SMOOTH_ORDERS for t in [0.0, 0.3, 2.0]] + [
    ("weibull005", weibull(0.05), 1.2e17, -0.5)]
# upper_partial_moment of a law with a closed partial form, on the same grid
CLOSED_POINTS = [("hyperexp2", {"kind": "hyperexp2",
                                "params": {"p": 0.4, "lambda1": 1, "lambda2": 3}}, t, s)
                 for s in SMOOTH_ORDERS for t in [0.0, 0.3, 2.0]]

GAMMA_POINTS = [  # (a, x): both branches, x = 0, either side of x = a + 1
    (0.5, 0.0), (2.5, 0.0), (0.1, 1e-3), (0.1, 1.0), (0.1, 1.2), (0.5, 1.49),
    (0.5, 1.51), (0.9, 0.5), (0.9, 10.0), (2.5, 1.0), (2.5, 3.49), (2.5, 3.51),
    (2.5, 50.0), (0.5, 1e4),
    # small a just below x = a + 1, where the series branch cancels
    (0.01, 0.997), (0.1, 1.07), (0.001, 0.9),
    # a = 1/2: the erfc form below x = 10, the continued fraction from 10
    (0.5, 0.3), (0.5, 4.0), (0.5, 9.99), (0.5, 10.0), (0.5, 30.0),
    # tiny a below x = 0.5, where the series still cancels
    (0.001, 0.3), (0.001, 0.4),
]
# (a, x) so far out that x^a alone overflows a float and mpmath's gammainc
# underflows: the reference is x^(a-1) (1 + (a-1)/x), whose next term is
# below 1e-290 relative
FAR_GAMMA_POINTS = [(1.5, 1e300), (2.0, 1e250), (1.2, 1e300), (3.0, 1e150)]

# Gamma and 1/Gamma from 1e-12 to 0.5 either side of Gamma's poles 0, -1, ..., -5
POLE_XS = sorted({-n + d for n in range(6)
                  for d in (1e-12, 1e-6, 1e-3, 0.1, 0.5, -1e-12, -1e-6, -1e-3, -0.1, -0.5)})
# beta on both arguments up to 5, where the package calls it
BETA_ARGS = [0.05, 0.3, 0.5, 1.0, 1.7, 2.5, 3.3, 5.0]

# eq_survival on a deductible table, s = n * alpha > 0 (quadrature path)
EQ_SURVIVAL_DIST = {"kind": "deductible", "params": {"d": 1.0}, "inner": numeric(KINKS)}
EQ_SURVIVAL_ALPHA, EQ_SURVIVAL_N = 0.7, 2
EQ_SURVIVAL_TS = [0.14, 0.36, 0.96, 1.32]

# eq_survival_recursive, the tabulated oracle: (name, distribution, alpha,
# n, ts), each t below the support's end; the first table is the
# benchmark's unjittered 5-knot Exp(1) table, and Weibull(2,1) at n = 3 is
# the benchmark's fixed Weibull case, kept to t <= 2.6 where its
# survival is still above 1e-5
RECURSIVE_TS = [0.0, 0.1, 0.45, 0.9, 1.3, 1.9, 2.6, 3.9]
RECURSIVE_CASES = [
    ("exp_5_knots", numeric([[0.0, 1.0], [0.5, 0.6065], [1.0, 0.3679], [2.0, 0.1353],
                             [4.0, 0.0183]]), 0.5, 2, RECURSIVE_TS),
    ("kinks", numeric(KINKS), 0.5, 3, RECURSIVE_TS),
    ("bounded", numeric([[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]]), 0.5, 3, RECURSIVE_TS),
    ("weibull2", weibull(2), 0.5, 3, RECURSIVE_TS[:-1]),
    ("weibull05_a0.5", weibull(0.5), 0.5, 2, RECURSIVE_TS),
    ("weibull05_a1", weibull(0.5), 1.0, 2, RECURSIVE_TS),
    ("weibull03", weibull(0.3), 0.5, 2, RECURSIVE_TS),
]

# weyl_table's level 1, I^alpha Fbar, on the benchmark's unjittered 5-knot
# Exp(1) table: left of each kink, where the table's panel runs in
# w = (kink - u)^alpha, at 0, inside the first panel, between the last two
# knots and on the exponential tail
WEYL_KNOTS = [[0.0, 1.0], [0.5, 0.6065], [1.0, 0.3679], [2.0, 0.1353], [4.0, 0.0183]]
WEYL_ORDERS = [0.5, 1.0 / 3.0, 1.0]
WEYL_US = sorted({k - d for k, _ in WEYL_KNOTS[1:] for d in (1e-9, 1e-6, 1e-3, 0.1)}
                 | {0.0, 0.25, 3.0, 6.0})
# fracops.weyl_integral, the same transform by one quadrature per point, at
# the same points and at orders whose singular weight is substituted away
# (1/2), integrated directly (1) or taken by the moment-based head (0.3, 0.7)
WEYL_INTEGRAL_ORDERS = [0.3, 0.5, 0.7, 1.0]

# integrate_singular_power's moment-based head: int_t^inf (x-t)^(p-1) f(x) dx
# for three f the tests build from the catalog, and the Chebyshev moments
# int_{-1}^{1} (1+y)^(p-1) T_k(y) dy behind its rule
SINGULAR_POWER_FS = {
    "exp": lambda x: mp.exp(-x),
    "weibull21_survival": lambda x: mp.exp(-x * x),
    "hyperexp2_density": lambda x: (mp.mpf("0.4") * mp.exp(-x)
                                    + mp.mpf("0.6") * 3 * mp.exp(-3 * x)),
}
SINGULAR_POWER_PS = [1.3, 1.5, 1.7, 2.5]
SINGULAR_POWER_TS = [0.0, 0.3]
MOMENT_KS = [0, 1, 5, 24]


def _law(spec):
    """(density of the continuous part, sorted kinks, support end) in mpmath."""
    kind, params = spec["kind"], spec.get("params", {})
    if kind == "numeric":
        ts = [mp.mpf(t) for t, _ in params["knots"]]
        ss = [mp.mpf(s) for _, s in params["knots"]]
        if ts[0] > 0:
            ts, ss = [mp.mpf(0)] + ts, [mp.mpf(1)] + ss
        if ss[-1] == 0:
            end = ts[ss.index(0)]
            decay = None
        else:
            end = mp.inf
            decay = mp.log(ss[-2] / ss[-1]) / (ts[-1] - ts[-2]) if ss[-2] > ss[-1] else mp.mpf(1)

        def density(x):
            # right-continuous: u^(1/p) can vanish below 40 digits, so the
            # head's integrand is evaluated at t itself, which may be a knot
            if x >= ts[-1]:
                return 0 if decay is None else ss[-1] * decay * mp.exp(-decay * (x - ts[-1]))
            for lo, hi, s_lo, s_hi in zip(ts, ts[1:], ss, ss[1:]):
                if lo <= x < hi:
                    return (s_lo - s_hi) / (hi - lo)
            return 0
        return density, ts[1:], end
    if kind == "weibull":
        k, lam = mp.mpf(params["k"]), mp.mpf(params["lambda"])
        return (lambda x: k / lam * (x / lam) ** (k - 1) * mp.exp(-(x / lam) ** k)), [], mp.inf
    if kind == "hyperexp2":
        p, lam1, lam2 = (mp.mpf(params[k]) for k in ("p", "lambda1", "lambda2"))
        return (lambda x: p * lam1 * mp.exp(-lam1 * x)
                + (1 - p) * lam2 * mp.exp(-lam2 * x)), [], mp.inf
    inner, kinks, end = _law(spec["inner"])
    if kind == "deductible":
        d = mp.mpf(params["d"])
        return (lambda x: inner(x + d)), [k - d for k in kinks if k > d], end - d
    if kind == "zero_inflated":
        q = 1 - mp.mpf(params["p"])
        return (lambda x: q * inner(x)), kinks, end
    raise ValueError(kind)


def partial_moment(spec, t, s):
    """E[(X-t)_+^s] of the continuous part; no case has an atom above t."""
    density, kinks, end = _law(spec)
    t = mp.mpf(t)
    if t >= end:
        return mp.mpf(0)
    nodes = [k for k in kinks if t < k < end] + [end]
    # u = (x - t)^(s+1) on the first piece: tanh-sinh alone misses the
    # x^-0.9 endpoint singularity by 4e-5 relative at 40 digits
    p = mp.mpf(s) + 1
    head = mp.quad(lambda u: density(t + u ** (1 / p)) / p, [0, (nodes[0] - t) ** p])
    return head + mp.quad(lambda x: (x - t) ** s * density(x), nodes)


def smooth_partial_moment(spec, t, s):
    """E[(X-t)_+^s] of a law with a smooth density, None if it diverges.

    At t = 0 a Weibull moment is lam^s Gamma(1 + s/k), finite only for
    s > -k.  Otherwise the whole integral runs in u = (x - t)^(s+1), cut
    at x - t = (1 + t) 10^j, since the density's scale grows with t on a
    heavy tail.
    """
    kind, params = spec["kind"], spec["params"]
    if t == 0 and kind in ("weibull", "zero_inflated"):
        q = 1 - mp.mpf(params["p"]) if kind == "zero_inflated" else 1
        law = spec.get("inner", spec)["params"]
        k, lam = mp.mpf(law["k"]), mp.mpf(law["lambda"])
        return None if s <= -k else q * lam ** s * mp.gamma(1 + s / k)
    density = _law(spec)[0]
    t, p = mp.mpf(t), mp.mpf(s) + 1
    cuts = [0] + [((1 + t) * mp.mpf(10) ** j) ** p for j in range(-3, 4)] + [mp.inf]
    return mp.quad(lambda u: density(t + u ** (1 / p)) / p, cuts)


def eq_survival(spec, alpha, n, t):
    """P(X_alpha^(n) > t) = E[(X-t)_+^(n alpha)] / E[X^(n alpha)]."""
    moment = smooth_partial_moment if spec["kind"] == "weibull" else partial_moment
    return moment(spec, t, n * alpha) / moment(spec, 0.0, n * alpha)


def weyl_of_knots(knots, alpha, u):
    """I^alpha Fbar(u) in closed form for a numeric law with an exponential tail.

    On a linear piece Fbar = A + B (x - u), which integrates against
    (x - u)^(alpha-1) to powers of x - u; past the last knot t_m,
    Fbar = s_m e^(-c (x - t_m)) gives s_m c^-alpha e^(c d) Gamma(alpha, c d)
    with d = t_m - u, or s_m c^-alpha e^(-c (u - t_m)) Gamma(alpha) beyond it.
    """
    ts = [mp.mpf(t) for t, _ in knots]
    ss = [mp.mpf(s) for _, s in knots]
    a, u = mp.mpf(alpha), mp.mpf(u)
    total = mp.mpf(0)
    for lo, hi, s_lo, s_hi in zip(ts, ts[1:], ss, ss[1:]):
        if hi > u:
            slope = (s_hi - s_lo) / (hi - lo)
            y0, y1 = max(lo, u) - u, hi - u
            total += ((s_lo + slope * (u - lo)) * (y1 ** a - y0 ** a) / a
                      + slope * (y1 ** (a + 1) - y0 ** (a + 1)) / (a + 1))
    c, d = mp.log(ss[-2] / ss[-1]) / (ts[-1] - ts[-2]), ts[-1] - u
    tail = mp.exp(c * d) * mp.gammainc(a, c * d) if d > 0 else mp.exp(c * d) * mp.gamma(a)
    return (total + ss[-1] * c ** -a * tail) / mp.gamma(a)


def singular_power(f, t, p):
    """int_t^inf (x-t)^(p-1) f(x) dx; u = (x - t)^p on [t, t + 1]."""
    t, p = mp.mpf(t), mp.mpf(p)
    head = mp.quad(lambda u: f(t + u ** (1 / p)) / p, [0, 1])
    return head + mp.quad(lambda x: (x - t) ** (p - 1) * f(x), [t + 1, t + 4, mp.inf])


def chebyshev_moment(p, k):
    """int_{-1}^{1} (1+y)^(p-1) T_k(y) dy with y = cos(theta)."""
    p = mp.mpf(p)
    return mp.quad(lambda th: (1 + mp.cos(th)) ** (p - 1) * mp.cos(k * th) * mp.sin(th),
                   mp.linspace(0, mp.pi, k + 2))


def _float_or_none(x):
    return None if x is None else float(x)


def main():
    truth = {
        "negative_partial": [
            {"case": name, "dist": spec, "t": t, "s": s,
             "truth": float(partial_moment(spec, t, s))}
            for name, spec, ts in NEGATIVE_CASES for s in NEGATIVE_ORDERS for t in ts],
        "upper_partial_moment": [
            {"case": name, "dist": spec, "t": t, "s": s,
             "truth": _float_or_none(smooth_partial_moment(spec, t, s))}
            for name, spec, t, s in SMOOTH_POINTS],
        "closed_partial_moment": [
            {"case": name, "dist": spec, "t": t, "s": s,
             "truth": float(smooth_partial_moment(spec, t, s))}
            for name, spec, t, s in CLOSED_POINTS],
        "scaled_upper_gamma": [
            {"a": a, "x": x, "truth": float(mp.exp(x) * mp.gammainc(a, x))}
            for a, x in GAMMA_POINTS] + [
            {"a": a, "x": x, "truth": float(mp.mpf(x) ** (a - 1) * (1 + (a - 1) / mp.mpf(x)))}
            for a, x in FAR_GAMMA_POINTS],
        "gamma": [{"x": x, "truth": float(mp.gamma(x))} for x in POLE_XS],
        "reciprocal_gamma": [{"x": x, "truth": float(mp.rgamma(x))} for x in POLE_XS],
        "beta": [
            {"a": a, "b": b, "truth": float(mp.beta(a, b))}
            for i, a in enumerate(BETA_ARGS) for b in BETA_ARGS[i:]],
        "eq_survival": [
            {"dist": EQ_SURVIVAL_DIST, "alpha": EQ_SURVIVAL_ALPHA, "n": EQ_SURVIVAL_N, "t": t,
             "truth": float(eq_survival(EQ_SURVIVAL_DIST, EQ_SURVIVAL_ALPHA, EQ_SURVIVAL_N, t))}
            for t in EQ_SURVIVAL_TS],
        "eq_survival_recursive": [
            {"case": name, "dist": spec, "alpha": alpha, "n": n, "t": t,
             "truth": float(eq_survival(spec, alpha, n, t))}
            for name, spec, alpha, n, ts in RECURSIVE_CASES for t in ts
            if t < _law(spec)[2]],
        "weyl_table": [
            {"dist": numeric(WEYL_KNOTS), "alpha": alpha, "u": u,
             "truth": float(weyl_of_knots(WEYL_KNOTS, alpha, u))}
            for alpha in WEYL_ORDERS for u in WEYL_US],
        "weyl_integral": [
            {"dist": numeric(WEYL_KNOTS), "order": order, "t": t,
             "truth": float(weyl_of_knots(WEYL_KNOTS, order, t))}
            for order in WEYL_INTEGRAL_ORDERS for t in WEYL_US],
        "singular_power": [
            {"f": name, "p": p, "t": t, "truth": float(singular_power(f, t, p))}
            for name, f in SINGULAR_POWER_FS.items()
            for p in SINGULAR_POWER_PS for t in SINGULAR_POWER_TS],
        "chebyshev_moments": [
            {"p": p, "k": k, "truth": float(chebyshev_moment(p, k))}
            for p in SINGULAR_POWER_PS for k in MOMENT_KS],
    }
    # one entry per line keeps the file short and its diffs readable
    sections = [f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]"
                for key, entries in truth.items()]
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text("{\n" + ",\n".join(sections) + "\n}\n")


if __name__ == "__main__":
    main()
