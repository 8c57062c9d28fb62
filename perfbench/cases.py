"""Seeded case lists for the benchmark workloads.

A case is the argv of one ``fraceq`` command.  The same (workload, seed)
always gives the same list, and every case is admissible: each generator
draws only inputs that satisfy the documented preconditions of its
command, so a correct program exits 0 with every row passing.  Each list
opens with the workload's fixed cases, which no seed changes; their
smallest accuracy margin is a bounded metric, so it must not depend on
the seed.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("suite", "eqdist-oracle", "closed-form-mix")
DEFAULT_SEED = 0

# closed-form-mix draws this many cases of each command flavor
MIX_PER_KIND = 20


def _j(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _r(x: float, digits: int = 3) -> float:
    return round(x, digits)


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


# ---------------------------------------------------------------------------
# distributions

def _exponential(lam: float) -> dict:
    return {"kind": "exponential", "params": {"lambda": lam}}


def _closed_form_dist(rng: random.Random, kind: str) -> dict:
    """A catalog member whose partial moments have closed forms."""
    if kind == "exponential":
        return _exponential(_r(rng.uniform(0.5, 3.0)))
    if kind == "uniform":
        a = _r(rng.uniform(0.0, 0.5))
        return {"kind": "uniform", "params": {"a": a, "b": _r(a + rng.uniform(0.5, 2.0))}}
    if kind == "hyperexp2":
        return {"kind": "hyperexp2",
                "params": {"p": _r(rng.uniform(0.2, 0.8)),
                           "lambda1": _r(rng.uniform(0.5, 1.5)),
                           "lambda2": _r(rng.uniform(2.0, 4.0))}}
    if kind == "zero_inflated":
        return {"kind": "zero_inflated", "params": {"p": _r(rng.uniform(0.1, 0.5))},
                "inner": _exponential(_r(rng.uniform(0.5, 2.0)))}
    if kind == "deductible":
        return {"kind": "deductible", "params": {"d": _r(rng.uniform(0.2, 1.5))},
                "inner": _exponential(_r(rng.uniform(0.5, 2.0)))}
    raise ValueError(kind)


CLOSED_KINDS = ("exponential", "uniform", "hyperexp2", "zero_inflated", "deductible")


def _knot_table(rng: random.Random | None) -> dict:
    """A tabulated Exp(1)-like survival function on fixed abscissae.

    With ``rng`` the survival values are jittered by up to 3%; the kinks
    at the knots stay where they are, so the cost of the nested
    quadrature stays comparable from seed to seed.
    """
    knots = [[0.0, 1.0]]
    for t in (0.5, 1.0, 2.0, 4.0):
        jitter = rng.uniform(0.97, 1.03) if rng else 1.0
        knots.append([t, _r(math.exp(-t) * jitter, 4)])
    return {"kind": "numeric", "params": {"knots": knots}}


# ---------------------------------------------------------------------------
# test functions

def _power_sum(terms) -> str:
    return _j([{"coef": c, "exp": e} for c, e in terms])


def _terms(rng: random.Random, exponents: list) -> list:
    """One or two terms with distinct exponents drawn from ``exponents``."""
    chosen = rng.sample(exponents, min(len(exponents), rng.choice((1, 2))))
    return [(_r(rng.uniform(0.5, 3.0), 2), e) for e in sorted(chosen)]


def _rl_exponents(alpha: float, n: int) -> list:
    # every sequential derivative up to order (n+1)*alpha must stay above
    # exponent -1, and no exponent may sit on alpha - 1 exactly (that term
    # would need E[X^(alpha-1)], which diverges at an atom at 0)
    lo = (n + 1) * alpha - 1.0 + 0.15
    return [e for e in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0) if e > max(lo, 0.0)]


def _caputo_exponents(alpha: float, n: int) -> list:
    # Caputo needs nonnegative exponents through the n-th derivative
    out = []
    for e in (1.0, 2.0, 3.0, alpha, 2.0 * alpha, 3.0 * alpha):
        e = _r(e, 6)
        if all(e - i * alpha > -1e-9 for i in range(n + 1)) \
                and e - (n + 1) * alpha > -0.85 and e not in out:
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# workloads

def _weibull(k: float, lam: float) -> str:
    return _j({"kind": "weibull", "params": {"k": k, "lambda": lam}})


# Fixed cases.  In eqdist-oracle: Weibull(2,1) at alpha = 0.5, n = 3
# (three nested semi-infinite quadratures, the deepest the oracle allows),
# the slow case the roadmap names, and the unjittered knot table at n = 2,
# where numeric eqdist residuals come closest to tolerance.  In
# closed-form-mix: sentinels for the weak spots of the closed forms --
# taylor on a uniform law with a small a > 0, whose remainder quadrature
# loses accuracy -- and one mvt and one actuarial case.
_UNIFORM = _j({"kind": "uniform", "params": {"a": 0.017, "b": 0.81}})
FIXED = {
    "suite": [["suite"]],
    "eqdist-oracle": [
        ["eqdist", "--dist", _weibull(2.0, 1.0), "--alpha", "0.5", "--n", "3",
         "--grid", "8"],
        ["eqdist", "--dist", _j(_knot_table(None)), "--alpha", "0.5", "--n", "1,2",
         "--grid", "8"],
    ],
    "closed-form-mix": [
        ["taylor", "--dist", _UNIFORM, "--g", _power_sum([(1.21, 1.0), (2.67, 2.0)]),
         "--alpha", "0.5", "--n", "1"],
        ["taylor", "--dist", _UNIFORM, "--g", _power_sum([(1.0, 1.0), (1.0, 2.0)]),
         "--alpha", "0.5", "--n", "1", "--caputo"],
        ["mvt", "--dist-x", _j(_exponential(2.0)), "--dist-y", _j(_exponential(0.5)),
         "--g", _power_sum([(1.0, 1.5)]), "--alpha", "1.5"],
        ["actuarial", "--severity", _j(_exponential(1.0)), "--u", "0.5", "--v", "1.5",
         "--g", _power_sum([(1.0, 1.0)]), "--g", _power_sum([(1.0, 2.0)]),
         "--r", "0.3", "--s", "0.9", "--alpha", "0.8"],
    ],
}


def _suite(rng: random.Random) -> list:
    return []


def _eqdist_oracle(rng: random.Random) -> list:
    """eqdist campaigns on distributions without closed partial moments.

    The seed draws two Weibulls at n = 1, 2 and one tabulated survival
    table.
    """
    cases = []
    for _ in range(2):
        cases.append(["eqdist", "--dist",
                      _weibull(_r(rng.uniform(1.5, 3.0)), _r(rng.uniform(0.8, 1.25))),
                      "--alpha", "0.5,1", "--n", "1,2", "--grid", "8"])
    cases.append(["eqdist", "--dist", _j(_knot_table(rng)),
                  "--alpha", "0.5,1", "--n", "1", "--grid", "16"])
    return cases


def _taylor(rng: random.Random, caputo: bool) -> list:
    kind = rng.choice(CLOSED_KINDS)
    dist = _closed_form_dist(rng, kind)
    while True:
        alpha = rng.choice((0.25, 0.5, 0.75, 1.0))
        n = rng.choice((0, 1, 2))
        exps = (_caputo_exponents if caputo else _rl_exponents)(alpha, n)
        if exps:
            break
    argv = ["taylor", "--dist", _j(dist), "--g", _power_sum(_terms(rng, exps)),
            "--alpha", repr(alpha), "--n", str(n)]
    return argv + ["--caputo"] if caputo else argv


def _mvt(rng: random.Random) -> list:
    if rng.random() < 0.5:
        # Exp(mean m1) <= Exp(mean m2): the order holds for alpha >= 1
        m1 = _r(rng.uniform(0.5, 1.5))
        m2 = m1 * rng.uniform(1.5, 3.0)
        x, y = _exponential(_r(1.0 / m1, 4)), _exponential(_r(1.0 / m2, 4))
        alpha = _r(rng.uniform(1.0, 2.0), 2)
    else:
        # zero inflation only shrinks X: ordered for alpha in (0, 1]
        lam = _r(rng.uniform(0.5, 2.0))
        x = {"kind": "zero_inflated", "params": {"p": _r(rng.uniform(0.1, 0.5))},
             "inner": _exponential(lam)}
        y = _exponential(lam)
        alpha = _r(rng.uniform(0.5, 1.0), 2)
    # the identity needs every exponent of g above alpha - 1
    exps = [e for e in (0.5, 1.0, 1.5, 2.0, 3.0) if e > alpha - 1.0 + 0.15]
    return ["mvt", "--dist-x", _j(x), "--dist-y", _j(y),
            "--g", _power_sum(_terms(rng, exps)), "--alpha", repr(alpha)]


def _order(rng: random.Random) -> list:
    kx, ky = rng.sample(CLOSED_KINDS, 2)
    return ["order", "--dist-x", _j(_closed_form_dist(rng, kx)),
            "--dist-y", _j(_closed_form_dist(rng, ky)),
            "--alpha", _csv(sorted(rng.sample([0.5, 1.0, 1.5, 2.0], 2)))]


def _actuarial(rng: random.Random) -> list:
    # unbounded severities, so every deductible 0 < r < s is below the
    # support; g exponents above alpha - 1 as for mvt
    alpha = rng.choice((0.5, 0.8, 1.0))
    exps = [e for e in (0.5, 1.0, 2.0) if e > alpha - 1.0 + 0.15]
    r = _r(rng.uniform(0.1, 0.6))
    s = _r(r + rng.uniform(0.2, 1.0))
    if rng.random() < 0.5:
        lam = _r(rng.uniform(0.5, 2.0))
        u = _r(rng.uniform(0.2, 1.0))
        argv = ["actuarial", "--severity", _j(_exponential(lam)),
                "--u", repr(u), "--v", repr(_r(u + rng.uniform(0.5, 1.5)))]
    else:
        argv = ["actuarial", "--severity", _j(_closed_form_dist(rng, "hyperexp2"))]
    for e in sorted(rng.sample(exps, 2)):
        argv += ["--g", _power_sum([(1.0, e)])]
    return argv + ["--r", repr(r), "--s", repr(s), "--alpha", repr(alpha)]


def _characterize(rng: random.Random) -> list:
    dist = _closed_form_dist(rng, rng.choice(CLOSED_KINDS))
    alphas = sorted(rng.sample([0.3, 0.5, 0.7, 1.0, 1.5], 2))
    return ["characterize", "--dist", _j(dist), "--alpha", _csv(alphas), "--n", "1,2"]


def _closed_form_mix(rng: random.Random) -> list:
    makers = (lambda: _taylor(rng, False), lambda: _taylor(rng, True),
              lambda: _mvt(rng), lambda: _order(rng),
              lambda: _actuarial(rng), lambda: _characterize(rng))
    cases = [make() for make in makers for _ in range(MIX_PER_KIND)]
    rng.shuffle(cases)
    return cases


_GENERATORS = {
    "suite": _suite,
    "eqdist-oracle": _eqdist_oracle,
    "closed-form-mix": _closed_form_mix,
}


def build_cases(workload: str, seed: int) -> list:
    """The case list (argv lists) of ``workload`` for ``seed``: the
    ``FIXED[workload]`` cases first, then the seeded ones."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    seeded = _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    return [list(argv) for argv in FIXED[workload]] + seeded
