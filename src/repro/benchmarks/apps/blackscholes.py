"""Blackscholes: European option pricing (PARSEC origin).

Prices a portfolio of European options analytically by solving the
Black-Scholes PDE closed form.  The code follows the PARSEC kernel
``BlkSchlsEqEuroNoDiv``: a long chain of *scalar* intermediate values
per option (vectorised here across the portfolio, one declared array
per C scalar) plus the CNDF polynomial approximation.

Because almost every intermediate is a scalar-style declaration that
only ever receives expression assignments, the type-dependence
analysis cannot merge them: Blackscholes has the weakest clustering in
the suite (paper Table II: TV=59, TC=50) — "with Blackscholes ...
clustering does not significantly reduce the search space".

Verification: MAE over the option prices.  Transcendentals (log, exp,
CNDF's exp) dominate the modeled runtime and cost the same in single
precision, so the all-single speedup is marginal (paper Table IV:
1.04x).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import ApplicationBenchmark, register_benchmark


def cndf(ws, inputx):
    """Cumulative normal distribution (Abramowitz–Stegun polynomial)."""
    inv_sqrt_2pi = ws.scalar("inv_sqrt_2pi", 0.39894228040143270286)
    a1 = ws.scalar("a1", 0.319381530)
    a2 = ws.scalar("a2", -0.356563782)
    a3 = ws.scalar("a3", 1.781477937)
    a4 = ws.scalar("a4", -1.821255978)
    a5 = ws.scalar("a5", 1.330274429)
    kcoef = ws.scalar("kcoef", 0.2316419)

    sign = ws.array("sign", init=np.sign(inputx))
    xinput = ws.array("xinput", init=abs(inputx))
    expvalues = ws.array("expvalues", init=np.exp(-0.5 * xinput * xinput))
    xnprimeofx = ws.array("xnprimeofx", init=expvalues * inv_sqrt_2pi)
    xk2 = ws.array("xk2", init=1.0 / (1.0 + kcoef * xinput))
    xk2_2 = ws.array("xk2_2", init=xk2 * xk2)
    xk2_3 = ws.array("xk2_3", init=xk2_2 * xk2)
    xk2_4 = ws.array("xk2_4", init=xk2_3 * xk2)
    xk2_5 = ws.array("xk2_5", init=xk2_4 * xk2)
    xlocal_1 = ws.array("xlocal_1", init=xk2 * a1)
    xlocal_2 = ws.array("xlocal_2", init=xk2_2 * a2 + xk2_3 * a3)
    xlocal_3 = ws.array("xlocal_3", init=xk2_4 * a4 + xk2_5 * a5)
    xlocal = ws.array("xlocal", init=1.0 - (xlocal_1 + xlocal_2 + xlocal_3) * xnprimeofx)
    result = ws.array("result", init=0.5 + sign * (xlocal - 0.5))
    return result


def black_scholes(ws, sptprice, strike, rate, volatility, otime, otype):
    """Closed-form Black-Scholes price for every option in the batch."""
    xstockprice = ws.array("xstockprice", init=sptprice)
    xstrikeprice = ws.array("xstrikeprice", init=strike)
    xriskfreerate = ws.array("xriskfreerate", init=rate)
    xvolatility = ws.array("xvolatility", init=volatility)
    xtime = ws.array("xtime", init=otime)
    xsqrttime = ws.array("xsqrttime", init=np.sqrt(xtime))
    xlogterm = ws.array("xlogterm", init=np.log(xstockprice / xstrikeprice))
    xpowerterm = ws.array("xpowerterm", init=0.5 * xvolatility * xvolatility)
    xd1_num = ws.array("xd1_num", init=(xriskfreerate + xpowerterm) * xtime + xlogterm)
    xden = ws.array("xden", init=xvolatility * xsqrttime)
    xd1 = ws.array("xd1", init=xd1_num / xden)
    xd2 = ws.array("xd2", init=xd1 - xden)
    nofxd1 = cndf(ws, xd1)
    nofxd2 = cndf(ws, xd2)
    futurevalue = ws.array(
        "futurevalue",
        init=xstrikeprice * np.exp(-(xriskfreerate * xtime)),
    )
    call1 = ws.array("call1", init=xstockprice * nofxd1)
    call2 = ws.array("call2", init=futurevalue * nofxd2)
    negnofxd1 = ws.array("negnofxd1", init=1.0 - nofxd1)
    negnofxd2 = ws.array("negnofxd2", init=1.0 - nofxd2)
    put1 = ws.array("put1", init=futurevalue * negnofxd2)
    put2 = ws.array("put2", init=xstockprice * negnofxd1)
    price = ws.array("price", init=otype * (put1 - put2) + (1.0 - otype) * (call1 - call2))
    return price


def run(ws, sptprice, strike, rate, volatility, otime, otype):
    """Price the whole portfolio and return the prices."""
    sptprice = ws.array("sptprice", init=sptprice)
    strike = ws.array("strike", init=strike)
    rate = ws.array("rate", init=rate)
    volatility = ws.array("volatility", init=volatility)
    otime = ws.array("otime", init=otime)
    otype = ws.array("otype", init=otype)
    prices = black_scholes(ws, sptprice, strike, rate, volatility, otime, otype)
    return prices


@register_benchmark
class Blackscholes(ApplicationBenchmark):
    """blackscholes: analytic European option pricing (PARSEC)."""

    name = "blackscholes"
    description = "European option pricing via the Black-Scholes PDE"
    module_name = "repro.benchmarks.apps.blackscholes"
    entry = "run"
    metric = "MAE"
    nominal_seconds = 30.0
    compile_seconds = 20.0

    def setup(self, n=4_000):
        rng = np.random.default_rng(self.seed)
        return {
            "sptprice": 25.0 + 75.0 * rng.random(n),
            "strike": 20.0 + 80.0 * rng.random(n),
            "rate": 0.02 + 0.08 * rng.random(n),
            "volatility": 0.1 + 0.4 * rng.random(n),
            "otime": 0.25 + 3.75 * rng.random(n),
            "otype": (rng.random(n) < 0.5).astype(np.float64),
        }
