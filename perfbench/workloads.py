"""The three workloads: seeded inputs, the timed library pass, and checks.

Each workload holds

* ``calls``: the library calls of one pass, in order; every call is one
  operation, and ``known`` marks the calls that fail every time because
  of the truncation fault (``_TAIL_LOG_TARGET`` ignores the (2l+1)|P_l|
  growth at x = -1);
* ``cli``: the ``coulomb-kit`` invocations of one round;
* ``probe``: inputs at the workload's own length for the traced run, so
  every per-layer metric has spans on every workload.

Checks compare against :mod:`reference`, never against a stored copy of
the program's output.  Inside the documented domain (theta >= pi/6,
|beta| <= 5) a series value must meet the documented relative budget.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import reference as ref

BUDGET = 1e-3           # documented series budget, relative
CLOSED_TOL = 1e-12      # closed forms, relative to the 30-digit reference
KERNEL_TOL = 1e-11      # finite kernel sum vs Clenshaw, max-norm relative
PARTIAL_SUM_TOL = 1e-10 # raw partial sums vs mpmath, max-norm relative
UNIT_TOL = 1e-13        # | |S_l| - 1 |
INTEGRAL_TOL = 1e-10    # | integral of the kernel - 2 |, relative to the integral of |K|

THETA_MIN = math.pi / 6


@dataclass
class Call:
    """One library call: ``kind`` selects the function, ``args`` its inputs."""
    kind: str
    args: tuple
    known: bool = False


@dataclass
class CliCall:
    """One ``coulomb-kit`` invocation; a correct program exits 0."""
    argv: list
    known: bool = False


@dataclass
class Probe:
    theta: float
    k: float
    beta: float
    l_max: int
    epsilons: tuple
    kernel_x: np.ndarray = field(default_factory=lambda: np.linspace(-0.9, 0.9, 8))


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed])


def _loguniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class Workload:
    """Base: calls, CLI invocations, reference values and checks."""

    name = ""
    lib_reps = 1

    def __init__(self, seed: int, m):
        self.m = m            # namespace with the program's layer modules
        self.calls: list[Call] = []
        self.cli: list[CliCall] = []

    # -- the timed pass -------------------------------------------------
    def solve(self) -> list:
        m = self.m
        out = []
        for c in self.calls:
            try:
                out.append(_CALLS[c.kind](m, *c.args))
            except Exception as exc:  # a raising call is a failed operation
                out.append(exc)
        return out

    @property
    def known(self) -> np.ndarray:
        return np.array([c.known for c in self.calls])

    # -- checks -----------------------------------------------------------
    def prepare(self) -> None:
        """Compute the reference values (outside any timed region)."""
        raise NotImplementedError

    def check(self, out) -> tuple[np.ndarray, np.ndarray]:
        """(ok per call, digits per result); a call that raised has no digits."""
        ok = np.zeros(len(out), dtype=bool)
        dig = np.full(len(out), np.nan)
        for i, (c, v) in enumerate(zip(self.calls, out)):
            if isinstance(v, Exception):
                continue
            ok[i], err = self._check_one(i, c, v)
            dig[i] = ref.digits(err)
        return ok, dig[~np.isnan(dig)]

    def check_cli(self, j: int, text: str, out) -> bool:
        """Does invocation j's stdout parse back exactly to the pass ``out``?"""
        raise NotImplementedError


def _series(m, theta, k, beta):
    return m.summation.series_amplitude(theta, m.coulomb_core.PhysicalParams(k, beta)).f


def _closed(m, theta, k, beta):
    return m.coulomb_core.closed_amplitude(theta, m.coulomb_core.PhysicalParams(k, beta)).f


def _xsec(m, theta, k, beta):
    return m.coulomb_core.differential_cross_section(theta, m.coulomb_core.PhysicalParams(k, beta))


def _kernel(m, xs, eps, L):
    return m.summation.completeness_kernel(xs, eps, L)


def _s_seq(m, L, k, beta):
    return m.summation.s_matrix_sequence(L, m.coulomb_core.PhysicalParams(k, beta))


def _partial(m, theta, k, beta, L):
    return m.summation.unregularized_partial_sums(theta, m.coulomb_core.PhysicalParams(k, beta), L)


_CALLS = {"series": _series, "closed": _closed, "xsec": _xsec, "kernel": _kernel,
          "s_seq": _s_seq, "partial": _partial}


class _SeriesChecks(Workload):
    """Series values against the 30-digit closed form."""

    def prepare(self):
        r = ref.Reference()
        self.ref_f = [r.amplitude(*c.args) for c in self.calls]
        self.ref_ruth = [r.rutherford(*c.args) for c in self.calls]

    def _check_one(self, i, c, f):
        err = ref.rel_error(f, self.ref_f[i])
        return bool(np.isfinite(f) and err <= BUDGET), err


class SeriesGrid(_SeriesChecks):
    """One beta, a dense linear theta grid over [pi/6, pi], default config.

    The seed picks k and the sign of beta.  The relative error of the
    series does not depend on k, and a sign flip conjugates every term, so
    the digits metrics are the same for every seed while the values are not.
    """

    name = "series-grid"
    lib_reps = 3
    count = 64

    def __init__(self, seed, m):
        super().__init__(seed, m)
        rng = _rng(seed, 1)
        self.k = float(_loguniform(rng, 0.5, 2.0))
        self.beta = float(rng.choice([1.0, -1.0]))
        self.thetas = np.linspace(THETA_MIN, math.pi, self.count)
        self.calls = [Call("series", (float(t), self.k, self.beta)) for t in self.thetas]
        self.cli = [CliCall(["amplitude", "--method", "series", "--k", repr(self.k),
                             "--beta", repr(self.beta), "--theta-min", repr(THETA_MIN),
                             "--theta-max", repr(math.pi), "--count", str(self.count)])]
        cfg = m.summation.default_config()
        self.probe = Probe(math.pi / 2, self.k, self.beta, cfg.l_max, cfg.epsilons)

    def check_cli(self, j, text, out):
        header, rows = _parse_csv(text)
        if header != ["theta", "re_f", "im_f", "abs_f_sq", "method"] or len(rows) != self.count:
            return False
        for i, row in enumerate(rows):
            f = out[i]
            if isinstance(f, Exception):
                return False
            theta, re_f, im_f, abs_f_sq = map(float, row[:4])
            if (theta != self.thetas[i] or complex(re_f, im_f) != f
                    or abs_f_sq != abs(f) ** 2 or row[4] != "regularized_series"):
                return False
            # |f|^2 = beta^2 / (4 k^2 sin^4(theta/2)), within the budget squared
            if abs(abs_f_sq / self.ref_ruth[i] - 1.0) > 2 * BUDGET + BUDGET ** 2:
                return False
        return True


class BetaScan(_SeriesChecks):
    """A fresh beta for every call: nothing can be shared between calls.

    40 pairs: theta on a fixed midpoint grid over [pi/6, 0.98 pi], and
    for angle j a |beta| drawn inside log-stratum 17 j mod 40 of
    [0.05, 5], with a random sign and k.  The series error oscillates
    with theta on a scale of 2 pi / l_max, so random angles would move
    digits_median from seed to seed; the seed moves beta instead.  theta
    stops at 0.98 pi because closer to pi the truncation fault brings
    small-|beta| errors to within 3x of the budget, so whether a pair
    fails would hang on the seed.  The backward direction is covered by
    eight fixed pairs at theta = pi: |beta| = 0.05 and 0.1 fail every time
    (known fault), |beta| = 1 and 5 pass.
    """

    name = "beta-scan"
    lib_reps = 3
    seeded = 40
    backward = (0.05, -0.05, 0.1, -0.1, 1.0, -1.0, 5.0, -5.0)
    known_fault = (0.05, 0.1)

    def __init__(self, seed, m):
        super().__init__(seed, m)
        rng = _rng(seed, 2)
        n = self.seeded
        j = np.arange(n)
        u_b = ((17 * j) % n + rng.uniform(size=n)) / n   # 17 and 40 are coprime
        mag = np.exp(math.log(0.05) + u_b * (math.log(5.0) - math.log(0.05)))
        beta = mag * rng.choice([1.0, -1.0], size=n)
        theta = THETA_MIN + (j + 0.5) / n * (0.98 * math.pi - THETA_MIN)
        k = _loguniform(rng, 0.5, 2.0, n)
        self.calls = [Call("series", (float(t), float(kk), float(b)))
                      for t, kk, b in zip(theta, k, beta)]
        self.calls += [Call("series", (math.pi, 1.0, b), known=abs(b) in self.known_fault)
                       for b in self.backward]
        # verify at two seeded pairs and at the failing pair beta = 0.1, theta = pi
        self.verified = [0, 1, n + self.backward.index(0.1)]
        self.cli = [CliCall(self._verify_argv(self.calls[i].args), known=self.calls[i].known)
                    for i in self.verified]
        cfg = m.summation.default_config()
        self.probe = Probe(float(theta[0]), float(k[0]), float(beta[0]), cfg.l_max, cfg.epsilons)

    @staticmethod
    def _verify_argv(args):
        theta, k, beta = args
        return ["verify", "--k", repr(k), "--beta", repr(beta), "--theta", repr(theta)]

    def prepare(self):
        super().prepare()
        r = ref.Reference()
        self.ref_closed = {i: r.amplitude(*self.calls[i].args) for i in self.verified}

    def check_cli(self, j, text, out):
        i = self.verified[j]
        header, rows = _parse_csv(text)
        if header != ["theta", "re_closed", "im_closed", "re_series", "im_series",
                      "abs_error", "rel_error"] or len(rows) != 1:
            return False
        theta, re_c, im_c, re_s, im_s, abs_err, rel_err = map(float, rows[0])
        closed, series = complex(re_c, im_c), complex(re_s, im_s)
        return (theta == self.calls[i].args[0]
                and not isinstance(out[i], Exception) and series == out[i]
                and ref.rel_error(closed, self.ref_closed[i]) <= CLOSED_TOL
                and abs_err == abs(series - closed)
                and rel_err == abs_err / abs(closed))


class KernelTable(Workload):
    """Many short real sweeps and large closed-form tables.

    completeness_kernel at L = 500 on 320 Gauss-Legendre nodes for four
    eps values (0.1, 0.05, 0.025, 0.0125) and on the kernel-demo grid,
    s_matrix_sequence and raw partial sums at three angles in
    [pi/6, 5 pi/6] at the same L, and closed amplitude and cross section
    on a 2000-row grid over [0.05, pi].  The CLI runs kernel-demo, the
    amplitude table as CSV and the cross-section table as JSON.
    """

    name = "kernel-table"
    lib_reps = 2
    L = 500
    nodes = 320
    rows = 2000
    demo_count = 201

    def __init__(self, seed, m):
        super().__init__(seed, m)
        # the results here agree with the reference to rounding level, and
        # which digit a rounding lands on hangs on the exact inputs: seeded
        # eps, beta and angles moved digits_min by 0.9 digits between seeds.
        # So these are fixed, and the seed picks only k.
        rng = _rng(seed, 3)
        e0 = 0.1
        self.epsilons = tuple(e0 / 2 ** j for j in range(4))
        self.k = float(_loguniform(rng, 0.5, 2.0))
        self.beta = 1.3
        # away from pi: there the rounding of cos(theta) alone, amplified by
        # dP_l/dx ~ l^2, costs the partial sums up to 3 digits in any program
        self.ps_thetas = [0.7, 1.4, 2.2]
        self.theta_lo = 0.05
        self.x_gauss, self.w_gauss = np.polynomial.legendre.leggauss(self.nodes)
        self.x_demo = np.linspace(-1.0, 1.0, self.demo_count)
        self.grid = np.linspace(self.theta_lo, math.pi, self.rows)
        L, k, b = self.L, self.k, self.beta
        self.calls = [Call("kernel", (self.x_gauss, e, L)) for e in self.epsilons]
        self.demo = len(self.calls)
        self.calls.append(Call("kernel", (self.x_demo, e0, L)))
        self.calls.append(Call("s_seq", (L, k, b)))
        self.calls += [Call("partial", (t, k, b, L)) for t in self.ps_thetas]
        self.first_closed = len(self.calls)
        self.calls += [Call("closed", (float(t), k, b)) for t in self.grid]
        self.first_xsec = len(self.calls)
        self.calls += [Call("xsec", (float(t), k, b)) for t in self.grid]
        table = ["--k", repr(k), "--beta", repr(b), "--theta-min", repr(self.theta_lo),
                 "--theta-max", repr(math.pi), "--count", str(self.rows)]
        self.cli = [
            CliCall(["kernel-demo", "--epsilon", repr(e0), "--lmax", str(L),
                     "--count", str(self.demo_count)]),
            CliCall(["amplitude"] + table),
            CliCall(["cross-section"] + table + ["--format", "json"]),
        ]
        self.probe = Probe(self.ps_thetas[0], k, b, L, self.epsilons)

    def prepare(self):
        r = ref.Reference()
        self.ref_S = np.array([ref.to_complex(s) for s in r.s_matrix(self.L, self.beta)])
        self.ref_ps = [r.partial_sums(t, self.k, self.beta, self.L) for t in self.ps_thetas]
        self.ref_f = np.array([r.amplitude(float(t), self.k, self.beta) for t in self.grid])
        self.ref_ruth = np.array([r.rutherford(float(t), self.k, self.beta) for t in self.grid])
        self.ref_kernel = [ref.kernel_finite_sum(c.args[0], c.args[1], self.L)
                           for c in self.calls[: self.demo + 1]]

    def check(self, out):
        """Per-call checks; digits per result: each sweep, and each table as a whole.

        A table's relative error is its worst row's, so its digits do not
        hang on which rows happen to round exactly.
        """
        ok, dig = super().check(out[: self.first_closed])
        closed = out[self.first_closed: self.first_xsec]
        xsec = out[self.first_xsec:]
        f = np.array([np.nan if isinstance(v, Exception) else v for v in closed], dtype=complex)
        s = np.array([np.nan if isinstance(v, Exception) else v for v in xsec])
        err_f = np.abs(f - self.ref_f) / np.abs(self.ref_f)
        mod_f = np.abs(np.abs(f) ** 2 / self.ref_ruth - 1.0)
        err_s = np.abs(s / self.ref_ruth - 1.0)
        ok = np.concatenate([ok, (err_f <= CLOSED_TOL) & (mod_f <= CLOSED_TOL), err_s <= CLOSED_TOL])
        tables = [ref.digits(float(np.nanmax(e))) for e in (err_f, err_s) if not np.all(np.isnan(e))]
        return ok, np.concatenate([dig, tables])

    def _check_one(self, i, c, v):
        if c.kind == "kernel":
            eps = c.args[1]
            err = ref.rel_error(v, self.ref_kernel[i])
            closed = ref.kernel_closed(c.args[0], eps)
            slack = 1e-12 * float(np.max(np.abs(closed)))
            ok = err <= KERNEL_TOL and float(np.max(np.abs(v - closed))) <= (
                ref.kernel_tail_bound(eps, self.L) + slack)
            if c.args[0] is self.x_gauss:
                integral = float(np.dot(self.w_gauss, v))
                ok = ok and abs(integral - 2.0) <= INTEGRAL_TOL * float(np.dot(self.w_gauss, np.abs(v)))
            return ok, err
        if c.kind == "s_seq":
            err = ref.rel_error(v, self.ref_S)
            return err <= CLOSED_TOL and float(np.max(np.abs(np.abs(v) - 1.0))) <= UNIT_TOL, err
        if c.kind == "partial":
            err = ref.rel_error(v, self.ref_ps[self.ps_thetas.index(c.args[0])])
            return err <= PARTIAL_SUM_TOL, err
        raise ValueError(c.kind)

    def check_cli(self, j, text, out):
        if j == 0:
            header, rows = _parse_csv(text)
            values = out[self.demo]
            return (header == ["x", "kernel"] and len(rows) == self.demo_count
                    and not isinstance(values, Exception)
                    and all(float(x) == xd and float(v) == vv for (x, v), xd, vv
                            in zip(rows, self.x_demo, values)))
        closed = out[self.first_closed: self.first_xsec]
        if j == 1:
            header, rows = _parse_csv(text)
            if header != ["theta", "re_f", "im_f", "abs_f_sq", "method"] or len(rows) != self.rows:
                return False
            return all(float(r[0]) == t and complex(float(r[1]), float(r[2])) == f
                       and float(r[3]) == abs(f) ** 2 and r[4] == "closed_form"
                       for r, t, f in zip(rows, self.grid, closed))
        payload = json.loads(text)
        meta, rows = payload["meta"], payload["rows"]
        xsec = out[self.first_xsec:]
        return (meta["command"] == "cross-section" and meta["count"] == self.rows
                and meta["beta"] == self.beta and meta["k"] == self.k
                and len(rows) == self.rows
                and all(r["theta"] == t and r["dsigma_domega"] == s
                        for r, t, s in zip(rows, self.grid, xsec)))


WORKLOADS = {w.name: w for w in (SeriesGrid, BetaScan, KernelTable)}
