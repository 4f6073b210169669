"""Problem definitions, meshes, and piecewise-polynomial solution storage.

A problem is the initial value problem

    D^alpha x(t) + d(t) * x^(m)(t) = f(x, t),    t in (0, T],

with the Caputo fractional derivative of order alpha in (0, 2], an optional
classic derivative term of integer order m >= 1, and initial values
x^(j)(0) for j = 0 .. max(ceil(alpha), m) - 1.  m = 0 with no damping term
is the plain one-term equation D^alpha x = f(x, t).

Six benchmark problems with known polynomial exact solutions are built in;
``verify_forcing`` checks any spec with a polynomial exact solution against
the closed-form Caputo power rule, which guards against transcription
mistakes in forcing terms.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .fraccalc import caputo_power
from .polybasis import MAX_DEGREE, _check_int, eval_poly

__all__ = [
    "Mesh",
    "build_mesh",
    "ProblemSpec",
    "PiecewisePoly",
    "builtin_problem",
    "BUILTIN_NAMES",
    "linear_model",
    "verify_forcing",
    "load_problem_config",
]


@dataclass(frozen=True)
class Mesh:
    """Partition 0 = t_0 < t_1 < ... < t_n = T of the time interval."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a mesh needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError(f"mesh must start at t = 0, got {nodes[0]}")
        if not (np.all(np.diff(nodes) > 0) and np.isfinite(nodes[-1])):
            raise ValueError("mesh nodes must be finite and strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        return self.nodes.size - 1

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    def interval(self, j: int) -> tuple[float, float]:
        return float(self.nodes[j]), float(self.nodes[j + 1])


def build_mesh(n: int, horizon: float, grading: float = 1.0) -> Mesh:
    """Mesh with nodes t_j = T * (j/n)**grading.

    grading = 1 is uniform; grading > 1 concentrates elements near t = 0,
    which compensates the t**alpha startup singularity of fractional
    problems with non-smooth solutions.
    """
    n = _check_int("n", n, 1)
    if not np.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not np.isfinite(grading) or grading < 1.0:
        raise ValueError(f"grading must be finite and >= 1, got {grading}")
    j = np.arange(n + 1, dtype=float) / n
    return Mesh(horizon * j**grading)


def _required_initial_count(alpha: float, m: int) -> int:
    return max(math.ceil(alpha), m)


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable description of one fractional initial value problem.

    ``f(x, t)`` is the right-hand side, vectorized over t (x is then an
    array of the same shape).  ``df_dx`` is its x-derivative, used by the
    per-element Newton solve (by central differences when None); for
    ``linear`` problems f must have the form c(t)*x + r(t), and df_dx is
    required and must not depend on x.  ``exact_monomials`` are
    the coefficients (low order first) of a polynomial exact solution when
    one is known; ``exact`` may be any callable.
    """

    name: str
    alpha: float
    f: Callable
    df_dx: Callable | None
    initial: tuple
    horizon: float
    m: int = 0
    d: Callable | None = None
    linear: bool = False
    exact: Callable | None = None
    exact_monomials: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"fractional order must lie in (0, 2], got {self.alpha}")
        if self.m < 0:
            raise ValueError(f"classic derivative order must be >= 0, got {self.m}")
        if (self.m >= 1) != (self.d is not None):
            raise ValueError("coefficient d(t) must be present exactly when m >= 1")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        # linear problems get one unchecked solve: a differenced Jacobian's error would stay
        if self.linear and self.df_dx is None:
            raise ValueError(f"{self.name}: a linear problem needs df_dx")
        need = _required_initial_count(self.alpha, self.m)
        initial = tuple(float(v) for v in self.initial)
        if len(initial) != need or not all(map(math.isfinite, initial)):
            raise ValueError(
                f"{self.name}: expected {need} finite initial values for alpha={self.alpha}, "
                f"m={self.m}, got {initial}"
            )
        object.__setattr__(self, "initial", initial)

    @property
    def field_count(self) -> int:
        """Number of unknown fields x, x', ..., in the first-order system."""
        return _required_initial_count(self.alpha, self.m) + 1

    @property
    def frac_order(self) -> float:
        """Order beta = ceil(alpha) - alpha of the memory integral (0 for integer alpha)."""
        return math.ceil(self.alpha) - self.alpha


@dataclass
class PiecewisePoly:
    """Element-wise modal polynomial data for all fields of a solution.

    coeffs has shape (n_elements, n_fields, k+1); field 0 is the solution
    itself, field i its i-th derivative.  ``info`` carries solver metadata
    (Newton iteration counts and the like).
    """

    mesh: Mesh
    k: int
    coeffs: np.ndarray
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim == 2:
            c = c[:, None, :]
        if c.ndim != 3 or c.shape[0] != self.mesh.n or c.shape[2] != self.k + 1:
            raise ValueError(f"coefficient array shape {c.shape} does not match mesh/degree")
        self.coeffs = c

    def __call__(self, t):
        nodes = self.mesh.nodes
        j = np.clip(np.searchsorted(nodes, t, side="left") - 1, 0, self.mesh.n - 1)
        return eval_poly(self.coeffs[j, 0], (nodes[j], nodes[j + 1]), t)

    def downwind_values(self) -> np.ndarray:
        """Traces X(t_j^-) of field 0 at the right end of each element, j = 1..n."""
        return self.coeffs[:, 0, :].sum(axis=1)


def _poly_from_monomials(mono: Sequence[float]) -> Callable:
    c = np.asarray(mono, dtype=float)
    return lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), c)


def _initial_from_monomials(mono: Sequence[float], count: int) -> tuple:
    return tuple(math.factorial(j) * (mono[j] if j < len(mono) else 0.0) for j in range(count))


_GAMMA6 = math.gamma(6.0)

BUILTIN_NAMES = ("L1", "N1", "L1Prime", "N5", "N4", "L2")


def builtin_problem(name: str, alpha: float) -> ProblemSpec:
    """One of the six benchmark problems, at the requested fractional order.

    All have polynomial exact solutions, so every forcing below can be (and
    is, in the test suite) checked against the Caputo power rule.  Initial
    values are derived from the exact solution so the count always matches
    max(ceil(alpha), m) even at integer alpha.
    """
    key = name.strip().lower()
    alpha = float(alpha)

    if key == "l1":
        _check_range(name, alpha, 0.0, 1.0)
        mono = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        g = _GAMMA6 / math.gamma(6.0 - alpha)
        return _make(
            name="L1", alpha=alpha, m=0, d=None, horizon=1.0, mono=mono, linear=True,
            f=lambda x, t: -2.0 * x + g * t ** (5.0 - alpha) + 2.0 * t**5 + 2.0,
            df=lambda x, t: -2.0 * np.ones_like(np.asarray(t, dtype=float)),
        )
    if key == "n1":
        _check_range(name, alpha, 0.0, 1.0)
        mono = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        g = _GAMMA6 / math.gamma(6.0 - alpha)
        return _make(
            name="N1", alpha=alpha, m=0, d=None, horizon=0.5, mono=mono, linear=False,
            f=lambda x, t: -2.0 * x**2 + g * t ** (5.0 - alpha) + 2.0 * t**10 + 4.0 * t**5 + 2.0,
            df=lambda x, t: -4.0 * x,
        )
    if key == "l1prime":
        _check_range(name, alpha, 0.0, 1.0)
        mono = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        g = _GAMMA6 / math.gamma(6.0 - alpha)
        return _make(
            name="L1Prime", alpha=alpha, m=1, d=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            horizon=1.0, mono=mono, linear=True,
            f=lambda x, t: -2.0 * x + g * t ** (5.0 - alpha) + 2.0 * t**5 + 5.0 * t**4 + 2.0,
            df=lambda x, t: -2.0 * np.ones_like(np.asarray(t, dtype=float)),
        )
    if key == "n5":
        _check_range(name, alpha, 1.0, 2.0)
        mono = (1.0, 1.0, 0.5, 0.0, 0.0, 1.0)
        g = _GAMMA6 / math.gamma(6.0 - alpha)
        g2 = math.gamma(1.0) / math.gamma(3.0 - alpha)
        return _make(
            name="N5", alpha=alpha, m=3, d=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            horizon=1.0, mono=mono, linear=False,
            f=lambda x, t: (
                -2.0 * x**2 + g * t ** (5.0 - alpha) + g2 * t ** (2.0 - alpha)
                + 2.0 * t**10 + 2.0 * t**7 + 4.0 * t**6 + 4.0 * t**5
                + 0.5 * t**4 + 2.0 * t**3 + 64.0 * t**2 + 4.0 * t + 2.0
            ),
            df=lambda x, t: -4.0 * x,
        )
    if key == "n4":
        _check_range(name, alpha, 1.0, 2.0)
        mono = (1.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        g = _GAMMA6 / math.gamma(6.0 - alpha)
        return _make(
            name="N4", alpha=alpha, m=1, d=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            horizon=1.0, mono=mono, linear=False,
            f=lambda x, t: (
                -2.0 * x**2 + g * t ** (5.0 - alpha) + 5.0 * t**4 + 1.0
                + 2.0 * (t**5 + t + 1.0) ** 2
            ),
            df=lambda x, t: -4.0 * x,
        )
    if key == "l2":
        _check_range(name, alpha, 1.0, 2.0)
        mono = (1.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        g = _GAMMA6 / math.gamma(6.0 - alpha)
        return _make(
            name="L2", alpha=alpha, m=0, d=None, horizon=1.0, mono=mono, linear=True,
            f=lambda x, t: -2.0 * x + g * t ** (5.0 - alpha) + 2.0 * t**5 + 2.0 * t + 2.0,
            df=lambda x, t: -2.0 * np.ones_like(np.asarray(t, dtype=float)),
        )
    raise ValueError(f"unknown builtin problem {name!r}; choose from {BUILTIN_NAMES}")


def _check_range(name: str, alpha: float, lo: float, hi: float):
    if not (lo < alpha <= hi) and not (alpha == lo > 0.0):
        raise ValueError(f"{name} is stated for alpha in [{lo}, {hi}] (and requires alpha > 0), got {alpha}")


def _make(name, alpha, m, d, horizon, mono, linear, f, df) -> ProblemSpec:
    count = _required_initial_count(alpha, m)
    return ProblemSpec(
        name=name,
        alpha=alpha,
        f=f,
        df_dx=df,
        initial=_initial_from_monomials(mono, count),
        horizon=horizon,
        m=m,
        d=d,
        linear=linear,
        exact=_poly_from_monomials(mono),
        exact_monomials=tuple(mono),
    )


def linear_model(alpha: float, a: float, b: float, initial: Sequence[float], horizon: float) -> ProblemSpec:
    """The model problem D^alpha x = a*x + b with given initial values."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"coefficients a and b must be finite, got a={a}, b={b}")

    def f(x, t):
        return a * x + b + 0.0 * np.asarray(t, dtype=float)

    def df(x, t):
        return a * np.ones_like(np.asarray(t, dtype=float))

    return ProblemSpec(
        name=f"linear(a={a},b={b})",
        alpha=alpha,
        f=f,
        df_dx=df,
        initial=tuple(initial),
        horizon=horizon,
        linear=True,
    )


_FORCING_SAMPLES = 100


def verify_forcing(spec: ProblemSpec) -> float:
    """Max residual of the exact solution in the stated equation.

    Uses the closed-form Caputo power rule on the exact solution's monomial
    coefficients, so it is independent of the solver and of quadrature.  A
    correctly transcribed forcing gives roundoff-level residuals; a wrong
    coefficient shows up at its own magnitude.
    """
    if spec.exact_monomials is None:
        raise ValueError("verify_forcing needs a polynomial exact solution")
    mono = np.asarray(spec.exact_monomials, dtype=float)
    t = np.linspace(spec.horizon / _FORCING_SAMPLES, spec.horizon, _FORCING_SAMPLES)
    frac = np.zeros_like(t)
    for j, cj in enumerate(mono):
        if cj != 0.0:
            coeff = caputo_power(spec.alpha, j)
            if coeff != 0.0:
                frac += cj * coeff * t ** (j - spec.alpha)
    lhs = frac
    if spec.m >= 1:
        dm = mono.copy()
        for _ in range(spec.m):
            dm = dm[1:] * np.arange(1, dm.size)
        lhs = lhs + spec.d(t) * _poly_from_monomials(dm)(t)
    x = _poly_from_monomials(mono)(t)
    return float(np.max(np.abs(lhs - spec.f(x, t))))


def load_problem_config(source) -> dict:
    """Problem setup from a JSON file path, file object, or dict.

    Keys: alpha (required), forcing (builtin name, required), and optional
    m, T, initial, n, k.  T and initial override the builtin's defaults
    (its exact solution is kept only for its own initial values and a T
    within its horizon); m, when given, must agree with the builtin's
    structure; n, k and m must be integers.  Returns a dict with the
    ProblemSpec under "spec" plus resolved n and k.
    """
    cfg = _read_config(source)
    unknown = set(cfg) - {"alpha", "m", "T", "initial", "forcing", "n", "k"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    try:
        alpha = float(cfg["alpha"])
        forcing = str(cfg["forcing"])
    except KeyError as exc:
        raise ValueError(f"config is missing required key {exc}") from exc

    spec = builtin_problem(forcing, alpha)
    if "m" in cfg and _check_int("m", cfg["m"], 0) != spec.m:
        raise ValueError(f"config m={cfg['m']} conflicts with builtin {spec.name} (m={spec.m})")
    horizon = float(cfg.get("T", spec.horizon))
    initial = tuple(float(v) for v in cfg.get("initial", spec.initial))
    if horizon != spec.horizon or initial != spec.initial:
        # the stated solution holds on (0, T] only, and for its own initial values
        covered = horizon <= spec.horizon and initial == spec.initial
        spec = replace(
            spec, initial=initial, horizon=horizon,
            exact=spec.exact if covered else None,
            exact_monomials=spec.exact_monomials if covered else None,
        )
    n = _check_int("n", cfg.get("n", 16), 1)
    k = _check_int("k", cfg.get("k", 2), 0, MAX_DEGREE)
    return {"spec": spec, "n": n, "k": k}


def _read_config(source) -> dict:
    """A config dict from a JSON file path, file object, or dict (copied)."""
    if isinstance(source, dict):
        cfg = source
    elif hasattr(source, "read"):
        cfg = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return dict(cfg)
