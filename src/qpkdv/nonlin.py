"""Nonlinearities f(phi, x, u, u_x, u_xx, u_xxx) for the forced third-order flow.

An expression over {phi_1..phi_9, x, z0, z1, z2, z3} is parsed into a sympy
tree, optionally synthesized from a potential (total x-derivative of g, or a
Hamiltonian density F), and then evaluated on grids, differentiated for
linearization coefficients, and probed for the structure that selects the
solver's projection (reversible, total derivative, Hamiltonian).  The paper's
hypotheses (F) and (Q) are not probed: step 3 of the regularization needs only
their consequence, a d_xx coefficient of zero x-mean, and checks it on the
actual coefficient (`regularize.ZeroMeanViolation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import sympy as sp

from .spectral import (
    FourierField,
    Frequency,
    Truncation,
    analyze,
    dx_pow,
    omega_dphi,
    synthesize,
)

_X = sp.Symbol("x", real=True)
_PHI = [sp.Symbol(f"phi_{k}", real=True) for k in range(1, 10)]
_Z = [sp.Symbol(f"z{k}", real=True) for k in range(4)]
_FUNCS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp}
_IDENTS = {"x": _X, **{f"phi_{k}": _PHI[k - 1] for k in range(1, 10)},
           **{f"z{k}": _Z[k] for k in range(4)}}


class ParseError(ValueError):
    """Syntax error carrying the character offset in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number {text[i:j]!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent over: expr = term (('+'|'-') term)*,
    term = unary (('*'|'/') unary)*, unary = ('+'|'-') unary | factor,
    factor = base ('^' integer)?, base = number | ident | '(' expr ')' |
    func '(' expr ')'.  A sign binds looser than '^': -z0^2 is -(z0^2)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> sp.Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> sp.Expr:
        e = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            t = self.term()
            e = e + t if op == "+" else e - t
        return e

    def term(self) -> sp.Expr:
        e = self.unary()
        while self.peek()[0] in "*/":
            op = self.advance()[0]
            f = self.unary()
            e = e * f if op == "*" else e / f
        return e

    def unary(self) -> sp.Expr:
        if self.peek()[0] in "+-":
            return (-1 if self.advance()[0] == "-" else 1) * self.unary()
        return self.factor()

    def factor(self) -> sp.Expr:
        e = self.base()
        if self.peek()[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] in "+-":
                sign = -1 if self.advance()[0] == "-" else 1
            tok = self.advance()
            if tok[0] != "num" or tok[1] != int(tok[1]):
                raise ParseError("exponent must be an integer", tok[2])
            e = e ** (sign * int(tok[1]))
        return e

    def base(self) -> sp.Expr:
        tok = self.advance()
        if tok[0] == "num":
            v = tok[1]
            return sp.Integer(int(v)) if v == int(v) else sp.Float(v)
        if tok[0] == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok[0] == "ident":
            name = tok[1]
            if name in _FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return _FUNCS[name](arg)
            if name in _IDENTS:
                return _IDENTS[name]
            raise ParseError(f"unknown identifier {name!r}", tok[2])
        raise ParseError(f"expected a value, found {tok[1]!r}", tok[2])


def _total_dx(expr: sp.Expr) -> sp.Expr:
    """Total x-derivative along solutions: z_k picks up z_{k+1}."""
    out = sp.diff(expr, _X)
    for k in range(3):
        out += _Z[k + 1] * sp.diff(expr, _Z[k])
    if sp.diff(expr, _Z[3]) != 0:
        raise ValueError("total x-derivative would need a fourth derivative slot")
    return sp.expand(out)


def _synthesize(expr: sp.Expr, declared_form: str) -> sp.Expr:
    if declared_form == "raw_f":
        return expr
    if declared_form == "dx_of_g":
        if sp.diff(expr, _Z[3]) != 0:
            raise ValueError("g may depend on z0, z1, z2 only")
        return _total_dx(expr)
    if declared_form == "hamiltonian_F":
        for z in _Z[2:]:
            if sp.diff(expr, z) != 0:
                raise ValueError("a Hamiltonian density may depend on z0, z1 only")
        dz0 = sp.diff(expr, _Z[0])
        dz1 = sp.diff(expr, _Z[1])
        return sp.expand(-_total_dx(dz0) + _total_dx(_total_dx(dz1)))
    raise ValueError(f"unknown declared_form {declared_form!r}")


@dataclass(frozen=True)
class NonlinearitySpec:
    """A parsed nonlinearity and its strength epsilon.

    ``f`` is the synthesized expression actually entering the equation;
    ``source`` keeps the text that was parsed (g or F for derived forms).
    """

    f: sp.Expr
    declared_form: str
    epsilon: float
    source: str = ""

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        free = self.f.free_symbols - set(_IDENTS.values())
        if free:
            raise ValueError(f"unexpected free symbols: {free}")

    @cached_property
    def _callable(self):
        return _lambdify(self.f)

    @cached_property
    def _z_derivative_callables(self):
        return tuple(_lambdify(sp.diff(self.f, z)) for z in _Z)

    def z_derivative(self, k: int) -> sp.Expr:
        return sp.diff(self.f, _Z[k])


@lru_cache(maxsize=256)
def _lambdify(expr: sp.Expr):
    """Grid evaluator of expr, shared by every spec with an equal expression."""
    args = [_X, *_PHI, *_Z]
    fn = sp.lambdify(args, expr, modules="numpy")

    def call(x, phi, z):
        # phi: list of nu arrays, padded with zeros for unused angles
        phis = list(phi) + [0.0] * (9 - len(phi))
        out = fn(x, *phis, *z)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy()

    return call


def parse_nonlinearity(text: str, declared_form: str = "raw_f",
                       epsilon: float = 1e-3) -> NonlinearitySpec:
    expr = _Parser(text).parse()
    f = _synthesize(sp.expand(expr), declared_form)
    return NonlinearitySpec(f=f, declared_form=declared_form,
                            epsilon=epsilon, source=text)


BUILTINS = {
    "quasilinear_cubic": ("z0^2 * z3", "raw_f"),
    "hamiltonian_cubic": ("z1^3", "hamiltonian_F"),
    "fully_nonlinear_F": ("cos(phi_1 + x) * z3 + sin(phi_1 + x) * z0^3", "raw_f"),
}


def builtin(name: str, epsilon: float = 1e-3) -> NonlinearitySpec:
    if name not in BUILTINS:
        raise KeyError(f"unknown builtin {name!r}; have {sorted(BUILTINS)}")
    text, form = BUILTINS[name]
    return parse_nonlinearity(text, form, epsilon)


# --------------------------------------------------------------- evaluation


@lru_cache(maxsize=16)
def _grid_coords(trunc: Truncation):
    """Angle meshes (phi_1..phi_nu, x) matching the synthesis grid; cached per
    truncation, hence read-only."""
    axes = [2.0 * np.pi * np.arange(m) / m for m in trunc.grid_shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    for a in mesh:
        a.setflags(write=False)
    return tuple(mesh[: trunc.nu]), mesh[-1]


def _jet_on_grid(u: FourierField):
    """Samples of (u, u_x, u_xx, u_xxx) on the standard grid."""
    return list(synthesize([dx_pow(u, k) for k in range(4)]))


def evaluate_f(spec: NonlinearitySpec, u: FourierField) -> FourierField:
    """f(phi, x, u, u_x, u_xx, u_xxx) sampled on the grid and re-truncated."""
    phis, xg = _grid_coords(u.trunc)
    z = _jet_on_grid(u)
    samples = spec._callable(xg, phis, z)
    return analyze(u.trunc, samples)


def residual(spec: NonlinearitySpec, freq: Frequency, u: FourierField) -> FourierField:
    """F(u) = lambda omega_bar . d_phi u + u_xxx + epsilon f(phi, x, jet u)."""
    return omega_dphi(u, freq) + dx_pow(u, 3) + evaluate_f(spec, u) * spec.epsilon


def linearized_coefficients(spec: NonlinearitySpec, u: FourierField):
    """Fields a_i = epsilon * (d f / d z_i) along u, for i = 3, 2, 1, 0."""
    phis, xg = _grid_coords(u.trunc)
    z = _jet_on_grid(u)
    samples = np.stack([spec._z_derivative_callables[k](xg, phis, z) for k in (3, 2, 1, 0)])
    return tuple(a * spec.epsilon for a in analyze(u.trunc, samples))


def apply_L(coefficients, freq: Frequency, h: FourierField) -> FourierField:
    """L h = omega.d_phi h + (1 + a3) h_xxx + a2 h_xx + a1 h_x + a0 h for the
    fields (a3, a2, a1, a0): the four products summed on the grid, where two
    factors do not alias, by one synthesis and one analysis."""
    jet = [dx_pow(h, k) for k in (3, 2, 1, 0)]
    g = synthesize([*coefficients, *jet])
    products = analyze(h.trunc, np.sum(g[:4] * g[4:], axis=0))
    return omega_dphi(h, freq) + jet[0] + products


# ---------------------------------------------------------- structure flags


@dataclass(frozen=True)
class StructureFlags:
    reversible: bool
    total_derivative: bool
    hamiltonian: bool


def _is_zero(expr: sp.Expr, rng: np.random.Generator, tol: float = 1e-10) -> bool:
    simplified = sp.simplify(expr)
    if simplified == 0:
        return True
    fn = _lambdify(expr)
    for _ in range(64):
        x = rng.uniform(0, 2 * np.pi)
        phi = rng.uniform(0, 2 * np.pi, size=9)
        z = rng.uniform(-1, 1, size=4)
        if abs(fn(np.array(x), phi, z)) > tol:
            return False
    return True


def structure_flags(spec: NonlinearitySpec, seed: int = 0) -> StructureFlags:
    """The structure of spec.f that selects the solver's projection, probed at
    points drawn from ``seed``.  It depends on neither epsilon nor lambda, so
    one result per (f, declared form, seed) is computed and shared by every
    caller."""
    return _structure_flags(spec.f, spec.declared_form, seed)


@lru_cache(maxsize=64)
def _structure_flags(f: sp.Expr, declared_form: str, seed: int) -> StructureFlags:
    # reversibility: f(-phi, -x, z0, -z1, z2, -z3) = -f(phi, x, z0, z1, z2, z3)
    flipped = f.subs(
        {**{p: -p for p in _PHI}, _X: -_X, _Z[1]: -_Z[1], _Z[3]: -_Z[3]},
        simultaneous=True,
    )
    reversible = _is_zero(sp.expand(flipped + f), np.random.default_rng(seed))
    total_derivative = (declared_form in ("dx_of_g", "hamiltonian_F")
                        or _numeric_total_derivative(f))
    return StructureFlags(
        reversible=reversible,
        total_derivative=total_derivative,
        hamiltonian=declared_form == "hamiltonian_F",
    )


def _numeric_total_derivative(f: sp.Expr, tol: float = 1e-10) -> bool:
    """Check that the x-average of f vanishes along random trigonometric u."""
    trunc = Truncation(nu=1, n_phi=2, n_x=4)
    spec = NonlinearitySpec(f=f, declared_form="raw_f", epsilon=1.0)
    from .spectral import random_real_field, x_average

    for seed in range(3):
        u = random_real_field(trunc, np.random.default_rng(seed), decay=2.0, scale=0.3)
        avg = x_average(evaluate_f(spec, u))
        if np.max(np.abs(avg.c)) > tol:
            return False
    return True
