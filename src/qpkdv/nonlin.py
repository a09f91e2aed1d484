"""Nonlinearities f(phi, x, u, u_x, u_xx, u_xxx) for the forced third-order flow.

An expression over {phi_1..phi_9, x, z0, z1, z2, z3} is parsed into an
immutable `Expr` tree, optionally synthesized from a potential (total
x-derivative of g, or a Hamiltonian density F), and then evaluated on grids,
differentiated in z_k by the chain rule for the linearization coefficients,
and probed for the structure that selects the solver's projection
(reversible, total derivative, Hamiltonian).  The grammar is closed (numbers,
variables, + - * /, integer powers, sin, cos, exp), so numpy alone evaluates
it.  It is read by Python's own parser with '^' as the power; a text may
span lines, and every refusal is a ParseError at an offset in the text.  The
paper's hypotheses (F) and (Q) are not probed: step 3 of the regularization
needs only their consequence, a d_xx coefficient of zero x-mean, and checks
it on the actual coefficient (`regularize.ZeroMeanViolation`).
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .spectral import (
    FourierField,
    Frequency,
    NumericalFailure,
    Truncation,
    analyze,
    dx_pow,
    omega_dphi,
    random_real_field,
    synthesize,
    x_average,
)

_PHI_NAMES = tuple(f"phi_{k}" for k in range(1, 10))
_Z_NAMES = tuple(f"z{k}" for k in range(4))


class ParseError(ValueError):
    """Syntax error carrying the character offset in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class NonFiniteError(NumericalFailure, ValueError):
    """f or one of its z-partials is not finite at some grid node."""


# --------------------------------------------------------------- expressions


@dataclass(frozen=True, slots=True)
class Expr:
    """An immutable, hashable expression node: ``num`` (args: the value),
    ``var`` (the name), ``add`` and ``mul`` (two operands), ``pow`` (base and
    an integer exponent), or ``sin``, ``cos``, ``exp`` (one operand).

    The operators fold numeric constants: a constant that is not finite, such
    as a division by a constant zero, raises ArithmeticError.  Like terms are
    not collected."""

    kind: str
    args: tuple

    def __add__(self, other):
        return _add(self, _lift(other))

    def __sub__(self, other):
        return _add(self, _mul(_MINUS_ONE, _lift(other)))

    def __mul__(self, other):
        return _mul(self, _lift(other))

    def __rmul__(self, other):
        return _mul(_lift(other), self)

    def __truediv__(self, other):
        return _mul(self, _pow(_lift(other), -1))

    def __neg__(self):
        return _mul(_MINUS_ONE, self)

    def __pow__(self, n: int):
        return _pow(self, n)

    def __str__(self) -> str:
        kind, args = self.kind, self.args
        if kind == "num":
            v = args[0]
            s = repr(int(v)) if v.is_integer() and abs(v) < 2**53 else repr(v)
            return s if v >= 0 else f"({s})"
        if kind == "var":
            return args[0]
        if kind == "add":
            return f"{args[0]} + {args[1]}"
        if kind == "mul":
            return "*".join(f"({a})" if a.kind == "add" else str(a) for a in args)
        if kind == "pow":
            base, n = args
            return f"{base if base.kind == 'var' else f'({base})'}^{n}"
        return f"{kind}({args[0]})"

    def __repr__(self) -> str:
        return f"Expr({str(self)!r})"

    def diff(self, var: str) -> Expr:
        """d self / d var by the chain rule; var is 'x', 'phi_k' or 'z_k'."""
        return self._diff(var, {})

    def _diff(self, var: str, memo: dict) -> Expr:
        d = memo.get(id(self))
        if d is not None:
            return d
        kind, args = self.kind, self.args
        if kind == "num":
            d = _ZERO
        elif kind == "var":
            d = _ONE if args[0] == var else _ZERO
        elif kind == "add":
            d = args[0]._diff(var, memo) + args[1]._diff(var, memo)
        elif kind == "mul":
            a, b = args
            d = a._diff(var, memo) * b + a * b._diff(var, memo)
        elif kind == "pow":
            base, n = args
            d = n * base ** (n - 1) * base._diff(var, memo)
        else:
            inner = args[0]._diff(var, memo)
            if kind == "sin":
                d = _func("cos", args[0]) * inner
            elif kind == "cos":
                d = -_func("sin", args[0]) * inner
            else:
                d = self * inner
        memo[id(self)] = d
        return d

    def __call__(self, x, phi, z) -> np.ndarray:
        """Samples at the points (x, phi, z), shaped like x: ``phi`` holds the
        angles phi_1..phi_nu (those past nu are 0) and ``z`` the jet
        (z0, z1, z2, z3); all broadcast against x."""
        env = {name: np.asarray(v, dtype=float) for name, v in
               [("x", x), *zip(_PHI_NAMES, phi), *zip(_Z_NAMES, z)]}
        with np.errstate(all="ignore"):
            out = self._eval(env, {})
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy()

    def _eval(self, env: dict, memo: dict):
        v = memo.get(id(self))
        if v is not None:
            return v
        kind, args = self.kind, self.args
        if kind == "num":
            v = args[0]
        elif kind == "var":
            v = env.get(args[0], _ZERO_SAMPLE)
        elif kind == "add":
            v = args[0]._eval(env, memo) + args[1]._eval(env, memo)
        elif kind == "mul":
            v = args[0]._eval(env, memo) * args[1]._eval(env, memo)
        elif kind == "pow":
            v = args[0]._eval(env, memo) ** args[1]
        else:
            v = _UFUNCS[kind](args[0]._eval(env, memo))
        memo[id(self)] = v
        return v


_ZERO_SAMPLE = np.zeros(())
_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _num(value: float) -> Expr:
    if not math.isfinite(value):
        raise ArithmeticError("a constant is not finite")
    return Expr("num", (float(value) + 0.0,))  # + 0.0 maps -0.0 to 0.0


def _lift(other) -> Expr:
    return other if isinstance(other, Expr) else _num(other)


def _value(e: Expr):
    """The number held by a constant node, else None."""
    return e.args[0] if e.kind == "num" else None


def _add(a: Expr, b: Expr) -> Expr:
    va, vb = _value(a), _value(b)
    if va is not None and vb is not None:
        return _num(va + vb)
    if va == 0.0:
        return b
    if vb == 0.0:
        return a
    return Expr("add", (a, b))


def _mul(a: Expr, b: Expr) -> Expr:
    """a * b with a constant factor first, merged with a constant leading b."""
    if _value(b) is not None:
        a, b = b, a
    va, vb = _value(a), _value(b)
    if va is None:
        return Expr("mul", (a, b))
    if vb is not None:
        return _num(va * vb)
    if va == 0.0:
        return _ZERO
    if va == 1.0:
        return b
    if b.kind == "mul" and _value(b.args[0]) is not None:
        return _mul(_num(va * b.args[0].args[0]), b.args[1])
    return Expr("mul", (a, b))


def _pow(base: Expr, n: int) -> Expr:
    if n == 0:
        return _ONE
    if n == 1:
        return base
    v = _value(base)
    if v is None:
        return Expr("pow", (base, n))
    if v == 0.0 and n < 0:
        raise ZeroDivisionError("division by zero")
    try:
        return _num(v ** n)
    except OverflowError:
        raise ArithmeticError("a constant is not finite") from None


def _func(name: str, arg: Expr) -> Expr:
    v = _value(arg)
    if v is None:
        return Expr(name, (arg,))
    try:
        return _num(_MATH[name](v))
    except OverflowError:
        raise ArithmeticError("a constant is not finite") from None


_ZERO, _ONE, _MINUS_ONE = _num(0.0), _num(1.0), _num(-1.0)
_VARS = {name: Expr("var", (name,)) for name in ("x", *_PHI_NAMES, *_Z_NAMES)}
_FUNCS = {name: partial(_func, name) for name in _MATH}
_UNARY = {ast.UAdd: lambda e: e, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
# the grammar's alphabet, and a second '*' (the power is written '^')
_OUTSIDE_GRAMMAR = re.compile(r"[^A-Za-z0-9_.+\-*/^()\s]|(?<=\*)\*")
_DECIMAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


# ------------------------------------------------------------------- parsing


# the deepest tree a text may parse to.  Every walk of an Expr recurses once per
# level, and the derivatives of a Hamiltonian density nest about 8 times deeper
# than the density (a product of 120 factors z1 still runs at the default
# recursion limit, 150 do not)
MAX_DEPTH = 100


def _parse(text: str) -> Expr:
    """The Expr read from text by Python's parser, with '^' as the power.

    Characters outside the grammar, and '**', are refused first: Python would
    drop a '#' comment, fold look-alike letters and count offsets in bytes.
    `back` maps each offset of the parsed source to its character in text.
    A tree deeper than MAX_DEPTH is refused at its first node past that depth.
    The tree is then walked over the grammar's nodes; a constant that folds to
    a non-finite value is refused at its operator or function name."""
    bad = _OUTSIDE_GRAMMAR.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    stripped = text.lstrip()  # a leading space is an indent to Python
    pieces = ["**" if ch == "^" else " " if ch.isspace() else ch for ch in stripped]
    back = [i for i, p in enumerate(pieces, len(text) - len(stripped)) for _ in p]
    back.append(len(text))
    source = "".join(pieces)
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as err:  # offset 0 or past the end: the end of the text
        at = back[min((err.offset or 0) - 1, len(source))]
        found = repr(text[at]) if at < len(text) else "the end of the text"
        raise ParseError(f"{err.msg}, found {found}", at) from None

    stack = [(tree, 1)]
    while stack:  # by hand: Python's own walks would recurse
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", back[node.col_offset])
        stack.extend((child, depth + 1) for child in ast.iter_child_nodes(node)
                     if isinstance(child, ast.expr))

    def fold(offset, fn, *operands) -> Expr:
        try:
            return fn(*operands)
        except ArithmeticError as err:
            raise ParseError(str(err), back[offset]) from None

    def walk(node) -> Expr:
        start = node.col_offset
        if isinstance(node, ast.Constant):
            written = source[start:node.end_col_offset]
            value = float(written) if _DECIMAL.fullmatch(written) else math.inf
            if not math.isfinite(value):
                raise ParseError(f"bad number {written!r}", back[start])
            return _num(value)
        if isinstance(node, ast.Name):
            if node.id not in _VARS:
                raise ParseError(f"unknown identifier {node.id!r}", back[start])
            return _VARS[node.id]
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            return _UNARY[type(node.op)](walk(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            left, right = walk(node.left), node.right
            if isinstance(node.op, ast.Pow):
                literal = right.operand if isinstance(right, ast.UnaryOp) else right
                n = _value(walk(right)) if isinstance(literal, ast.Constant) else None
                if n is None or not n.is_integer():
                    raise ParseError("exponent must be an integer", back[right.col_offset])
                right = int(n)
            else:
                right = walk(right)
            gap = source[node.left.end_col_offset:node.right.col_offset]
            operator_at = node.left.end_col_offset + len(gap) - len(gap.lstrip(" )"))
            return fold(operator_at, _BINARY[type(node.op)], left, right)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCS and node.func.col_offset == start
                and len(node.args) == 1 and not node.keywords):
            return fold(start, _FUNCS[node.func.id], walk(node.args[0]))
        raise ParseError(f"{type(node).__name__} is not in the grammar", back[start])

    return walk(tree)


def _total_dx(expr: Expr) -> Expr:
    """Total x-derivative along solutions: z_k picks up z_{k+1}."""
    if expr.diff("z3") != _ZERO:
        raise ValueError("total x-derivative would need a fourth derivative slot")
    out = expr.diff("x")
    for k in range(3):
        out = out + _VARS[_Z_NAMES[k + 1]] * expr.diff(_Z_NAMES[k])
    return out


def _synthesize(expr: Expr, declared_form: str) -> Expr:
    if declared_form == "raw_f":
        return expr
    if declared_form == "dx_of_g":
        if expr.diff("z3") != _ZERO:
            raise ValueError("g may depend on z0, z1, z2 only")
        return _total_dx(expr)
    if declared_form == "hamiltonian_F":
        if expr.diff("z2") != _ZERO or expr.diff("z3") != _ZERO:
            raise ValueError("a Hamiltonian density may depend on z0, z1 only")
        return -_total_dx(expr.diff("z0")) + _total_dx(_total_dx(expr.diff("z1")))
    raise ValueError(f"unknown declared_form {declared_form!r}")


@dataclass(frozen=True)
class NonlinearitySpec:
    """A parsed nonlinearity and its strength epsilon.

    ``f`` is the synthesized expression actually entering the equation;
    ``source`` keeps the text that was parsed (g or F for derived forms).
    """

    f: Expr
    declared_form: str
    epsilon: float
    source: str = ""

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@lru_cache(maxsize=256)
def _z_partials(f: Expr) -> tuple[Expr, ...]:
    """(d f / d z0, ..., d f / d z3), shared by every spec with an equal f."""
    return tuple(f.diff(z) for z in _Z_NAMES)


def parse_nonlinearity(text: str, declared_form: str = "raw_f",
                       epsilon: float = 1e-3) -> NonlinearitySpec:
    f = _synthesize(_parse(text), declared_form)
    return NonlinearitySpec(f=f, declared_form=declared_form,
                            epsilon=epsilon, source=text)


BUILTINS = {
    "quasilinear_cubic": ("z0^2 * z3", "raw_f"),
    "hamiltonian_cubic": ("z1^3", "hamiltonian_F"),
    "fully_nonlinear_F": ("cos(phi_1 + x) * z3 + sin(phi_1 + x) * z0^3", "raw_f"),
}


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


def _finite(samples: np.ndarray, name: str) -> np.ndarray:
    bad = samples.size - np.count_nonzero(np.isfinite(samples))
    if bad:
        raise NonFiniteError(f"{name} is not finite at {bad} of {samples.size} grid nodes")
    return samples


def evaluate_f(spec: NonlinearitySpec, u: FourierField) -> FourierField:
    """f(phi, x, u, u_x, u_xx, u_xxx) sampled on the grid and re-truncated."""
    phis, xg = _grid_coords(u.trunc)
    samples = _finite(spec.f(xg, phis, _jet_on_grid(u)), "f")
    return analyze(u.trunc, samples)


def residual(spec: NonlinearitySpec, freq: Frequency, u: FourierField) -> FourierField:
    """F(u) = lambda omega_bar . d_phi u + u_xxx + epsilon f(phi, x, jet u)."""
    return omega_dphi(u, freq) + dx_pow(u, 3) + evaluate_f(spec, u) * spec.epsilon


def linearized_coefficients(spec: NonlinearitySpec, u: FourierField):
    """Fields a_i = epsilon * (d f / d z_i) along u, for i = 3, 2, 1, 0."""
    phis, xg = _grid_coords(u.trunc)
    z = _jet_on_grid(u)
    partials = _z_partials(spec.f)
    samples = np.stack([_finite(partials[k](xg, phis, z), f"d f/d z{k}")
                        for k in (3, 2, 1, 0)])
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


def structure_flags(spec: NonlinearitySpec) -> StructureFlags:
    """The structure of spec.f that selects the solver's projection.  It
    depends on neither epsilon nor lambda, so one result per (f, declared
    form) is computed and shared by every caller."""
    return _structure_flags(spec.f, spec.declared_form)


# both structure probes pass where f fails its identity by at most this
# fraction of the largest sample of f at the probe points
STRUCTURE_RTOL = 1e-10


@lru_cache(maxsize=64)
def _structure_flags(f: Expr, declared_form: str) -> StructureFlags:
    # reversibility: f(-phi, -x, z0, -z1, z2, -z3) = -f(phi, x, z0, z1, z2, z3)
    # at 64 fixed points, each drawn as (x, phi_1..phi_9, z0..z3)
    d = np.random.default_rng(0).random((64, 14)).T
    x, phi, z = 2 * np.pi * d[0], 2 * np.pi * d[1:10], 2 * d[10:] - 1
    samples = f(x, phi, z)
    flipped = f(-x, -phi, [z[0], -z[1], z[2], -z[3]])
    tol = STRUCTURE_RTOL * np.max(np.abs(samples))
    reversible = bool(np.all(np.abs(samples + flipped) <= tol))
    total_derivative = (declared_form in ("dx_of_g", "hamiltonian_F")
                        or _numeric_total_derivative(f))
    return StructureFlags(reversible=reversible, total_derivative=total_derivative)


def _numeric_total_derivative(f: Expr) -> bool:
    """Check that the x-average of f vanishes along random trigonometric u;
    an f that is not finite along them is not shown to be one."""
    trunc = Truncation(nu=1, n_phi=2, n_x=4)
    phis, xg = _grid_coords(trunc)
    for seed in range(3):
        u = random_real_field(trunc, np.random.default_rng(seed), decay=2.0, scale=0.3)
        samples = f(xg, phis, _jet_on_grid(u))
        if not np.all(np.isfinite(samples)):
            return False
        avg = x_average(analyze(trunc, samples))
        if np.max(np.abs(avg.c)) > STRUCTURE_RTOL * np.max(np.abs(samples)):
            return False
    return True
