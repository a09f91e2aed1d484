import re
import sys

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from test_cli import FORCING, NO_STRUCTURE, STEEP, TERMS, base_config, reversible_text
from test_regularize import builtin
from test_spectral import reality_defect, structure_check

from qpkdv import nonlin
from qpkdv.spectral import (
    FourierField,
    Frequency,
    Truncation,
    dx_pow,
    multiply,
    pointwise,
    random_real_field,
    sobolev_norm,
    x_average,
)

T = Truncation(1, 4, 6)
FREQ = Frequency.default(1, lam=1.2)

# the grammar's variables as real sympy symbols, in the order x, phi_1..phi_9,
# z0..z3 of the evaluators' arguments
SYMBOLS = {name: sp.Symbol(name, real=True)
           for name in ("x", *(f"phi_{k}" for k in range(1, 10)), "z0", "z1", "z2", "z3")}


def _sympy(expr):
    """sympy's reading of an expression's (or a text's) printed form."""
    return sp.sympify(str(expr), locals=SYMBOLS, convert_xor=True)


# ----------------------------------------------------------------- parsing


def test_parse_quasilinear_cubic():
    spec = nonlin.parse_nonlinearity("z0^2 * z3")
    z0, z3 = sp.Symbol("z0", real=True), sp.Symbol("z3", real=True)
    assert sp.simplify(_sympy(spec.f) - z0**2 * z3) == 0


def test_parse_unbalanced_paren_position():
    text = "cos(phi_1) * (1 + z1"
    with pytest.raises(nonlin.ParseError, match="never closed") as e:
        nonlin.parse_nonlinearity(text)
    assert e.value.position == text.rindex("(")  # the parenthesis left open


def test_parse_unknown_identifier():
    with pytest.raises(nonlin.ParseError, match="unknown identifier"):
        nonlin.parse_nonlinearity("z0 + bogus")


def test_parse_non_integer_exponent():
    with pytest.raises(nonlin.ParseError, match="integer"):
        nonlin.parse_nonlinearity("z0^1.5")


def test_parse_precedence_and_unary_minus():
    spec = nonlin.parse_nonlinearity("-z0 + 2*z1^2")
    z0, z1 = sp.Symbol("z0", real=True), sp.Symbol("z1", real=True)
    assert sp.simplify(_sympy(spec.f) - (-z0 + 2 * z1**2)) == 0


Z0, Z1, Z3, X, PHI1 = sp.symbols("z0 z1 z3 x phi_1", real=True)


@pytest.mark.parametrize("text, expected", [
    ("cos(phi_1)*sin(x) + -2*z3", sp.cos(PHI1) * sp.sin(X) - 2 * Z3),
    ("z0^2*z3 - -z3", Z0**2 * Z3 + Z3),
    ("cos(phi_1)*sin(x) * -z3", -sp.cos(PHI1) * sp.sin(X) * Z3),
    # a sign binds looser than '^' and tighter than '*' and '+'
    ("-z0^2", -(Z0**2)),
    ("-z0^2*z3", -(Z0**2) * Z3),
    ("z0^-2", Z0**-2),
    ("-2^2", sp.Integer(-4)),
    ("+-z0", -Z0),
    ("z0^2*(-z3)", -(Z0**2) * Z3),
])
def test_parse_sign_after_an_operator(text, expected):
    assert sp.simplify(_sympy(nonlin.parse_nonlinearity(text).f) - expected) == 0


def test_parse_rejects_an_operator_without_operand():
    with pytest.raises(nonlin.ParseError, match="invalid syntax") as e:
        nonlin.parse_nonlinearity("z0*/z1")
    assert e.value.position == 3


@pytest.mark.parametrize("text, operator, message", [
    ("cos(phi_1) * sin(x) + z0/0", "/", "division by zero"),
    ("0^-1*z0", "^", "division by zero"),
    ("z0/(1 - 1)", "/", "division by zero"),
    ("exp(1000)*z3", "exp", "a constant is not finite"),
    ("1e300*1e300*z3", "*", "a constant is not finite"),
])
def test_parse_refuses_a_constant_that_is_not_finite(text, operator, message):
    with pytest.raises(nonlin.ParseError, match=message) as e:
        nonlin.parse_nonlinearity(text)
    assert e.value.position == text.index(operator)


def test_parse_refuses_a_number_that_is_not_finite():
    with pytest.raises(nonlin.ParseError, match="bad number") as e:
        nonlin.parse_nonlinearity("z3 * 1e400")
    assert e.value.position == 5


@pytest.mark.parametrize("text, message, position", [
    # checked before Python reads the text: a comment, the power written
    # '**', and characters outside the grammar
    ("z0 # c\n + z1", "unexpected character '#'", 3),
    ("z0 ** 2", "unexpected character '*'", 4),
    ("sin(x, z0)", "unexpected character ','", 5),
    ("z0 % 2", "unexpected character '%'", 3),
    ("z0 * 'a'", "unexpected character \"'\"", 5),
    ("ｚ0 + z1", "unexpected character 'ｚ'", 0),
    # numbers that are not written in decimal
    ("z3 + 1_000*z0", "bad number '1_000'", 5),
    ("z3 + 0x10*z0", "bad number '0x10'", 5),
    ("z3 + 1j*z0", "bad number '1j'", 5),
    # Python syntax outside the grammar
    ("z0 and z1", "BoolOp is not in the grammar", 0),
    ("z0 + (sin)(z1)", "Call is not in the grammar", 5),
    ("z0^(1 + 1)", "exponent must be an integer", 4),
    # syntax errors, at their offset in the text: '^' is read as '**'
    ("z0 z1", "invalid syntax, found 'z'", 3),
    ("z0^2 z1", "invalid syntax, found 'z'", 5),
    ("", "invalid syntax, found the end of the text", 0),
    ("z0 +\n", "invalid syntax, found the end of the text", 5),
    ("cos(x) * (z0 + z1", "'(' was never closed, found '('", 9),
    ("(" * 300 + "z0" + ")" * 300, "too many nested parentheses, found '('", 200),
    # a tree past MAX_DEPTH levels, at its first node past them (here the 101st sign)
    ("-" * 1000 + "z0", "expression nested deeper than 100 levels", 100),
    # a non-finite fold, at its operator
    ("z0^2 + 2^-1/0", "division by zero", 11),
    ("z0 + 1e300 *\n 1e300", "a constant is not finite", 11),
])
def test_parse_refusals_name_their_offset(text, message, position):
    with pytest.raises(nonlin.ParseError, match=f"^{re.escape(message)} ") as e:
        nonlin.parse_nonlinearity(text)
    assert e.value.position == position


# texts of exactly MAX_DEPTH levels, one chain of each operator and of a function
DEEPEST = {
    "product": lambda d: "*".join(["z1"] * d),
    "quotient": lambda d: "/".join(["cos(z1)"] * (d - 1)),
    "sine": lambda d: "sin(" * (d - 1) + "z1" + ")" * (d - 1),
    "power": lambda d: "(" * (d - 2) + "cos(z1)" + "^-1)" * (d - 2),
    "sum": lambda d: " + ".join(["z1^3"] * (d - 1)),
}


@pytest.mark.parametrize("shape, form", [(shape, form) for shape in DEEPEST
                                         for form in ("raw_f", "dx_of_g")]
                         + [("sum", "hamiltonian_F")])
def test_deepest_accepted_text_runs(shape, form):
    # the structure probes, the z-derivatives and the residual of the deepest
    # accepted trees run at the default recursion limit, under the test
    # runner's own frames; one level more is refused.  (A Hamiltonian density
    # of 100 factors z1 runs too, but its derivatives take about 20 s.)
    assert sys.getrecursionlimit() == 1000
    text = DEEPEST[shape](nonlin.MAX_DEPTH)
    spec = nonlin.parse_nonlinearity(text, form)
    u = random_real_field(T, np.random.default_rng(2), scale=0.1)
    nonlin.structure_flags(spec)
    nonlin.linearized_coefficients(spec, u)
    nonlin.residual(spec, FREQ, u)
    with pytest.raises(nonlin.ParseError, match="nested deeper than"):
        nonlin.parse_nonlinearity(DEEPEST[shape](nonlin.MAX_DEPTH + 1), form)


_SPACE = st.sampled_from(["", " ", "  ", "\n", "\t ", " \n  "])


@st.composite
def grammar_text(draw, depth=2):
    """A text of expr = term (('+'|'-') term)*, term = unary (('*'|'/')
    unary)*, unary = ('+'|'-')* base ('^' signed integer)?, base = number |
    name | '(' expr ')' | func '(' expr ')', with random whitespace, newlines
    and redundant parentheses.  A function is not nested in another, so that
    no sine of a huge argument turns rounding into a disagreement."""
    def ws():
        return draw(_SPACE)

    def sequence(item, operators, d):
        out = item(d)
        for _ in range(draw(st.integers(0, 2))):
            out += ws() + draw(st.sampled_from(operators)) + ws() + item(d)
        return out

    def unary(d):
        out = "".join(draw(st.sampled_from("+-")) + ws() for _ in range(draw(st.integers(0, 2))))
        out += base(d)
        if draw(st.booleans()):
            sign = draw(st.sampled_from(["", "-", "+"]))
            out += ws() + "^" + ws() + sign + ws() + str(draw(st.integers(0, 3)))
        return out

    def base(d):
        kind = draw(st.integers(0, 3 if d > 0 else 1))
        if kind == 0:
            return draw(st.sampled_from(("x", "phi_1", "phi_2", "z0", "z1", "z2", "z3")))
        if kind == 1:
            return draw(st.sampled_from(("2", "0.5", ".25", "1.", "1.5e0", "2E-1")))
        if kind == 2:
            pairs = draw(st.integers(1, 2))
            return "(" * pairs + ws() + expr(d - 1) + ws() + ")" * pairs
        name = draw(st.sampled_from(("sin", "cos", "exp")))
        return name + ws() + "(" + ws() + expr(0) + ws() + ")"

    def term(d):
        return sequence(unary, "*/", d)

    def expr(d):
        return sequence(term, "+-", d)

    return ws() + expr(depth) + ws()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(text=grammar_text())
def test_parse_matches_sympy_on_drawn_grammar_texts(text):
    d = np.random.default_rng(0).uniform(-1, 1, (14, 64))
    x, phi, z = d[0], d[1:10], d[10:]
    ref = _sympy(" ".join(text.split()))  # sympy reads one line
    with np.errstate(all="ignore"):
        want = np.broadcast_to(sp.lambdify(list(SYMBOLS.values()), ref, "numpy")(x, *phi, *z),
                               x.shape)
    try:
        f = nonlin.parse_nonlinearity(text).f
    except nonlin.ParseError as err:
        # only a constant that folds to a non-finite value is refused
        assert not np.all(np.isfinite(want)), (text, str(err))
        return
    finite = np.isfinite(want)
    np.testing.assert_allclose(f(x, phi, z)[finite], want[finite], rtol=1e-9,
                               atol=1e-9 * np.max(np.abs(want[finite]), initial=0.0),
                               err_msg=repr(text))


def test_dx_of_g_chain_rule():
    spec = nonlin.parse_nonlinearity("z0^3", declared_form="dx_of_g")
    z0, z1 = sp.Symbol("z0", real=True), sp.Symbol("z1", real=True)
    assert sp.simplify(_sympy(spec.f) - 3 * z0**2 * z1) == 0


def test_hamiltonian_synthesis():
    spec = nonlin.parse_nonlinearity("z1^3", declared_form="hamiltonian_F")
    z1, z2, z3 = (sp.Symbol(f"z{k}", real=True) for k in (1, 2, 3))
    # f = -D_x(F_{z0}) + D_x^2(F_{z1}) with F = z1^3
    assert sp.simplify(_sympy(spec.f) - (6 * z2**2 + 6 * z1 * z3)) == 0


def test_builtin_registry():
    for name in ("quasilinear_cubic", "hamiltonian_cubic", "fully_nonlinear_F"):
        spec = builtin(name, epsilon=1e-3)
        assert spec.epsilon == 1e-3
    with pytest.raises(KeyError):
        builtin("nope")


def test_symbolic_derivative_matches_finite_difference():
    spec = nonlin.parse_nonlinearity("sin(x + phi_1) * z1 * exp(z0) + z3 / (2 + z2)")
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = np.array(rng.uniform(0, 2 * np.pi))
        phi = rng.uniform(0, 2 * np.pi, size=9)
        z = rng.uniform(-0.5, 0.5, size=4)
        for k in range(4):
            dfk = nonlin._z_partials(spec.f)[k](x, phi, z)
            h = 1e-6
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            fd = (spec.f(x, phi, zp) - spec.f(x, phi, zm)) / (2 * h)
            assert abs(dfk - fd) < 1e-8 * max(1.0, abs(dfk))


def _sympy_synthesis(text, declared_form):
    """f synthesized from text by sympy: the reference for `nonlin`'s own."""
    e = sp.expand(_sympy(text))
    x, z = SYMBOLS["x"], [SYMBOLS[f"z{k}"] for k in range(4)]

    def total_dx(g):
        return sp.expand(sp.diff(g, x) + sum(z[k + 1] * sp.diff(g, z[k]) for k in range(3)))

    if declared_form == "raw_f":
        return e
    if declared_form == "dx_of_g":
        return total_dx(e)
    return sp.expand(-total_dx(sp.diff(e, z[0])) + total_dx(total_dx(sp.diff(e, z[1]))))


def _assert_matches_sympy(text, declared_form="raw_f"):
    """f and its four z-partials against sympy.lambdify of the same text, at
    random points, to 1e-13 relative to the largest sample."""
    spec = nonlin.parse_nonlinearity(text, declared_form)
    ref = _sympy_synthesis(text, declared_form)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 2 * np.pi, 200)
    phi = rng.uniform(0, 2 * np.pi, (9, 200))
    z = rng.uniform(-1, 1, (4, 200))
    partials = [sp.diff(ref, SYMBOLS[f"z{k}"]) for k in range(4)]
    for ours, theirs in zip((spec.f, *nonlin._z_partials(spec.f)), (ref, *partials)):
        want = np.broadcast_to(sp.lambdify(list(SYMBOLS.values()), theirs, "numpy")(x, *phi, *z),
                               x.shape)
        got = ours(x, phi, z)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (text, theirs)
    return spec, ref


@pytest.mark.parametrize("text, declared_form", [
    *nonlin.BUILTINS.values(),
    (base_config("out")["nonlinearity"]["text"], "raw_f"),
    (NO_STRUCTURE["text"], "raw_f"),
    (STEEP["text"], "raw_f"),
    ("z0^3", "dx_of_g"),
    ("cos(x + phi_1) * z0^2 + exp(sin(x)) * z1 / (3 + cos(x))", "dx_of_g"),
    ("cos(x) * z1^2 + sin(phi_1 + x) * z0^3", "hamiltonian_F"),
    ("sin(x + phi_1) * z1 * exp(z0) + z3 / (2 + z2)", "raw_f"),
])
def test_evaluator_matches_sympy(text, declared_form):
    spec, ref = _assert_matches_sympy(text, declared_form)
    if declared_form != "raw_f":
        assert sp.simplify(_sympy(spec.f) - ref) == 0
    # the probed reversibility agrees with sympy's: f(-phi, -x, z0, -z1, z2, -z3) = -f
    flip = {s: -s for name, s in SYMBOLS.items() if name not in ("z0", "z2")}
    reversible = sp.simplify(ref.subs(flip, simultaneous=True) + ref) == 0
    assert nonlin.structure_flags(spec).reversible == reversible


@settings(max_examples=25, derandomize=True, deadline=None)
@given(forcing=FORCING, terms=TERMS)
def test_evaluator_matches_sympy_on_drawn_texts(forcing, terms):
    _assert_matches_sympy(reversible_text(forcing, terms))


def test_non_finite_f_is_a_named_failure():
    spec = nonlin.parse_nonlinearity("cos(phi_1) * sin(x) + z3/z0")
    zero = FourierField.zeros(T)
    nodes = int(np.prod(T.grid_shape))
    with pytest.raises(nonlin.NonFiniteError,
                       match=f"^f is not finite at {nodes} of {nodes} grid nodes$"):
        nonlin.evaluate_f(spec, zero)
    with pytest.raises(nonlin.NonFiniteError, match="^d f/d z3 is not finite at"):
        nonlin.linearized_coefficients(spec, zero)


# ---------------------------------------------------------------- residual


def test_residual_zero_field():
    spec = builtin("quasilinear_cubic")
    r = nonlin.residual(spec, FREQ, FourierField.zeros(T))
    assert np.max(np.abs(r.c)) == 0.0


# at u = 0: nothing of u is transformed, and what comes out is what the
# transforms give, bit for bit

def _general_jet(u):
    return list(nonlin.synthesize([dx_pow(u, k) for k in range(4)]))


def _general_linearization(spec, u):
    phis, xg = nonlin._grid_coords(u.trunc)
    partials = nonlin._z_partials(spec.f)
    samples = np.stack([partials[k](xg, phis, _general_jet(u)) for k in (3, 2, 1, 0)])
    return tuple(a * spec.epsilon for a in nonlin.analyze(u.trunc, samples))


def _no(name):
    def refuse(*args, **kwargs):
        pytest.fail(f"{name} was called")
    return refuse


def test_zero_jet_and_residual_are_the_synthesized_ones(monkeypatch):
    spec = builtin("fully_nonlinear_F")
    zero = FourierField.zeros(T)
    jet = _general_jet(zero)
    phis, xg = nonlin._grid_coords(T)
    expected = (nonlin.omega_dphi(zero, FREQ) + dx_pow(zero, 3)
                + nonlin.analyze(T, spec.f(xg, phis, jet)) * spec.epsilon)
    monkeypatch.setattr(nonlin, "synthesize", _no("synthesize"))
    got = nonlin._jet_on_grid(zero)
    assert len(got) == 4 and all(g.shape == T.grid_shape and np.array_equal(g, h)
                                 for g, h in zip(got, jet))
    assert np.array_equal(nonlin.residual(spec, FREQ, zero).c, expected.c)


@pytest.mark.parametrize("text, form, analyzed", [
    (*nonlin.BUILTINS["quasilinear_cubic"], False),  # every partial vanishes at u = 0
    (*nonlin.BUILTINS["fully_nonlinear_F"], True),  # d f/d z3 = cos(phi + x)
    ("30 * cos(phi_1) * sin(x) + sin(z3)", "raw_f", True),  # d f/d z3 = 1
], ids=["quasilinear_cubic", "fully_nonlinear_F", "sin_z3"])
def test_zero_field_linearization_is_the_analyzed_one(text, form, analyzed, monkeypatch):
    spec = nonlin.parse_nonlinearity(text, form, epsilon=1e-3)
    zero = FourierField.zeros(T)
    expected = _general_linearization(spec, zero)
    assert any(a.c.any() for a in expected) == analyzed
    calls = []
    monkeypatch.setattr(nonlin, "synthesize", _no("synthesize"))
    monkeypatch.setattr(nonlin, "analyze", lambda *a, _f=nonlin.analyze: calls.append(1) or _f(*a))
    got = nonlin.linearized_coefficients(spec, zero)
    assert len(calls) == analyzed
    assert len(got) == 4 and all(g.trunc == T and np.array_equal(g.c, h.c)
                                 for g, h in zip(got, expected))


def test_residual_airy_part():
    # with a phi-independent u, the residual at epsilon -> Airy limit is u_xxx
    spec = nonlin.parse_nonlinearity("z0^2 * z3", epsilon=1e-300)
    u = FourierField.from_modes(T, {(0, 1): 0.5})  # cos x
    r = nonlin.residual(spec, FREQ, u)
    expected = FourierField.from_modes(T, {(0, 1): 0.5 * (1j) ** 3})  # sin x
    assert np.max(np.abs(r.c - expected.c)) < 1e-14


def test_total_derivative_residual_has_zero_x_average():
    spec = nonlin.parse_nonlinearity("z0^3", declared_form="dx_of_g", epsilon=0.1)
    u = random_real_field(T, np.random.default_rng(1), decay=3.0, scale=0.2,
                          zero_total_average=True)
    f_only = nonlin.evaluate_f(spec, u)
    assert np.max(np.abs(x_average(f_only).c)) < 1e-12


def test_residual_real_for_real_u():
    spec = builtin("fully_nonlinear_F", epsilon=1e-2)
    u = random_real_field(T, np.random.default_rng(2), decay=3.0, scale=0.1)
    r = nonlin.residual(spec, FREQ, u)
    assert reality_defect(r) < 1e-12


# ------------------------------------------------------------ coefficients


def test_coefficients_quasilinear_cubic():
    eps = 1e-3
    spec = builtin("quasilinear_cubic", epsilon=eps)
    u = random_real_field(T, np.random.default_rng(3), decay=3.0, scale=0.3)
    a3, a2, a1, a0 = nonlin.linearized_coefficients(spec, u)
    u_sq = multiply(u, u) * eps
    assert np.max(np.abs(a3.c - u_sq.c)) < 1e-13
    assert np.max(np.abs(a2.c)) == 0.0
    assert np.max(np.abs(a1.c)) == 0.0
    expected_a0 = multiply(u, dx_pow(u, 3)) * (2 * eps)
    assert np.max(np.abs(a0.c - expected_a0.c)) < 1e-13


def test_coefficients_at_zero_field():
    spec = builtin("fully_nonlinear_F", epsilon=1e-2)
    a3, a2, a1, a0 = nonlin.linearized_coefficients(spec, FourierField.zeros(T))
    # d f / d z3 at z = 0 is cos(phi_1 + x): modes (1,1) and (-1,-1) at eps/2
    expect = FourierField.from_modes(T, {(1, 1): 0.5 * 1e-2})
    assert np.max(np.abs(a3.c - expect.c)) < 1e-14
    assert np.max(np.abs(a0.c)) < 1e-14


def _apply_linearized(spec, freq, u, h):
    """Directional derivative of the residual: L(u) h."""
    return nonlin.apply_L(nonlin.linearized_coefficients(spec, u), freq, h)


def test_jacobian_directional_ratio():
    from test_spectral import embed_field

    spec = builtin("quasilinear_cubic", epsilon=1e-2)
    rng = np.random.default_rng(4)
    # band-limit u and h so every product in the cubic stays representable
    sub = Truncation(1, 1, 2)
    u = embed_field(random_real_field(sub, rng, decay=3.0, scale=0.3), T)
    h = embed_field(random_real_field(sub, rng, decay=3.0, scale=1.0), T)
    s0 = T.s0

    def defect(t):
        up = FourierField(T, u.c + t * h.c)
        lin = _apply_linearized(spec, FREQ, u, FourierField(T, t * h.c))
        err = nonlin.residual(spec, FREQ, up) - nonlin.residual(spec, FREQ, u) - lin
        return sobolev_norm(err, s0)

    d1, d2 = defect(1e-3), defect(2e-3)
    assert 3.5 < d2 / d1 < 4.5  # quadratic remainder scales by 4


def test_linearization_maps_X_to_Y():
    spec = builtin("quasilinear_cubic", epsilon=1e-2)
    u = random_real_field(T, np.random.default_rng(5), decay=3.0, scale=0.3,
                          parity="X")
    h = random_real_field(T, np.random.default_rng(6), decay=3.0, scale=1.0,
                          parity="X")
    out = _apply_linearized(spec, FREQ, u, h)
    flags = structure_check(out, tol=1e-10)
    assert flags["in_Y"]


# ------------------------------------------------------------------- flags


def test_flags_quasilinear_cubic():
    flags = nonlin.structure_flags(builtin("quasilinear_cubic"))
    assert flags.reversible
    assert not flags.total_derivative


def test_flags_hamiltonian_alpha_two():
    flags = nonlin.structure_flags(builtin("hamiltonian_cubic"))
    assert flags.total_derivative and not flags.reversible


def test_flags_fully_nonlinear():
    flags = nonlin.structure_flags(builtin("fully_nonlinear_F"))
    assert flags.reversible


def test_flags_non_reversible():
    flags = nonlin.structure_flags(nonlin.parse_nonlinearity("z0^2"))
    assert not flags.reversible


@pytest.mark.parametrize("name", sorted(nonlin.BUILTINS))
def test_cached_flags_equal_uncached(name):
    spec = builtin(name)
    uncached = nonlin._structure_flags.__wrapped__(spec.f, spec.declared_form)
    assert nonlin.structure_flags(spec) == uncached


def test_a_text_is_parsed_once_per_declared_form(monkeypatch):
    text = "z0^2 + 0.25 * cos(phi_1) * z1"
    nonlin._parsed.cache_clear()
    parses = []
    monkeypatch.setattr(nonlin, "_parse", lambda t, _f=nonlin._parse: parses.append(t) or _f(t))
    a = nonlin.parse_nonlinearity(text, epsilon=1e-3)
    b = nonlin.parse_nonlinearity(text, epsilon=1e-5)
    assert a.f is b.f and (a.epsilon, b.epsilon) == (1e-3, 1e-5) and parses == [text]
    # the same text under another declared form is another f, with its own flags
    g = nonlin.parse_nonlinearity(text, "dx_of_g")
    assert parses == [text, text] and g.f is not a.f and g.f != a.f
    assert nonlin.structure_flags(g).total_derivative
    assert not nonlin.structure_flags(a).total_derivative
    assert nonlin.parse_nonlinearity(text, "dx_of_g").f is g.f and len(parses) == 2


def test_a_refused_text_is_refused_on_every_call(monkeypatch):
    parses = []
    monkeypatch.setattr(nonlin, "_parse", lambda t, _f=nonlin._parse: parses.append(t) or _f(t))
    for _ in range(3):
        with pytest.raises(nonlin.ParseError, match="never closed"):
            nonlin.parse_nonlinearity("cos(phi_1) * (1 + z3")
    assert len(parses) == 3
    for _ in range(2):  # a form the text does not fit is refused each time too
        with pytest.raises(ValueError, match="g may depend on z0, z1, z2 only"):
            nonlin.parse_nonlinearity("z3 + 0.5 * z0", "dx_of_g")
    assert len(parses) == 5


def test_specs_differing_in_epsilon_share_analysis():
    text = "cos(phi_1) * sin(x) + z0^2 * z3"
    a = nonlin.parse_nonlinearity(text, epsilon=1e-3)
    b = nonlin.parse_nonlinearity(text, epsilon=1e-5)
    assert nonlin.structure_flags(a) is nonlin.structure_flags(b)
    assert a.f == b.f
    assert nonlin._z_partials(a.f) is nonlin._z_partials(b.f)
    # the same f declared through its Hamiltonian density is analyzed apart
    ham = builtin("hamiltonian_cubic")
    raw = nonlin.NonlinearitySpec(f=ham.f, declared_form="raw_f", epsilon=1e-3)
    assert nonlin.structure_flags(ham) is not nonlin.structure_flags(raw)
    assert nonlin.structure_flags(ham) == nonlin.structure_flags(raw)
    phis, xg = nonlin._grid_coords(T)
    assert not xg.flags.writeable and not any(p.flags.writeable for p in phis)


@pytest.mark.parametrize("scale", ["1e-12", "1", "1e8"])
@pytest.mark.parametrize("text, reversible, total_derivative", [
    ("sin(phi_1)*z0*z1", False, True),  # sin(phi_1) d_x (z0^2 / 2)
    ("z0^2*z3", True, False),
    ("cos(phi_1) + z0^2", False, False),
])
def test_structure_flags_do_not_depend_on_the_scale_of_f(scale, text, reversible,
                                                          total_derivative):
    spec = nonlin.parse_nonlinearity(f"{scale}*({text})")
    assert nonlin.structure_flags(spec) == nonlin.StructureFlags(reversible, total_derivative)


def test_flags_total_derivative_detected_numerically():
    # f = 3 z0^2 z1 = d_x(z0^3) declared as raw_f: the numeric probe finds it
    flags = nonlin.structure_flags(nonlin.parse_nonlinearity("3 * z0^2 * z1"))
    assert flags.total_derivative
    flags2 = nonlin.structure_flags(nonlin.parse_nonlinearity("z0^2"))
    assert not flags2.total_derivative
