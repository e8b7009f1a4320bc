"""Tests for bracket construction and verification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pba.poly import Poly, X, Y, Z
from pba.triples import (
    NotCoprimeError,
    NotPoissonError,
    PoissonTriple,
    PolyVec,
    bracket,
    compatible,
    compatible_m_exact,
    cross,
    curl,
    cycle_variables,
    dot,
    ensure_verified,
    exact_triple,
    generates_poisson_ideal,
    grad,
    hamiltonian,
    is_poisson_central,
    is_poisson_triple,
    jacobi_witness,
    jacobian_det,
    jacobiator,
    m_exact_triple,
    qm_exact_triple,
    translate_variables,
    verify_triple,
)

# the rotational bracket: gradient of (x^2+y^2+z^2)/2
ROT = PolyVec(X, Y, Z)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(monos, coeffs, max_size=4).map(Poly)
vecs = st.tuples(polys, polys, polys).map(lambda t: PolyVec(*t))
halves = st.integers(-6, 6).map(lambda n: Fraction(n, 2))


def test_vector_calculus_pins():
    assert grad(X**2 * Y) == PolyVec(2 * X * Y, X**2, Poly.zero())
    assert dot(ROT, ROT) == X**2 + Y**2 + Z**2
    # curl of a gradient vanishes
    assert curl(grad(X**3 * Y * Z + Z**2)).is_zero()
    # cross of a vector with itself vanishes
    assert cross(ROT, ROT).is_zero()


def test_jacobian_det_pins():
    assert jacobian_det(X, Y, Z) == 1
    assert jacobian_det(Y, X, Z) == -1
    assert jacobian_det(X, Y, X * Y).is_zero()
    assert jacobian_det(X**2, Y, Z) == 2 * X


@given(polys, polys)
@settings(max_examples=30)
def test_curl_of_gradient_vanishes(a, b):
    assert curl(grad(a * b)).is_zero()


@given(vecs, polys)
@settings(max_examples=30)
def test_curl_of_scaled_field(F, g):
    # curl(gF) = g*curl(F) - F x grad(g)
    lhs = curl(F.scale(g))
    rhs = curl(F).scale(g) - cross(F, grad(g))
    assert (lhs - rhs).is_zero()


def test_jacobi_witness_pins():
    assert jacobi_witness(ROT).is_zero()
    w = jacobi_witness(PolyVec(Y, Z, X))
    assert str(w) == "-x - y - z"


def test_is_poisson_triple():
    assert is_poisson_triple(ROT)
    assert is_poisson_triple(PolyVec(Y, -X, Poly.zero()))
    assert not is_poisson_triple(PolyVec(Y, Z, X))


def test_verify_triple():
    T = verify_triple(ROT)
    assert isinstance(T, PoissonTriple)
    assert is_poisson_triple(T)
    with pytest.raises(NotPoissonError) as info:
        verify_triple(PolyVec(Y, Z, X))
    assert str(info.value.witness) == "-x - y - z"


def test_bracket_pins():
    # {x,y} = z, {y,z} = x, {z,x} = y
    assert bracket(ROT, X, Y) == Z
    assert bracket(ROT, Y, Z) == X
    assert bracket(ROT, Z, X) == Y
    assert bracket(ROT, X, X).is_zero()
    # antisymmetry
    assert bracket(ROT, Y, X) == -Z


@given(polys, polys, polys)
@settings(max_examples=30)
def test_bracket_is_a_biderivation(a, b, c):
    F = ROT
    assert bracket(F, a * b, c) == a * bracket(F, b, c) + b * bracket(F, a, c)
    assert bracket(F, a, b) == -bracket(F, b, a)


@given(polys, polys, polys)
@settings(max_examples=15)
def test_jacobiator_vanishes_for_poisson(a, b, c):
    assert jacobiator(ROT, a, b, c).is_zero()


def test_jacobiator_detects_failure():
    bad = PolyVec(Y, Z, X)
    assert not jacobiator(bad, X, Y, Z).is_zero()


def test_hamiltonian_pins():
    H = hamiltonian(ROT, X)
    assert H == PolyVec(Poly.zero(), Z, -Y)
    # (x,y,z) is the gradient of (x^2+y^2+z^2)/2, which is central
    casimir = X**2 + Y**2 + Z**2
    assert hamiltonian(ROT, casimir).is_zero()
    assert is_poisson_central(ROT, casimir)
    assert not is_poisson_central(ROT, X)
    # the sl2 bracket proper: qm_exact(1/2*z^2 - 2*x*y, 1)
    sl2 = qm_exact_triple(Z**2 / 2 - 2 * X * Y, Poly.one())
    assert is_poisson_central(sl2, X * Y - Z**2 / 4)


def test_exact_family_constructors():
    s = X + 2 * Y + 3 * Z
    assert exact_triple(s).f == 1
    assert is_poisson_central(exact_triple(s), s)
    T = m_exact_triple(X, Y)
    assert (T.f, T.g, T.h) == (Poly.zero(), X, Poly.zero())
    Q = qm_exact_triple(X, Y)
    assert (Q.f, Q.g, Q.h) == (Y, -X, Poly.zero())


def test_qm_exact_requires_coprime():
    with pytest.raises(NotCoprimeError) as info:
        qm_exact_triple(X * Y, X * Z)
    assert info.value.common_factor == X
    with pytest.raises(ValueError):
        qm_exact_triple(Poly.zero(), X)


def test_qm_exact_antisymmetry_and_specialization():
    s, t = X**2 + Y, Z + 1
    F, G = qm_exact_triple(s, t), qm_exact_triple(t, s)
    assert (F.f + G.f).is_zero()
    assert (F.g + G.g).is_zero()
    assert (F.h + G.h).is_zero()
    assert qm_exact_triple(s, Poly.one()).f == grad(s).f


@given(polys, polys)
@settings(max_examples=30)
def test_qm_exact_is_poisson(s, t):
    if s.is_zero() or t.is_zero():
        return
    try:
        F = qm_exact_triple(s, t)
    except NotCoprimeError:
        return
    assert jacobi_witness(F).is_zero()
    # s and t each generate a Poisson ideal, and the pencil identity holds
    assert generates_poisson_ideal(F, s)
    assert generates_poisson_ideal(F, t)
    for w in (X, Y, Z):
        lhs = t * bracket(F, w, s) - s * bracket(F, w, t)
        assert lhs.is_zero()


def test_compatible():
    F = exact_triple(X * Y)
    G = exact_triple(X + Y)
    assert compatible(F, G) == compatible_m_exact(Poly.one(), X * Y, Poly.one(), X + Y)
    # a non-Poisson member is never compatible
    assert not compatible(PolyVec(Y, Z, X), ROT)


@given(polys, polys, polys, polys)
@settings(max_examples=20)
def test_compatible_m_exact_matches_general(c, a, d, b):
    if c.is_zero() or d.is_zero():
        return
    F, G = grad(a).scale(c), grad(b).scale(d)
    want = dot(F, curl(G)) + dot(G, curl(F))
    assert compatible_m_exact(c, a, d, b) == want.is_zero()


def test_generates_poisson_ideal():
    # x generates a Poisson ideal for qm_exact(x, y); y does too
    F = qm_exact_triple(X, Y)
    assert generates_poisson_ideal(F, X)
    assert generates_poisson_ideal(F, Y)
    assert generates_poisson_ideal(F, X + Y)
    assert not generates_poisson_ideal(ROT, X)
    with pytest.raises(ValueError):
        generates_poisson_ideal(ROT, Poly.zero())


def test_cycle_variables():
    # (x, y, z) is symmetric under the cycle
    T = cycle_variables(verify_triple(ROT))
    assert (T.f, T.g, T.h) == (X, Y, Z)
    F = verify_triple(PolyVec(Poly.zero(), Z - 7, Poly.zero()))
    # one cycle moves the g-component into the f slot
    G = cycle_variables(F)
    assert not G.f.is_zero() and G.g.is_zero() and G.h.is_zero()
    # three cycles restore the original
    H = cycle_variables(cycle_variables(G))
    assert (H.f, H.g, H.h) == (F.f, F.g, F.h)


def test_cycle_variables_keeps_the_type():
    # a plain vector stays a plain vector; a Poisson triple stays one
    v = PolyVec(X, Poly.zero(), Poly.zero())
    assert type(cycle_variables(v)) is PolyVec
    assert cycle_variables(v) == PolyVec(Poly.zero(), Poly.zero(), Z)
    T = qm_exact_triple(X, Y + 1)
    C = cycle_variables(T)
    assert type(C) is PoissonTriple
    assert is_poisson_triple(C)


def test_ensure_verified():
    T = verify_triple(ROT)
    assert ensure_verified(T) is T
    V = ensure_verified(ROT)
    assert type(V) is PoissonTriple
    assert (V.f, V.g, V.h) == (X, Y, Z)
    with pytest.raises(NotPoissonError) as info:
        ensure_verified(PolyVec(Y, Z, X))
    assert str(info.value.witness) == "-x - y - z"


@given(vecs)
@settings(max_examples=30)
def test_cycle_preserves_poisson(F):
    if not is_poisson_triple(F):
        return
    assert jacobi_witness(cycle_variables(verify_triple(F))).is_zero()


@given(vecs, st.tuples(polys, polys), st.tuples(halves, halves, halves))
@settings(max_examples=30)
def test_translate_moves_the_witness(F, ba, p):
    # a shift commutes with d/dx, d/dy, d/dz: the moved triple's witness
    # is the witness moved, Poisson or not, and the type is kept
    moved = translate_variables(F, p)
    assert type(moved) is PolyVec
    assert jacobi_witness(moved) == jacobi_witness(F).translate(p)
    assert translate_variables(moved, tuple(-c for c in p)) == F
    T = translate_variables(m_exact_triple(*ba), p)
    assert type(T) is PoissonTriple
    assert jacobi_witness(T).is_zero()
