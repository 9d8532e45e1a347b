import json
from fractions import Fraction

import numpy as np
import pytest

from lgmirror import cli
from lgmirror import grouprep as gr
from lgmirror import jacobi as jb
from lgmirror import partitions as pt
from lgmirror import superpotential as sp
from lgmirror.scalars import EXACT, Laurent, QSqrt2, lift
from multistart import w_tilde_value
from test_weyl import monomial_sum, subwords

ring = EXACT


def frac(x):
    return ring.from_fraction(Fraction(x))


@pytest.mark.parametrize(
    "route", [sp.plucker_vector, sp.plucker_subword_vector, sp.laurent_numerator, gr.build_u2bar, gr.spin_row_sweep]
)
def test_wrong_coordinate_count_raises_one_error(route):
    """Every route from b checks its length against the canonical word of
    w^P, with the one message; `build_u2bar` takes b as its lift (D b, D)."""
    b = [1, 2, 3, 4, 5]
    b = lift(b) if route is gr.build_u2bar else sp.ring_vector(b, ring)
    with pytest.raises(ValueError, match=r"^need 6 coordinates for m=3, got 5$"):
        route(b, 3)


def test_plucker_values_m2():
    b = sp.ring_vector([1, 2, 3], ring)
    p = sp.plucker_vector(b, 2, ring)
    values = {lam.parts: v for lam, v in p.items()}
    assert values[()] == frac(1)
    assert values[(1,)] == frac(4)  # b1 + b3
    assert values[(2,)] == frac(6)  # b2 b3
    assert values[(2, 1)] == frac(6)  # b1 b2 b3


def test_plucker_subword_m2():
    b = sp.ring_vector([1, 2, 3], ring)
    p = sp.plucker_subword_vector(b, 2)
    assert p[pt.empty(2)] == frac(1)
    assert p[pt.partition((2,), 2)] == frac(6)
    assert p[pt.rho(2, 2)] == frac(6)


def test_spin_equals_subword_routes():
    """Over the variables b_k both routes give the same 2^m polynomials for
    m <= 6; for m <= 5 these give the spin route's values at 20 points."""
    for m in range(2, 7):
        n = m * (m + 1) // 2
        polys = sp.plucker_subword_vector(Laurent.variables(n), m)
        assert sp.plucker_vector(Laurent.variables(n), m) == polys, m
        stream = cli.rational_stream(70 + m)
        for _ in range(20 if m <= 5 else 0):
            b = cli.sample_b(m, stream)
            assert {lam: monomial_sum(subwords(p, n), b) for lam, p in polys.items()} == sp.plucker_vector(b, m)


def test_denominator_and_numerator_m2():
    b = sp.ring_vector([1, 2, 3], ring)
    p = sp.plucker_vector(b, 2, ring)
    assert sp.eval_denominator(1, p, 2, ring) == frac(18)
    assert sp.eval_numerator(1, p, 2, ring) == frac(36)


def test_eval_W_m2_frozen_value():
    b = sp.ring_vector([1, 2, 3], ring)
    p = sp.plucker_vector(b, 2, ring)
    assert sp.eval_W(frac(1), p, 2, ring) == frac(Fraction(20, 3))
    assert sp.eval_W_tilde(frac(1), b, 2) == frac(Fraction(20, 3))
    # q = 0 kills the last term: value = 4 + 2
    assert sp.eval_W(frac(0), p, 2, ring) == frac(6)
    assert sp.eval_W_tilde(frac(0), b, 2) == frac(6)


def test_divisor_error():
    m = 2
    b = sp.ring_vector([1, 0, 3], ring)
    with pytest.raises(sp.DivisorError):
        sp.eval_W(frac(1), sp.plucker_vector(b, m, ring), m, ring)
    with pytest.raises(ZeroDivisionError):
        sp.eval_W_tilde(frac(1), b, m)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_every_divisor_is_a_monomial_on_the_torus_chart(m):
    """Each D_l(u2bar(b)) is one monomial in b with coefficient 1, D_0 = 1 and
    D_m = b_1...b_N: a point with no zero coordinate lies off every divisor."""
    n = m * (m + 1) // 2
    p = sp.plucker_subword_vector(Laurent.variables(n), m)
    monomials = []
    for l in range(len(sp.symbolic_W(m))):
        den = Laurent({(0,) * n: 1}) * sp.eval_denominator(l, p, m)  # D_0 is the int 1
        assert list(den.coeffs.values()) == [1], (m, den.coeffs)
        monomials.append(next(iter(den.coeffs)))
    assert monomials[0] == (0,) * n and monomials[-1] == (1,) * n


def test_laurent_numerator_m2():
    b = sp.ring_vector([1, 2, 3], ring)
    assert sp.laurent_numerator(b, 2) == frac(4)  # b1 + b3


@pytest.mark.parametrize("m", range(2, 9))
def test_laurent_numerator_is_the_subword_route_at_the_staircase(m):
    """The programme pruned to rho_{m-1} gives the subword route's entry there."""
    b = sp.ring_vector(cli.sample_b(m, cli.rational_stream(20 + m)), ring)
    assert sp.laurent_numerator(b, m) == sp.plucker_subword_vector(b, m)[pt.rho(m - 1, m)]


def test_theorem_w_exact():
    for m in (2, 3, 4):
        stream = cli.rational_stream(41)
        for k in range(5):
            point = lift(cli.sample_b(m, stream))
            q = Fraction(2 * k + 1, k + 2)
            rep = sp.verify_theorem_w(m, q, point, sp.plucker_vector(point[0], m))
            assert rep.ok, rep.detail


def test_w_term_matches_f_coefficients():
    """Middle term l of W equals f_{m-l}*(u2bar); term 0 equals f_m*."""
    for m in (2, 3, 4):
        stream = cli.rational_stream(43)
        for _ in range(3):
            bs = cli.sample_b(m, stream)
            b = sp.ring_vector(bs, ring)
            u2 = gr.build_u2bar(lift(bs), m)
            p = sp.plucker_vector(b, m, ring)
            assert gr.extract_f_coeff(u2, m) == p[pt.rho_plus(0, m)] / p[pt.empty(m)]
            for l in range(1, m):
                fl = ring.from_fraction(gr.extract_f_coeff(u2, m - l))
                assert fl * sp.eval_denominator(l, p, m, ring) == sp.eval_numerator(l, p, m, ring)


def test_sym_to_minor_exact():
    for m in (2, 3, 4):
        stream = cli.rational_stream(47)
        for _ in range(3):
            bs = cli.sample_b(m, stream)
            p, u2 = sp.plucker_vector(lift(bs)[0], m), gr.build_u2bar(lift(bs), m)
            reports = sp.verify_sym_to_minors(m, p, u2)
            assert [j for j, _ in reports] == list(range(2, m + 1))
            for j, rep in reports:
                assert rep.ok, (m, j, rep.detail)


def test_minor_sums_have_the_degree_of_their_windows(monkeypatch):
    """For m = 2..14 each sum of `verify minors` has the degree of its
    window's power of D, (m+1)(m+1-j) for D_(j) and one more for N_(j), so
    the suite compares them as integers with no power of D between; a
    window power off by one raises ArithmeticError."""
    for m in range(2, 15):
        sums = sp._minor_sums(m)
        assert [j for j, _ in sums] == list(range(2, m + 1))
        for j, ((den, e), (num, f)) in sums:
            assert sp._degree(den) == e == (m + 1) * (m + 1 - j) and sp._degree(num) == f == e + 1, (m, j)
    monkeypatch.setattr(gr, "window_power", lambda m, j: (m + 1) * (m + 1 - j) + 1)
    sp._minor_sums.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="not the degree of its minor"):
            sp._minor_sums(4)
    finally:
        sp._minor_sums.cache_clear()


def test_sym_to_minor_frozen_m2():
    ((j, rep),) = sp.verify_sym_to_minors(2, sp.plucker_vector([1, 2, 3], 2), gr.build_u2bar(lift([1, 2, 3]), 2))
    assert j == 2 and rep.ok
    ones = sp.ring_vector([1, 1, 1], ring)
    p = sp.plucker_vector(ones, 2, ring)
    assert sp.eval_denominator(1, p, 2, ring) == frac(1)  # b2 b3^2 at b = 1


def test_fj_minors_exact():
    for m in (2, 3, 4):
        stream = cli.rational_stream(53)
        for _ in range(3):
            bs = cli.sample_b(m, stream)
            u2 = gr.build_u2bar(lift(bs), m)
            reports = sp.verify_fj_minors(m, u2)
            assert [j for j, _ in reports] == list(range(1, m))
            for j, rep in reports:
                assert rep.ok, (m, j, rep.detail)


def test_em_formula_exact():
    for m in (2, 3, 4):
        stream = cli.rational_stream(59)
        for _ in range(3):
            point = lift(cli.sample_b(m, stream))
            rep = sp.verify_em_formula(m, point, sp.plucker_vector(point[0], m))
            assert rep.ok, (m, rep.detail)
    ones = sp.ring_vector([1] * 6, ring)
    p = sp.plucker_vector(ones, 3, ring)
    assert sp.laurent_numerator(ones, 3) == p[pt.rho(2, 3)]


def test_theorem_w_and_em_read_the_given_pluecker_vector():
    """`p` is the check's Pluecker vector: the right one passes, another fails."""
    m = 3
    point = lift([1, 2, 3, -1, 2, 5])
    q = Fraction(3, 2)
    p, wrong = sp.plucker_vector(point[0], m), sp.plucker_vector([2, 1, 1, 3, -2, 1], m)
    assert sp.verify_theorem_w(m, q, point, p).ok
    assert not sp.verify_theorem_w(m, q, point, wrong).ok
    assert sp.verify_em_formula(m, point, p).ok
    assert not sp.verify_em_formula(m, point, wrong).ok


def test_theorem_w_raises_on_values_that_are_not_exact(monkeypatch):
    """With `/` in place of `_ratio`, W and W-tilde at the lift are floats,
    which could round two different values alike: the check raises
    TypeError rather than compare them."""
    m, q = 3, Fraction(3, 2)
    point = lift(cli.sample_b(m, cli.rational_stream(5)))
    p = sp.plucker_vector(point[0], m)
    assert sp.verify_theorem_w(m, q, point, p).ok
    monkeypatch.setattr(sp, "_ratio", lambda num, den: num / den)
    with pytest.raises(TypeError, match="must be exact, got float and float"):
        sp.verify_theorem_w(m, q, point, p)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_integer_route_agrees_with_the_sqrt2_route(m):
    """At seeded rational b and q, with (a, D) the lift of b: the spin and
    subword routes at a are ints D^|lambda| p_lambda(b), N(a) = D^(N-m) N(b),
    and W(p(a); D^(m+1) q) and W-tilde(a; D^(m+1) q) are Fractions equal to D
    times W and W-tilde at (b, q), with p(b), N(b), W and W-tilde taken in
    Q(sqrt2).  On the Fractions b themselves the routes agree too."""
    stream = cli.rational_stream(80 + m)
    n = m * (m + 1) // 2
    lifts = 0
    for k in range(4):
        b = cli.sample_b(m, stream)
        q = Fraction(2 * k + 1, k + 2)
        a, d = lift(b)
        lifts += d > 1
        assert all(type(x) is int for x in a) and [Fraction(x, d) for x in a] == b
        bq = sp.ring_vector(b, ring)
        for route in (sp.plucker_vector, sp.plucker_subword_vector):
            exact, graded, rational = route(bq, m), route(a, m), route(b, m)
            for lam in pt.all_strict_partitions(m):
                assert type(graded[lam]) is int, (m, route.__name__, lam)
                assert exact[lam] == Fraction(graded[lam], d**lam.size) == rational[lam], (m, route.__name__, lam)
        assert sp.laurent_numerator(a, m) * d**m == sp.laurent_numerator(bq, m) * d**n
        p_exact, p_graded = sp.plucker_vector(bq, m), sp.plucker_vector(a, m)
        qd = q * d ** (m + 1)
        for got, want in (
            (sp.eval_W(qd, p_graded, m), sp.eval_W(frac(q), p_exact, m)),
            (sp.eval_W_tilde(qd, a, m), sp.eval_W_tilde(frac(q), bq, m)),
        ):
            assert type(got) is Fraction and got == frac(d) * want, (m, b, q)
        assert sp.eval_W(q, sp.plucker_vector(b, m), m) == sp.eval_W_tilde(q, b, m) == sp.eval_W(frac(q), p_exact, m)
    assert lifts, "every draw was an integer point"


def test_subword_count_equals_plucker_at_ones():
    for m in (2, 3, 4):
        n = m * (m + 1) // 2
        ones = sp.ring_vector([1] * n, ring)
        symbolic = sp.plucker_subword_vector(Laurent.variables(n), m)
        p = sp.plucker_vector(ones, m, ring)
        for lam in pt.all_strict_partitions(m):
            assert p[lam] == frac(len(subwords(symbolic[lam], n)))


def test_numeric_w_tilde_matches_exact():
    """The numpy W-tilde of the test oracle, whose values spectrum_seeds
    reproduces bit for bit (test_jacobi), equals the exact Laurent form to
    1e-12 relative, at seeded rational points."""
    for m in (2, 3, 4, 5):
        mask = jb.torus_monomials(m)
        stream = cli.rational_stream(60 + m)
        for _ in range(3):
            bs = cli.sample_b(m, stream)
            b = sp.ring_vector(bs, ring)
            for q in (Fraction(1), Fraction(7, 3)):
                exact = sp.eval_W_tilde(frac(q), b, m).to_float()
                numeric = w_tilde_value(np.array([complex(x) for x in bs]), complex(q), mask)
                assert abs(numeric - exact) <= 1e-12 * abs(exact), (m, bs, q)


# -- the symbolic form ---------------------------------------------------------


def test_symbolic_text_m2():
    assert (
        sp.render_text(sp.symbolic_W(2))
        == "p[1]/p[] + p[2]^2/(p[1]p[2] - p[]p[2,1]) + q*p[1]/p[2,1]"
    )


def test_symbolic_text_m3():
    assert sp.render_text(sp.symbolic_W(3)) == (
        "p[1]/p[] + (p[2]p[3] - p[]p[3,2])/(p[1]p[3] - p[]p[3,1])"
        " + (p[3,1]p[3,2] - p[3]p[3,2,1])/(p[2,1]p[3,2] - p[2]p[3,2,1])"
        " + q*p[2,1]/p[3,2,1]"
    )


def test_symbolic_term_count_and_degrees():
    for m in (2, 3, 4, 5):
        terms = sp.symbolic_W(m)
        assert len(terms) == m + 1
        assert terms[-1].q_power == 1 and all(t.q_power == 0 for t in terms[:-1])
        # denominator degrees add up to the index 2m of the mirror space
        degrees = [len(t.denominator[0][1]) for t in terms]
        assert degrees[0] == 1 and degrees[-1] == 1
        assert all(d == 2 for d in degrees[1:-1])
        assert sum(degrees) == 2 * m


def test_symbolic_w_raises_on_a_term_off_the_grading(monkeypatch):
    """The lift to integers needs every sum of W homogeneous and each term
    of degree 1 (1 - (m+1) for the q-term): a mixed sum, or a term of the
    wrong degree, raises on building."""
    build = sp.symbolic_W.__wrapped__
    assert build(3) == sp.symbolic_W(3)
    numerator_terms = pt.numerator_terms

    def mixed(l, m):
        terms = numerator_terms(l, m)
        sign, a, bb = terms[0]
        return terms + [(sign, pt.empty(m), bb)]

    monkeypatch.setattr(pt, "numerator_terms", mixed)
    with pytest.raises(ArithmeticError, match="mixes products of sizes"):
        build(3)
    # each middle term its numerator over itself: homogeneous sums, degree 0
    monkeypatch.setattr(pt, "numerator_terms", numerator_terms)
    monkeypatch.setattr(pt, "denominator_terms", numerator_terms)
    with pytest.raises(ArithmeticError, match="wrong degree"):
        build(3)


def test_symbolic_json():
    payload = sp.render_json_terms(sp.symbolic_W(2))
    assert len(payload) == 3
    assert payload[0] == {"num": [{"sign": 1, "factors": [[1]]}], "den": [{"sign": 1, "factors": [[]]}], "q_power": 0}
    assert payload[1]["den"] == [
        {"sign": 1, "factors": [[1], [2]]},
        {"sign": -1, "factors": [[], [2, 1]]},
    ]
    json.dumps(payload)  # serializable


def test_symbolic_latex_structure():
    tex = sp.render_latex(sp.symbolic_W(2))
    assert tex.count("\\frac") == 3
    assert "p_{\\emptyset}" in tex and "q\\," in tex


def _json_sum(items, p):
    total = Fraction(0)
    for item in items:
        prod = Fraction(1)
        for parts in item["factors"]:
            prod *= p[tuple(parts)]
        total += item["sign"] * prod
    return total


def _on_divisor(terms, l, p):
    """p moved onto the denominator of term l, off those of the terms before
    it, by solving for one factor that enters it linearly; None if no factor
    does at this p."""
    factors = sorted({tuple(parts) for item in terms[l]["den"] for parts in item["factors"]})
    for x in factors:
        den = {t: _json_sum(terms[l]["den"], {**p, x: Fraction(t)}) for t in (-1, 0, 1)}
        slope, curve = (den[1] - den[-1]) / 2, (den[1] + den[-1]) / 2 - den[0]
        if curve or not slope:
            continue
        moved = {**p, x: -den[0] / slope}
        if _json_sum(terms[l]["den"], moved) == 0 and all(_json_sum(t["den"], moved) for t in terms[:l]):
            return moved
    return None


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_printed_w_is_the_evaluated_w(capsys, m):
    """The terms of `print-w --format json`, evaluated in Fractions at seeded
    rational points, equal eval_W there; a point on the denominator of term l
    (and off those before it) makes eval_W raise DivisorError(l)."""
    assert cli.main(["print-w", "--m", str(m), "--format", "json"]) == 0
    terms = json.loads(capsys.readouterr().out)["terms"]
    assert len(terms) == m + 1
    basis = pt.all_strict_partitions(m)
    stream = cli.rational_stream(61 + m)
    q = Fraction(7, 3)

    def exact(p):
        return {lam: QSqrt2.from_fraction(p[lam.parts]) for lam in basis}

    checked = 0
    for _ in range(6):
        p = {lam.parts: next(stream) for lam in basis}
        dens = [_json_sum(t["den"], p) for t in terms]
        if not all(dens):
            continue
        printed = sum(q ** t["q_power"] * _json_sum(t["num"], p) / den for t, den in zip(terms, dens))
        assert sp.eval_W(QSqrt2.from_fraction(q), exact(p), m) == printed
        checked += 1
    assert checked >= 5
    for l in range(m + 1):
        draws = (_on_divisor(terms, l, {lam.parts: next(stream) for lam in basis}) for _ in range(10))
        moved = next((p for p in draws if p is not None), None)
        assert moved is not None, f"no point found on D_{l}"
        with pytest.raises(sp.DivisorError) as exc:
            sp.eval_W(QSqrt2.from_fraction(q), exact(moved), m)
        assert exc.value.l == l
