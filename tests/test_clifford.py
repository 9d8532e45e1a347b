import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

import weylgroup as wg
from displays import expected_clifford_image, expected_iota_image, expected_middle_wedge
from lgmirror import clifford as cl
from lgmirror import partitions as pt
from lgmirror.clifford import Subset, _normalize, pairing
from lgmirror.scalars import QS2_ONE, QSqrt2


def scalar(c, m):
    return cl.cl_monomial((), m, c)


def parity_part(x, parity):
    return cl.CliffordElement(x.m, {k: v for k, v in x.coeffs.items() if len(k) % 2 == parity})


def rand_qs2(rng, span=3):
    return QSqrt2(Fraction(rng.randint(-span, span)), Fraction(rng.randint(-1, 1)))


def rand_clifford(rng, m, parity=None, terms=4):
    keys = [
        k
        for r in range(2 * m + 2)
        for k in combinations(range(1, 2 * m + 2), r)
        if parity is None or r % 2 == parity
    ]
    x = cl.CliffordElement(m)
    for k in rng.sample(keys, min(terms, len(keys))):
        x.add_term(k, rand_qs2(rng))
    return x


def rand_exterior(rng, m, terms=4, parity=None):
    keys = [
        k
        for r in range(2 * m + 2)
        for k in combinations(range(1, 2 * m + 2), r)
        if parity is None or r % 2 == parity
    ]
    x = cl.ExteriorElement(m)
    for k in rng.sample(keys, terms):
        x.add_term(k, rand_qs2(rng))
    return x


def rand_sym_square(rng, m, terms=3):
    subsets = pt.all_subsets(m)
    x = cl.SymSquare(m)
    for _ in range(terms):
        x.add_term((rng.choice(subsets), rng.choice(subsets)), rand_qs2(rng))
    return x


@pytest.mark.parametrize(
    "x",
    [
        cl.cl_monomial((1, 7), 3),
        cl.wedge_monomial((2, 1), 3),
        cl.basis_vector((1,), 3),
        cl.end_identity(3),
        cl.sym_pair(pt.empty(3), pt.rho(1, 3)),
    ],
    ids=lambda x: type(x).__name__,
)
def test_scale_by_zero_is_the_empty_element(x):
    assert x.coeffs
    assert x.scale(QSqrt2(0)) == type(x)(x.m)


# -- generators and relations --------------------------------------------------


def test_epsilon():
    for m in (2, 3, 4):
        assert cl.epsilon(m, m) == -1
        assert cl.epsilon(m - 1, m) == 1
        for i in range(1, 2 * m + 2):
            assert cl.epsilon(i, m) ** 2 == 1
            assert cl.epsilon(2 * m + 2 - i, m) == cl.epsilon(i, m)


def test_defining_relations():
    for m in (2, 3):
        for i in range(1, m + 1):
            vi = cl.cl_monomial((i,), m)
            vbi = cl.cl_monomial((cl.bar(i, m),), m)
            anti = cl.clifford_mul(vi, vbi) + cl.clifford_mul(vbi, vi)
            assert anti == scalar(QSqrt2(cl.epsilon(i, m)), m)
        mid = cl.cl_monomial((m + 1,), m)
        assert cl.clifford_mul(mid, mid) == scalar(QSqrt2(Fraction(1, 2)), m)
        v1, v2 = cl.cl_monomial((1,), m), cl.cl_monomial((2,), m)
        assert cl.clifford_mul(v1, v2) == cl.clifford_mul(v2, v1).scale(QSqrt2(-1))


def test_clifford_mul_associative():
    rng = random.Random(1)
    m = 2
    for _ in range(5):
        x, y, z = (rand_clifford(rng, m) for _ in range(3))
        assert cl.clifford_mul(cl.clifford_mul(x, y), z) == cl.clifford_mul(x, cl.clifford_mul(y, z))


# -- antisymmetrization ---------------------------------------------------------


def test_antisymmetrize_examples():
    m = 3
    assert cl.antisymmetrize(cl.wedge_monomial((1, 2), m)) == cl.cl_monomial((1, 2), m)
    x = cl.antisymmetrize(cl.wedge_monomial((1, cl.bar(1, m)), m))
    expected = cl.cl_monomial((1, cl.bar(1, m)), m) + scalar(
        QSqrt2(Fraction(-cl.epsilon(1, m), 2)), m
    )
    assert x == expected
    one = cl.ExteriorElement(m, {(): QS2_ONE})
    assert cl.antisymmetrize(one) == scalar(QS2_ONE, m)


def test_antisymmetrize_inverse_roundtrip():
    rng = random.Random(2)
    for m in (2, 3):
        for parity in (0, 1):
            for _ in range(5):
                x = rand_exterior(rng, m, parity=parity)
                assert cl.antisymmetrize_inv(cl.antisymmetrize(x)) == x
    y = cl.cl_monomial((1, cl.bar(1, 3)), 3)
    back = cl.antisymmetrize_inv(y)
    expected = cl.wedge_monomial((1, cl.bar(1, 3)), 3)
    expected.add_term((), QSqrt2(Fraction(cl.epsilon(1, 3), 2)))
    assert back == expected


def test_antisymmetrize_inv_roundtrip_on_mixed_parity():
    rng = random.Random(4)
    for m in (2, 3):
        for _ in range(5):
            x = rand_exterior(rng, m, parity=0) + rand_exterior(rng, m, parity=1)
            assert cl.antisymmetrize_inv(cl.antisymmetrize(x)) == x


# the contraction recursion alpha(v_k ^ y) = v_k * alpha(y) - alpha(contract_{v_k} y),
# the oracle of the Wick sum in `antisymmetrize` and `antisymmetrize_inv`


def _contract_vector(k: int, key: Subset, m: int) -> list[tuple[Subset, Fraction]]:
    """Interior product of v_k with a wedge monomial, via Phi."""
    out = []
    for pos, idx in enumerate(key):
        phi = pairing(k, idx, m)
        if phi:
            sign = -1 if pos % 2 else 1
            out.append((key[:pos] + key[pos + 1:], sign * phi))
    return out


@lru_cache(maxsize=None)
def _alpha_monomial(key: Subset, m: int) -> tuple[tuple[Subset, Fraction], ...]:
    if len(key) <= 1:
        return ((key, Fraction(1)),)
    k, rest = key[0], key[1:]
    acc: dict[Subset, Fraction] = {}
    for mono, coeff in _alpha_monomial(rest, m):
        for mono2, coeff2 in _normalize((k,) + mono, m):
            acc[mono2] = acc.get(mono2, Fraction(0)) + coeff * coeff2
    for sub, phi in _contract_vector(k, rest, m):
        for mono, coeff in _alpha_monomial(sub, m):
            acc[mono] = acc.get(mono, Fraction(0)) - phi * coeff
    return tuple((s, c) for s, c in acc.items() if c)


def alpha_oracle(x):
    out = cl.CliffordElement(x.m)
    for key, c in x.coeffs.items():
        for mono, coeff in _alpha_monomial(key, x.m):
            out.add_term(mono, c * QSqrt2.from_fraction(coeff))
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_wick_sum_matches_the_contraction_recursion(m):
    """alpha and alpha^{-1} agree with the recursion on every monomial."""
    for r in range(2 * m + 2):
        for key in combinations(range(1, 2 * m + 2), r):
            wedge = cl.wedge_monomial(key, m)
            assert cl.antisymmetrize(wedge) == alpha_oracle(wedge), key
            mono = cl.cl_monomial(key, m)
            assert alpha_oracle(cl.antisymmetrize_inv(mono)) == mono, key


def test_antisymmetrize_equivariance():
    rng = random.Random(3)
    for m in (2, 3):
        for _ in range(3):
            x = rand_exterior(rng, m, terms=3)
            for i in range(1, m + 1):
                for kind in ("e", "f"):
                    g = cl.generator_clifford(i, kind, m)
                    lhs = cl.antisymmetrize(cl.exterior_generator_action(g, x))
                    rhs = cl.commutator(g, cl.antisymmetrize(x))
                    assert lhs == rhs, (m, i, kind)


# -- the spin representation -----------------------------------------------------


def test_spin_action_examples():
    for m in (2, 3):
        f_m = cl.generator_clifford(m, "f", m)
        w_box = cl.basis_vector_of(pt.partition((1,), m))
        assert cl.spin_apply(f_m, w_box) == cl.basis_vector((), m)
        w_empty = cl.basis_vector((), m)
        img = cl.spin_generator_action(m + 1, w_empty)
        assert img.coeffs[()] == QSqrt2(0, Fraction(1, 2))
        assert cl.spin_generator_action(cl.bar(1, m), w_empty).coeffs == {}


def test_generator_ladder_builds_basis():
    for m in (2, 3):
        for lam in pt.all_strict_partitions(m):
            w = wg.coset_min_rep(lam)
            word = []
            cur = w
            while wg.length(cur) > 0:
                for i in range(1, m + 1):
                    nxt = cur * wg.simple_reflection(i, m)
                    if wg.length(nxt) < wg.length(cur):
                        word.append(i)
                        cur = nxt
                        break
            word.reverse()  # now w = s_{word[0]} ... s_{word[-1]}
            assert wg.word_product(word, m) == w
            vec = cl.basis_vector((), m)
            for i in reversed(word):
                vec = cl.spin_apply(cl.generator_clifford(i, "e", m), vec)
            assert vec == cl.basis_vector_of(lam)


def test_clifford_to_end_homomorphism():
    rng = random.Random(4)
    m = 2
    assert cl.clifford_to_end(scalar(QS2_ONE, m)) == cl.end_identity(m)
    for _ in range(4):
        x, y = rand_clifford(rng, m), rand_clifford(rng, m)
        assert cl.clifford_to_end(cl.clifford_mul(x, y)) == cl.clifford_to_end(x).compose(
            cl.clifford_to_end(y)
        )


def test_generator_commutators_diagonal():
    for m in (2, 3):
        for i in range(1, m + 1):
            e = cl.spin_generator_matrix(i, "e", m)
            f = cl.spin_generator_matrix(i, "f", m)
            comm = e.commutator(f)
            for (row, col), v in comm.coeffs.items():
                assert row == col
                assert v.is_rational() and v.a.denominator == 1


def test_even_clifford_to_end_bijective():
    """The even basis monomials span End(V_Spin): exact rank 2^(2m)."""
    m = 2
    keys = [k for r in range(0, 2 * m + 2, 2) for k in combinations(range(1, 2 * m + 2), r)]
    subsets = pt.all_subsets(m)
    index = {s: k for k, s in enumerate(subsets)}
    rows = []
    for key in keys:
        mat = cl.clifford_to_end(cl.cl_monomial(key, m))
        flat = [QSqrt2(0)] * (len(subsets) ** 2)
        for (r, c), v in mat.coeffs.items():
            flat[index[r] * len(subsets) + index[c]] = v
        rows.append(flat)
    from lgmirror.grouprep import determinant

    assert len(rows) == 16
    assert determinant(rows) != QSqrt2(0)


def test_end_to_clifford_roundtrip():
    rng = random.Random(5)
    for m in (2, 3):
        for parity in (0, 1):
            x = rand_clifford(rng, m, parity=parity)
            mat = cl.clifford_to_end(x)
            back = cl.end_to_clifford(mat, parity)
            assert back == x
            assert parity_part(back, 1 - parity).coeffs == {}


# -- oracles: matrix units as Clifford products, parity moved by the volume ------


@lru_cache(maxsize=None)
def _vacuum_projector(m):
    """P_0 = prod_i eps(i) vbar_i v_i, multiplied out."""
    out = scalar(QS2_ONE, m)
    for i in range(1, m + 1):
        out = cl.clifford_mul(out, cl.cl_monomial((cl.bar(i, m), i), m, QSqrt2(cl.epsilon(i, m))))
    return out


@lru_cache(maxsize=None)
def _product_matrix_unit(row, col, m):
    """E_{row,col} = prod_{l in col} eps(l) C_row P_0 A_col, by two Clifford products."""
    creation = cl.cl_monomial(row, m)
    annihilation = cl.cl_monomial(tuple(cl.bar(i, m) for i in sorted(col, reverse=True)), m)
    sign = 1
    for i in col:
        sign *= cl.epsilon(i, m)
    return cl.clifford_mul(creation, cl.clifford_mul(_vacuum_projector(m), annihilation)).scale(QSqrt2(sign))


@lru_cache(maxsize=None)
def _volume_element(m):
    """Central antisymmetrized volume alpha(v_1 ^ ... ^ v_{2m+1}) and its spin scalar."""
    omega = cl.antisymmetrize(cl.wedge_monomial(tuple(range(1, 2 * m + 2)), m))
    z = cl.spin_apply(omega, cl.basis_vector((), m)).coeffs.get((), QSqrt2(0))
    if not z:
        raise ArithmeticError("volume element acts by 0; it must act invertibly")
    return omega, z


def _end_to_clifford_oracle(mat, parity):
    """Sum of product units; the other parity moved across by omega / z."""
    m = mat.m
    acc = cl.CliffordElement(m)
    for (row, col), v in mat.coeffs.items():
        acc = acc + _product_matrix_unit(row, col, m).scale(v)
    good, wrong = parity_part(acc, parity), parity_part(acc, 1 - parity)
    if wrong.coeffs:
        omega, z = _volume_element(m)
        good = good + cl.clifford_mul(omega, wrong).scale(z.inverse())
    return good


def check_unit_against_oracle(row, col, m):
    for parity in (0, 1):
        mat = cl.EndSpin(m, {(row, col): QSqrt2(2, -1)})
        got = cl.end_to_clifford(mat, parity)
        assert got == _end_to_clifford_oracle(mat, parity), (m, row, col, parity)
        assert cl.clifford_to_end(got) == mat


@pytest.mark.parametrize("m", [2, 3, 4])
def test_matrix_units_match_product_oracle(m):
    for row in pt.all_subsets(m):
        for col in pt.all_subsets(m):
            check_unit_against_oracle(row, col, m)


def test_matrix_units_match_product_oracle_m5_sample():
    rng = random.Random(8)
    subsets = pt.all_subsets(5)
    for _ in range(12):
        check_unit_against_oracle(rng.choice(subsets), rng.choice(subsets), 5)


def test_pi_map_makes_no_clifford_product(monkeypatch):
    def forbidden(x, y):
        raise AssertionError("clifford_mul called")

    monkeypatch.setattr(cl, "clifford_mul", forbidden)
    for m in (2, 3):
        for j in range(2, m + 1):
            for parity in (0, 1):
                cl.end_to_clifford(cl.iota(cl.build_D(j, m)), parity)
            assert cl.pi_map(cl.build_N(j, m)) == cl.wedge_v_plus(j, m)


def test_volume_element_is_central_scalar():
    for m in (2, 3):
        omega, z = _volume_element(m)
        assert cl.clifford_to_end(omega) == cl.end_identity(m).scale(z)
        v = cl.cl_monomial((1,), m)
        assert cl.clifford_mul(omega, v) == cl.clifford_mul(v, omega)


# -- duality and the symmetric square -------------------------------------------


def test_delta_examples():
    m = 3
    d0 = cl.delta(cl.basis_vector((), m))
    assert d0.dual and d0.coeffs == {(1, 2, 3): QS2_ONE}
    top = cl.delta(cl.basis_vector_of(pt.rho(m, m)))
    sign = QSqrt2(-1 if (m * (m + 1) // 2) % 2 else 1)
    assert top.coeffs == {(): sign}


def test_delta_equivariance_matrix_identity():
    """delta . g = g* . delta, i.e. D M_g = -M_g^T D on the nose."""
    for m in (2, 3):
        subsets = pt.all_subsets(m)
        dmat = {}
        for s in subsets:
            img = cl.delta(cl.basis_vector(s, m))
            ((key, c),) = img.coeffs.items()
            dmat[s] = (key, c)
        for i in range(1, m + 1):
            for kind in ("e", "f"):
                mat = cl.spin_generator_matrix(i, kind, m)
                lhs = cl.EndSpin(m)  # D . M
                for (r, c), v in mat.coeffs.items():
                    key, dc = dmat[r]
                    lhs.add_term((key, c), dc * v)
                rhs = cl.EndSpin(m)  # -M^T . D
                for s in subsets:
                    key, dc = dmat[s]
                    for (r, c), v in mat.coeffs.items():
                        if r == key:
                            rhs.add_term((c, s), -(v * dc))
                # compare as maps V_Spin -> V_Spin* in coordinates
                assert lhs.coeffs == rhs.coeffs, (m, i, kind)


def test_iota_examples_and_rank():
    m = 2
    img = cl.iota(cl.sym_pair(pt.empty(m), pt.empty(m)))
    assert img.coeffs == {((), (1, 2)): QS2_ONE}
    for mm in (2, 3):
        pairs = []
        subsets = pt.all_subsets(mm)
        for a in range(len(subsets)):
            for b in range(a, len(subsets)):
                x = cl.SymSquare(mm)
                x.add_term((subsets[a], subsets[b]), QS2_ONE)
                pairs.append(cl.iota(x))
        dim = len(subsets)
        index = {s: k for k, s in enumerate(subsets)}
        rows = []
        for mat in pairs:
            flat = [QSqrt2(0)] * (dim * dim)
            for (r, c), v in mat.coeffs.items():
                flat[index[r] * dim + index[c]] = v
            rows.append(flat)
        rank = exact_rank(rows)
        assert rank == len(pairs) == 2 ** (mm - 1) * (2**mm + 1)


def exact_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_iota_equivariance():
    rng = random.Random(6)
    for m in (2, 3):
        for _ in range(3):
            x = rand_sym_square(rng, m)
            for i in range(1, m + 1):
                for kind in ("e", "f"):
                    g = cl.generator_clifford(i, kind, m)
                    gmat = cl.spin_generator_matrix(i, kind, m)
                    assert cl.iota(cl.sym_square_action(g, x)) == gmat.commutator(cl.iota(x))


# -- the paired-index and middle-range matrix identities -------------------------


def test_paired_index_monomials():
    """v_{I u Ibar} acts as prod eps(i) times the projection onto w_L, L containing I."""
    for m in (2, 3):
        for r in range(m + 1):
            for I in combinations(range(1, m + 1), r):
                idx = tuple(sorted(set(I) | {cl.bar(i, m) for i in I}))
                mat = cl.clifford_to_end(cl.cl_monomial(idx, m))
                sign = 1
                for i in I:
                    sign *= cl.epsilon(i, m)
                expected = cl.EndSpin(m)
                for L in pt.all_subsets(m):
                    if set(I) <= set(L):
                        expected.add_term((L, L), QSqrt2(sign))
                assert mat == expected, (m, I)


def test_middle_range_monomials():
    """t_(j) = v_{2m+3-j} ... v_{m+j} as the shift-by-middle-range matrix."""
    for m in (2, 3, 4):
        for j in range(2, m + 1):
            if 2 * j < m + 2:
                continue  # the displayed index sets only parse in this regime
            idx = tuple(range(2 * m + 3 - j, m + j + 1))
            mat = cl.clifford_to_end(cl.cl_monomial(idx, m))
            sign = 1
            for ppp in range(m + 2 - j, j):
                sign *= cl.epsilon(ppp, m)
            middle = tuple(range(m + 2 - j, j))
            expected = cl.EndSpin(m)
            for k1 in range(m + 2 - j):
                for K1 in combinations(range(1, m + 2 - j), k1):
                    for k2 in range(m - j + 2):
                        for K2 in combinations(range(j, m + 1), k2):
                            col = tuple(sorted(set(K1) | set(middle) | set(K2)))
                            row = tuple(sorted(set(K1) | set(K2)))
                            val = sign * (-1 if (m * len(K1)) % 2 else 1)
                            expected.add_term((row, col), QSqrt2(val))
            assert mat == expected, (m, j)


# -- the quadratic elements and the projection -----------------------------------


def pair_key(lam, mu_):
    a, b = pt.to_subset(lam), pt.to_subset(mu_)
    return (a, b) if a <= b else (b, a)


def test_build_D_and_N_examples():
    D = cl.build_D(2, 2)
    assert D.coeffs == {
        pair_key(pt.partition((1,), 2), pt.partition((2,), 2)): QS2_ONE,
        pair_key(pt.empty(2), pt.partition((2, 1), 2)): QSqrt2(-1),
    }
    N = cl.build_N(2, 2)
    assert N.coeffs == {pair_key(pt.partition((2,), 2), pt.partition((2,), 2)): QS2_ONE}
    D33 = cl.build_D(3, 3)
    assert D33.coeffs == {
        pair_key(pt.partition((1,), 3), pt.partition((3,), 3)): QS2_ONE,
        pair_key(pt.empty(3), pt.partition((3, 1), 3)): QSqrt2(-1),
    }


@pytest.mark.parametrize("m", [2, 3])
def test_iota_image_matches_dual_family_form(m):
    for j in range(2, m + 1):
        assert cl.iota(cl.build_D(j, m)) == expected_iota_image(j, m)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_clifford_image_matches_display_in_regime(m):
    for j in range(2, m + 1):
        if 2 * j < m + 2:
            continue
        computed = cl.end_to_clifford(cl.iota(cl.build_D(j, m)), m % 2)
        assert computed == expected_clifford_image(j, m), (m, j)


@pytest.mark.parametrize("m", [2, 3])
def test_middle_wedge_projection(m):
    for j in range(2, m + 1):
        assert cl.pr_kappa_iota(cl.build_D(j, m)) == expected_middle_wedge(j, m)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_projection_sends_elements_to_wedges(m):
    for j in range(2, m + 1):
        assert cl.pi_map(cl.build_D(j, m)) == cl.wedge_v(j, m)
        assert cl.pi_map(cl.build_N(j, m)) == cl.wedge_v_plus(j, m)


def test_projection_sends_elements_to_wedges_m5():
    m = 5
    for j in range(2, m + 1):
        assert cl.pi_map(cl.build_D(j, m)) == cl.wedge_v(j, m)
        assert cl.pi_map(cl.build_N(j, m)) == cl.wedge_v_plus(j, m)


def test_pi_equivariance():
    rng = random.Random(7)
    for m in (2, 3):
        for _ in range(3):
            x = rand_sym_square(rng, m)
            for i in range(1, m + 1):
                for kind in ("e", "f"):
                    g = cl.generator_clifford(i, kind, m)
                    lhs = cl.pi_map(cl.sym_square_action(g, x))
                    rhs = cl.exterior_generator_action(g, cl.pi_map(x))
                    assert lhs == rhs, (m, i, kind)


def test_volume_element_acting_by_zero_raises(monkeypatch):
    spin_apply = cl.spin_apply
    monkeypatch.setattr(cl, "spin_apply", lambda x, v: spin_apply(x, v).scale(QSqrt2(0)))
    with pytest.raises(ArithmeticError, match="invertibly"):
        _volume_element.__wrapped__(2)


def test_vector_action_raises_when_degree_changes(monkeypatch):
    monkeypatch.setattr(cl, "commutator", lambda x, y: cl.cl_monomial((1, 2, 3), x.m))
    with pytest.raises(ArithmeticError, match="degree 1"):
        cl.vector_action(cl.generator_clifford(1, "e", 2), 2)
