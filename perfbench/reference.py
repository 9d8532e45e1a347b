"""Reference computations for the benchmark's correctness checks.

Everything here is written apart from `lgmirror`, from the definitions the
program implements, so that a check does not compare the program with
itself:

* type-B signed permutations in one-line form, with the descent test
  "w s_i is longer than w iff w(alpha_i) is a positive root" in place of the
  program's root count;
* sums over reduced subwords of the canonical word of w^P by a dynamic
  programme over group elements, giving Pluecker coordinates p_lambda(b)
  (subword route) and the Laurent numerator N(b);
* the unipotent element u2bar(b) of the vector representation as a sympy
  matrix over Q(sqrt2), and its minors;
* quantum multiplication by sigma_1 on qH*(LG(m)) from the quantum Pieri
  rule: add one box (coefficient 1 in the first column, 2 elsewhere), and if
  the first part is m, add q times the class with that part removed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

# -- signed permutations ------------------------------------------------------


def canonical_word(m: int) -> tuple[int, ...]:
    """(s_m)(s_{m-1} s_m) ... (s_1 ... s_m)."""
    return tuple(letter for k in range(1, m + 1) for letter in range(m + 1 - k, m + 1))


def right_multiply(images: tuple[int, ...], letter: int) -> tuple[int, ...]:
    """One-line form of w s_letter: s_i (i < m) swaps positions i, i+1; s_m negates the last."""
    m = len(images)
    out = list(images)
    if letter < m:
        out[letter - 1], out[letter] = out[letter], out[letter - 1]
    else:
        out[m - 1] = -out[m - 1]
    return tuple(out)


def ascends(images: tuple[int, ...], letter: int) -> bool:
    """True when w s_letter is longer than w, i.e. w(alpha_letter) is positive.

    A root c e_a + c' e_b (a < b) is positive when c > 0; w(e_i) = sgn(w(i)) e_|w(i)|.
    """
    m = len(images)
    if letter == m:
        return images[m - 1] > 0
    x, y = images[letter - 1], images[letter]
    # w(e_i - e_{i+1}) = sgn(x) e_|x| - sgn(y) e_|y|
    return x > 0 if abs(x) < abs(y) else y < 0


def compose(v: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
    """(v w)(k) = v(w(k)) in one-line form."""
    return tuple(v[abs(x) - 1] * (1 if x > 0 else -1) for x in w)


def inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(w)
    for k, x in enumerate(w, start=1):
        out[abs(x) - 1] = k if x > 0 else -k
    return tuple(out)


def word_element(word, m: int) -> tuple[int, ...]:
    w = tuple(range(1, m + 1))
    for letter in word:
        w = right_multiply(w, letter)
    return w


def coset_rep(parts: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Minimal coset representative for a strict partition: the complement of
    I = {m+1-part} ascending, then I descending with signs flipped."""
    neg = sorted(m + 1 - p for p in parts)
    pos = [k for k in range(1, m + 1) if k not in neg]
    return tuple(pos) + tuple(-k for k in reversed(neg))


# -- subword sums -------------------------------------------------------------


def subword_sum(target: tuple[int, ...], length: int, b, one=Fraction(1)):
    """Sum over position subsets of the canonical word spelling a reduced word
    of `target` (which has `length` letters) of the product of the b's taken.

    Dynamic programme over prefixes: each state is a group element reached by
    a reduced subword of the prefix, with the summed monomials as its value.
    """
    m = len(target)
    word = canonical_word(m)
    n = len(word)
    states = {tuple(range(1, m + 1)): (0, one)}
    for pos, letter in enumerate(word):
        left = n - pos - 1
        nxt = {}
        for w, (ell, value) in states.items():
            if length - ell <= left:
                _accumulate(nxt, w, ell, value)
            if ell < length and ascends(w, letter):
                _accumulate(nxt, right_multiply(w, letter), ell + 1, value * b[pos])
        states = nxt
    hit = states.get(target)
    if hit is None:
        return one - one
    if hit[0] != length:
        raise ArithmeticError(f"target {target} reached with {hit[0]} letters, expected {length}")
    return hit[1]


def _accumulate(states: dict, w, ell: int, value) -> None:
    prev = states.get(w)
    states[w] = (ell, value) if prev is None else (ell, prev[1] + value)


def plucker_subword(parts: tuple[int, ...], b, m: int, one=Fraction(1)):
    """p_lambda(u2bar(b)) by the reduced-subword route."""
    return subword_sum(coset_rep(parts, m), sum(parts), b, one)


def laurent_numerator(b, m: int, one=Fraction(1)):
    """N(b): subwords S with (word at S) s_1 ... s_m = w^P, |S| = N - m."""
    n = m * (m + 1) // 2
    wp = word_element(canonical_word(m), m)
    tail = word_element(range(1, m + 1), m)
    return subword_sum(compose(wp, inverse(tail)), n - m, b, one)


def w_tilde(q, b, m: int, one=Fraction(1)):
    """The Laurent superpotential sum b_j + q N(b) / prod b_j."""
    prod = one
    for x in b:
        prod = prod * x
    return sum(b, one - one) + q * laurent_numerator(b, m, one) / prod


# -- the vector representation over Q(sqrt2) ----------------------------------


@lru_cache(maxsize=None)
def _field():
    import sympy

    return sympy, sympy.QQ.algebraic_field(sympy.sqrt(2))


def u2bar(b, m: int):
    """u2bar(b) = y_{i_N}(b_N) ... y_{i_1}(b_1) as a sympy DomainMatrix over Q(sqrt2).

    f_i = e_i^T with e_i = E_{i,i+1} + E_{2m+1-i,2m+2-i} (i < m) and
    e_m = sqrt2 (E_{m,m+1} + E_{m+1,m+2}); y_i(a) = exp(a f_i) = 1 + a f_i + a^2 f_i^2 / 2.
    """
    sympy, field = _field()
    from sympy.polys.matrices import DomainMatrix

    size = 2 * m + 1
    root2 = field.from_sympy(sympy.sqrt(2))

    def y(letter: int, a) -> DomainMatrix:
        rows = [[field.zero] * size for _ in range(size)]
        for k in range(size):
            rows[k][k] = field.one
        a = field.convert(sympy.Rational(a.numerator, a.denominator))
        if letter < m:
            rows[letter][letter - 1] = a
            rows[2 * m + 1 - letter][2 * m - letter] = a
        else:
            rows[m][m - 1] = root2 * a
            rows[m + 1][m] = root2 * a
            rows[m + 1][m - 1] = a * a  # (a f_m)^2 / 2 = a^2 E_{m+2,m}
        return DomainMatrix(rows, (size, size), field)

    word = canonical_word(m)
    out = y(word[-1], b[-1])
    for k in range(len(word) - 1, 0, -1):
        out = out * y(word[k - 1], b[k - 1])
    return out


def minor(mat, rows, cols):
    """Determinant of the 1-based submatrix, an element of Q(sqrt2)."""
    return mat.extract([r - 1 for r in rows], [c - 1 for c in cols]).det()


def to_pair(x):
    """An element of Q(sqrt2) (a sympy ANP) as the Fraction pair (a, b), x = a + b sqrt2."""
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in x.to_list()]
    coeffs = [Fraction(0)] * (2 - len(coeffs)) + coeffs
    return coeffs[1], coeffs[0]


# -- quantum multiplication by sigma_1 ----------------------------------------


def strict_partitions(m: int) -> list[tuple[int, ...]]:
    return [tuple(sorted(c, reverse=True)) for k in range(m + 1) for c in combinations(range(1, m + 1), k)]


def pieri_sigma1(parts: tuple[int, ...], m: int) -> dict[tuple[tuple[int, ...], int], int]:
    """sigma_1 * sigma_lambda as {(mu, q power): coefficient}."""
    out = {}
    for r, p in enumerate(parts):
        if p + 1 <= m and (r == 0 or p + 1 < parts[r - 1]):
            out[(parts[:r] + (p + 1,) + parts[r + 1:], 0)] = 2
    if not parts or parts[-1] > 1:
        out[(parts + (1,), 0)] = 1
    if parts and parts[0] == m:
        out[(parts[1:], 1)] = 1
    return out


def sigma1_eigenvalues(m: int, q: complex) -> list[complex]:
    basis = strict_partitions(m)
    index = {lam: k for k, lam in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, lam in enumerate(basis):
        for (mu_, d), c in pieri_sigma1(lam, m).items():
            mat[index[mu_], col] += c * q**d
    return [complex(z) for z in np.linalg.eigvals(mat)]


def match_error(a: list[complex], b: list[complex]) -> float:
    """Largest |x - y| / max(1, |x|, |y|) under the best pairing found greedily
    from the largest values down; inf when the sizes differ."""
    if len(a) != len(b):
        return float("inf")
    rest = list(b)
    worst = 0.0
    for x in sorted(a, key=abs, reverse=True):
        k = min(range(len(rest)), key=lambda i: abs(rest[i] - x))
        y = rest.pop(k)
        worst = max(worst, abs(x - y) / max(1.0, abs(x), abs(y)))
    return worst
