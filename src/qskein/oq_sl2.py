"""PBW calculus for the quantum coordinate ring of SL(2).

Generators a, b, c, d satisfy (with q the square of the ring's root):

    ba = q^2 ab    ca = q^2 ac    db = q^2 bd    dc = q^2 cd    bc = cb
    ad = q^-2 bc + 1              da = q^2 bc + 1

The monomials a^k1 d^k2 b^k3 c^k4 with k1*k2 = 0 form a linear basis; we
write their exponents as 4-tuples and call such tuples PBW indices.  Two
independent multiplication routes are provided and cross-checked in the
test suite: a rewriting engine on generator words, which reads these
relations from two tables (``_SWAPS``, xy = q^e yx, and ``_DIAGONAL``,
xy = q^e bc + 1), and a structured product, ``OqAlgebra._mul_into``, over
one table, ``_core``, of the expansions of the words x^m y^n, (x, y) = (a, d)
or (d, a), keyed (forward, m, n); the row x^t y^t is (forward, t, t).

On top of the arithmetic sit the finite-spanning and independence
certificates used at odd roots of unity.  They work over the N^3 index box
with first entry zero and its wing of extra spanning indices, which
``dimensions`` enumerates: expression of arbitrary basis monomials over
those sets with coefficients in the subalgebra generated by N-th powers of
the generators, and degree certificates that witness linear independence.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from typing import Mapping, NamedTuple, Sequence

from .dimensions import Index
from .linear import SparseCombination, accumulate, exact, instance, integer
from .scalars import Scalar, ScalarRing

_LETTERS = "adbc"  # normal order of generators inside a monomial
_RANK = {letter: i for i, letter in enumerate(_LETTERS)}

# the word engine's relations: xy = q^e yx in _SWAPS, xy = q^e bc + 1 in _DIAGONAL
_SWAPS = {"ba": 2, "ca": 2, "bd": -2, "cd": -2, "cb": 0}
_DIAGONAL = {"da": 2, "ad": -2}
_REDUCIBLE = re.compile("|".join([*_SWAPS, *_DIAGONAL]))


def _shift(counts: list[int], s: int, n: int | None) -> list[int]:
    """Counts of x^i, multiplied by x^s: rotated where x^n = 1, else shifted."""
    if n is None:
        return [0] * s + counts
    s %= n
    return counts[n - s:] + counts[:n - s]


def is_pbw_index(k) -> bool:
    return (
        isinstance(k, tuple)
        and len(k) == 4
        and all(type(e) is int and e >= 0 for e in k)
        and k[0] * k[1] == 0
    )


def _pbw(k: Sequence[int]) -> Index:
    """``k`` as a tuple, raising unless it is a PBW index."""
    k = tuple(k)
    if not is_pbw_index(k):
        raise ValueError(f"{k} is not a PBW index")
    return k


def pbw_word(k: Sequence[int]) -> str:
    """The word a^k1 d^k2 b^k3 c^k4, its letters in normal order."""
    return "".join(letter * e for letter, e in zip(_LETTERS, k))


def _letter_index(letter: str, e: int) -> Index:
    """The PBW index of letter**e, for a generator letter a, b, c or d."""
    if letter not in _RANK:
        raise ValueError(f"unknown generator {letter!r}")
    return tuple(e if i == _RANK[letter] else 0 for i in range(4))


def _check_box_index(v: Index, n: int) -> None:
    """Raise unless ``v`` is a PBW index in the basis box: first entry 0, all below n."""
    if not (is_pbw_index(v) and v[0] == 0 and max(v) < n):
        raise ValueError(f"{v} is not in the basis box")


def leading_index(k: Sequence[int]) -> Index:
    """Lex-leading PBW index of the expansion of a^k1 d^k2 b^k3 c^k4.

    Defined for arbitrary natural exponent vectors (``linear.integer``), not
    only PBW indices: a^t d^t with t = min(k1, k2) leads with (bc)^t.
    """
    k1, k2, k3, k4 = k
    if not type(k1) is type(k2) is type(k3) is type(k4) is int:
        k1, k2, k3, k4 = map(integer, (k1, k2, k3, k4))
    if min(k1, k2, k3, k4) < 0:
        raise ValueError("exponents must be natural numbers")
    t = min(k1, k2)
    return (k1 - t, k2 - t, k3 + t, k4 + t)


class OqAlgebra:
    """The quantum SL(2) coordinate ring over a chosen scalar ring."""

    def __init__(self, ring: ScalarRing):
        self.ring = ring = instance(ring, ScalarRing)
        # row t of both a^t d^t and d^t a^t as integer counts: see _diag
        self._diag_counts: list[list[list[int]]] = [[[1] + [0] * ((ring.order or 1) - 1)]]
        self._cores: dict[tuple[bool, int, int], dict[tuple[int, int, int], Scalar]] = {}
        self._wing_cache: dict[tuple[int, int, int], dict[Index, "OqElement"]] = {}

    @property
    def order(self) -> int:
        if self.ring.order is None:
            raise ValueError("this operation needs a root-of-unity scalar ring")
        return self.ring.order

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OqAlgebra) and self.ring == other.ring

    def __hash__(self) -> int:
        return hash(("OqAlgebra", self.ring))

    # -- element constructors -------------------------------------------------

    def zero(self) -> "OqElement":
        return OqElement(self, {})

    def one(self) -> "OqElement":
        return OqElement(self, {(0, 0, 0, 0): self.ring.one})

    def element(self, terms: Mapping[Index, Scalar | int | Fraction]) -> "OqElement":
        clean: dict[Index, Scalar] = {}
        for k, v in terms.items():
            accumulate(clean, _pbw(k), exact(self.ring.coerce, v))
        return OqElement(self, clean)

    def basis_monomial(self, k: Sequence[int]) -> "OqElement":
        return OqElement(self, {_pbw(k): self.ring.one})

    def generator(self, letter: str) -> "OqElement":
        return self.basis_monomial(_letter_index(letter, 1))

    # -- structured multiplication ---------------------------------------------

    def _diag(self, t: int) -> list[list[int]]:
        """Integer counts of row t, shared by a^t d^t and d^t a^t.

        With x = q^-1 or q respectively, the coefficient of (bc)^g in both is
        sum_i counts[g][i] x^i, and the rows obey

            C(t+1, g) = x^(4g) C(t, g) + x^(4g-2) C(t, g-1).

        The recurrence runs on the counts, indexed modulo N in root mode,
        where x^N = 1.  For N > 1 the N-th roots of unity sum to 0, so each
        new list has its minimum subtracted: the value stays, and the counts
        stay far below the raw ones, which grow like 2^t / N.  All rows are kept.
        """
        counts, n = self._diag_counts, self.ring.order
        level = (n or 0) > 1
        while len(counts) <= t:
            prev = counts[-1]
            nxt = [prev[0]]
            for g in range(1, len(prev)):
                pair = _shift(prev[g], 4 * g, n), _shift(prev[g - 1], 4 * g - 2, n)
                c = [u + v for u, v in zip_longest(*pair, fillvalue=0)]
                low = min(c) if level else 0
                nxt.append([u - low for u in c] if low else c)
            # the first list is prev's and the last a rotation: both levelled
            nxt.append(_shift(prev[-1], 4 * len(prev) - 2, n))
            counts.append(nxt)
        return counts[t]

    def _core(self, forward: bool, m: int, n: int) -> dict[tuple[int, int, int], Scalar]:
        """PBW form of the word x^m y^n as {(a, d, bc-diag): scalar}, kept per
        algebra under (forward, m, n), (x, y) = (a, d) if forward, else (d, a).

        The row x^t y^t is the entry (forward, t, t), converted once from the
        counts of ``_diag`` without its vanishing entries.  The word equals
        x^(m-t) (x^t y^t) y^(n-t), t = min(m, n), and y^(n-t) moves left past
        (bc)^g at the cost q^(-4g(n-m)) for y = d and q^(4g(n-m)) for y = a.
        Callers only read the entries.
        """
        cores = self._cores
        core = cores.get((forward, m, n))
        if core is not None:
            return core
        t = min(m, n)
        row = cores.get((forward, t, t))
        if row is None:
            convert, step = self.ring.from_power_counts, -2 if forward else 2
            row = cores[(forward, t, t)] = {
                (0, 0, g): s for g, c in enumerate(self._diag(t)) if (s := convert(c, step))
            }
            if m == n:
                return row
        slots = (m - t, n - t) if forward else (n - t, m - t)
        step = (-4 if forward else 4) * (n - t)
        q_pow = self.ring.q_pow
        core = cores[(forward, m, n)] = {
            slots + (g,): s * q_pow(step * g) if step * g else s
            for (_, _, g), s in row.items()
        }
        return core

    def power_product(self, k: Sequence[int]) -> "OqElement":
        """Expand a^k1 d^k2 b^k3 c^k4 for an arbitrary natural exponent vector.

        Exponents follow ``linear.integer``.  It is O_(k1,0,0,0) O_(0,k2,k3,k4), by ``_mul_into``.
        """
        k1, k2, k3, k4 = k
        if not type(k1) is type(k2) is type(k3) is type(k4) is int:
            k1, k2, k3, k4 = map(integer, (k1, k2, k3, k4))
        if min(k1, k2, k3, k4) < 0:
            raise ValueError("exponents must be natural numbers")
        one = self.ring.one
        return OqElement(self, self._mul_into({}, {(k1, 0, 0, 0): one}, {(0, k2, k3, k4): one}))

    # -- word rewriting engine ---------------------------------------------------

    def normal_form(self, words) -> "OqElement":
        """PBW form of a word, or of a {word: coefficient} mapping, in a, b, c, d.

        Coefficients follow ``ScalarRing.coerce``: an int, a Fraction or a
        scalar of this algebra's ring; any other input raises TypeError.

        The leftmost reducible pair is rewritten first.  A swap rule
        xy -> q^e yx of ``_SWAPS`` moves the whole run y^s that starts at
        the pair past the whole run x^r that ends there, in one step, with
        coefficient q^(e r s); the rules xy -> q^e bc + 1 of ``_DIAGONAL``
        rewrite the pair alone.  The agenda is one {word: coefficient} dict
        merged by ``linear.accumulate``.  This engine shares no code with the
        structured product; the test suite compares the two on every word of
        up to six letters.  A word the tables leave irreducible but out of
        normal order raises ArithmeticError naming it.
        """
        if isinstance(words, str):
            words = {words: self.ring.one}
        elif not isinstance(words, Mapping):
            raise TypeError(f"expected a word or a {{word: coefficient}} mapping, got {words!r}")
        agenda: dict[str, Scalar] = {}
        for w, c in words.items():
            if any(ch not in _RANK for ch in w):
                raise ValueError(f"word {w!r} uses unknown generators")
            accumulate(agenda, w, exact(self.ring.coerce, c))
        q_pow, swap_exponent = self.ring.q_pow, _SWAPS.get
        search, pop = _REDUCIBLE.search, agenda.popitem
        out: dict[Index, Scalar] = {}
        while agenda:
            word, coeff = pop()
            hit = search(word)
            if hit is None:
                idx = tuple(word.count(letter) for letter in _LETTERS)
                if word != pbw_word(idx):
                    raise ArithmeticError(f"word {word!r} is irreducible but not in normal order")
                accumulate(out, idx, coeff)
                continue
            h = hit.start()
            pair = hit.group()
            e = swap_exponent(pair)
            if e is not None:
                x, y = pair
                start = len(word[: h + 1].rstrip(x))  # where the run x^r begins
                stop = len(word) - len(word[h + 1 :].lstrip(y))  # where y^s ends
                if e:
                    coeff = coeff * q_pow(e * (h + 1 - start) * (stop - h - 1))
                swapped = word[:start] + word[h + 1 : stop] + word[start : h + 1] + word[stop:]
                accumulate(agenda, swapped, coeff)
                continue
            head, tail = word[:h], word[h + 2 :]
            e = _DIAGONAL[pair]
            accumulate(agenda, head + "bc" + tail, coeff * q_pow(e) if e else coeff)
            accumulate(agenda, head + tail, coeff)
        return OqElement(self, out)

    # -- degree bookkeeping --------------------------------------------------------

    def monomial_degree(self, k: Sequence[int]) -> Index:
        """Leading index of a^k1 d^k2 b^k3 c^k4, checked against an expansion.

        Computes the closed-form answer and independently expands the
        monomial with the structured product, raising if the two disagree.
        Exponents follow ``linear.integer``, through ``power_product``.
        """
        k = tuple(k)
        oracle = self.power_product(k).deg()
        formula = leading_index(k)
        if formula != oracle:
            raise ArithmeticError(
                f"leading-index formula {formula} disagrees with expansion {oracle} at {k}"
            )
        return formula

    def lifted_leading_index(self, u: Sequence[int], v: Sequence[int]) -> Index:
        """Leading index of the product of an N-th power monomial and a box monomial.

        ``u`` must be a PBW index, ``v`` must lie in the basis box; the result
        is the leading index of the exponent vector N*u + v.  This map is
        injective on its domain, which the tests check exhaustively on ranges.
        """
        n = self.order
        u = _pbw(u)
        v = tuple(v)
        _check_box_index(v, n)
        return leading_index(tuple(n * a + b for a, b in zip(u, v)))

    # -- diagonal tower membership ----------------------------------------------

    def in_diagonal_tower(self, x: "OqElement", t: int) -> bool:
        """Whether x = 1 + k_1 bc + ... + k_t (bc)^t, k_t a power of q; x = 1 if t = 0."""
        if instance(x, OqElement).algebra is not self and x.algebra != self:
            raise ValueError("element from a different algebra")
        if integer(t) < 0:
            raise ValueError("tower height must be a natural number")
        for (k1, k2, k3, k4) in x.terms:
            if k1 or k2 or k3 != k4 or k3 > t:
                return False
        if x.coefficient((0, 0, 0, 0)) != self.ring.one:
            return False
        if t == 0:
            return len(x.terms) == 1
        top = x.coefficient((0, 0, t, t))
        if top.is_zero():
            return False
        return self.ring.is_q_power(top)

    # -- the N-th power subalgebra -------------------------------------------------

    def frobenius_generator(self, letter: str) -> "OqElement":
        """The N-th power of a generator (a single PBW monomial)."""
        return self.basis_monomial(_letter_index(letter, self.order))

    def frobenius_monomial(self, u: Sequence[int]) -> "OqElement":
        """Basis monomial of the N-th power subalgebra with PBW index N*u."""
        n = self.order
        return OqElement(self, {tuple(n * e for e in _pbw(u)): self.ring.one})

    def is_frobenius_element(self, x: "OqElement") -> bool:
        """Whether x is supported on indices divisible by N in every slot."""
        n = self.order
        return not any(e % n for k in x.terms for e in k)

    # -- independence certificate ----------------------------------------------------

    def independence_certificate(
        self, coeff_map: Mapping[Index, "OqElement"]
    ) -> "IndependenceCertificate":
        """Certify that a combination of box monomials with N-th power
        subalgebra coefficients is nonzero.

        Every support index of every coefficient, added to its box index,
        yields a leading index; the certificate records that these are
        pairwise distinct, and separately expands the full combination to
        confirm it is nonzero.
        """
        n = self.order
        if not coeff_map:
            raise ValueError("empty coefficient map")
        lifted: list[Index] = []
        for v, coeff in coeff_map.items():
            v = tuple(v)
            _check_box_index(v, n)
            if instance(coeff, OqElement).is_zero():
                raise ValueError("coefficients must be nonzero")
            _, v2, v3, v4 = v
            for w1, w2, w3, w4 in coeff.terms:
                if w1 % n or w2 % n or w3 % n or w4 % n:
                    raise ValueError("coefficient is not in the N-th power subalgebra")
                lifted.append(leading_index((w1, w2 + v2, w3 + v3, w4 + v4)))
        total = self._combine(coeff_map)
        distinct = len(set(lifted)) == len(lifted)
        nonzero = not total.is_zero()
        return IndependenceCertificate(
            certified=distinct and nonzero,
            lifted_indices=tuple(lifted),
            indices_distinct=distinct,
            combination_nonzero=nonzero,
        )

    # -- expression over the box and the spanning set -----------------------------------

    def localized_express(self, m: Sequence[int]) -> "LocalizedExpression":
        """Express d^(N*s) * O_m over the box with N-th power coefficients.

        Returns the least s in {0, 1} such that multiplying the basis
        monomial O_m by s copies of d^N lands in the span of the basis box
        over the N-th power subalgebra, together with the coefficients.
        With m1 = uN + v, s = 1 exactly when v > 0; as d^N is central, each
        term of a^v d^(m2 + N*s) (``power_product``) gives one coefficient.
        The identity is re-expanded and checked before returning.
        """
        n = self.order
        m = _pbw(m)
        k1, k2, k3, k4 = m
        u, v = divmod(k1, n)
        power = 1 if v else 0
        coeffs: dict[Index, OqElement] = {}
        for (_, d, g, _), scal in self.power_product((v, k2 + n * power, 0, 0)).terms.items():
            g2, r2 = divmod(d, n)
            g3, r3 = divmod(g + k3, n)
            g4, r4 = divmod(g + k4, n)
            term = scal * self.frobenius_monomial((u, g2, g3, g4))
            accumulate(coeffs, (0, r2, r3, r4), term)
        lhs = self.basis_monomial(m)
        if power:
            lhs = self.basis_monomial((0, n, 0, 0)) * lhs
        if lhs != self._combine(coeffs):
            raise ArithmeticError(f"localized expression failed re-expansion at {m}")
        return LocalizedExpression(power=power, coefficients=coeffs)

    def _wing_reduce(self, j: int, r3: int, r4: int) -> dict[Index, "OqElement"]:
        """Coefficients over box + wing for the monomial a^(N-j) b^r3 c^r4."""
        n = self.order
        key = (j, r3, r4)
        cached = self._wing_cache.get(key)
        if cached is not None:
            return cached
        if r3 < j or r4 < j:
            out = {(n - j, 0, r3, r4): self.one()}
        else:
            diag = self.power_product((j, j, 0, 0)).terms  # keys (0, 0, i, i)
            inv_top = diag[(0, 0, j, j)].inverse()
            alpha, beta = r3 - j, r4 - j
            out = {
                (0, j, alpha, beta): inv_top * self.frobenius_monomial((1, 0, 0, 0))
            }
            for (_, _, i, _), e_i in diag.items():
                if i == j:
                    continue
                factor = -(e_i * inv_top)
                for idx, c in self._wing_reduce(j, alpha + i, beta + i).items():
                    accumulate(out, idx, factor * c)
        self._wing_cache[key] = out
        return out

    def express_in_spanning(self, m: Sequence[int]) -> "SpanningExpression":
        """Express O_m over box + wing with N-th power subalgebra coefficients.

        The expression is exact (no localization) and is re-expanded and
        checked before returning.
        """
        n = self.order
        m = _pbw(m)
        k1, k2, k3, k4 = m
        u, w = divmod(k1, n)
        g2, r2 = divmod(k2, n)
        g3, r3 = divmod(k3, n)
        g4, r4 = divmod(k4, n)
        if w == 0:
            outer = self.frobenius_monomial((u, g2, g3, g4))
            coeffs = {(0, r2, r3, r4): outer}
        else:
            outer = self.frobenius_monomial((u, 0, g3, g4))
            coeffs = {
                idx: outer * c
                for idx, c in self._wing_reduce(n - w, r3, r4).items()
            }
        if self._combine(coeffs) != self.basis_monomial(m):
            raise ArithmeticError(f"spanning expression failed re-expansion at {m}")
        return SpanningExpression(coefficients=coeffs)

    def _combine(self, coeffs: Mapping[Index, "OqElement"]) -> "OqElement":
        """The element sum_v coeffs[v] * O_v, every product accumulated in one dict."""
        acc: dict[Index, Scalar] = {}
        one = self.ring.one
        for v, coeff in coeffs.items():
            self._mul_into(acc, coeff.terms, {v: one})
        return OqElement(self, acc)

    def _mul_into(
        self, acc: dict[Index, Scalar], left: Mapping[Index, Scalar], right: Mapping[Index, Scalar]
    ) -> dict[Index, Scalar]:
        """Add the product of two term dicts to ``acc``.

        Each pair of terms c_u O_u, c_v O_v adds c_u c_v q^e times the core
        of the word a^u1 d^u2 a^v1 d^v2 (key (False, u2, v1) when d^u2 meets
        a^v1, else (True, u1 + v1, u2 + v2)), shifted by b^(u3 + v3)
        c^(u4 + v4), where e = 2 (u3 + u4) (v1 - v2) is the cost of moving
        b^u3 c^u4 right past a^v1 d^v2.  A new key is stored without a zero
        test and a merged one is tested.  Only a sum can vanish: the terms of
        an element and of a core are nonzero, and so is their product, as
        both scalar rings are integral domains.
        """
        ring = self.ring
        one, q_pow, n, core = ring.one, ring.q_pow, ring.order, self._core
        for (u1, u2, u3, u4), cu in left.items():
            for (v1, v2, v3, v4), cv in right.items():
                factor = cu if cv is one else cu * cv
                e = 2 * (u3 + u4) * (v1 - v2)
                if n is None or e % n:  # q has order N in root mode
                    factor = factor * q_pow(e)
                b0, c0 = u3 + v3, u4 + v4
                word = core(False, u2, v1) if u2 and v1 else core(True, u1 + v1, u2 + v2)
                for (alpha, beta, g), s in word.items():
                    key = (alpha, beta, g + b0, g + c0)
                    term = factor if s is one else factor * s
                    if key in acc:
                        term = acc[key] + term
                        if not term:
                            del acc[key]
                            continue
                    acc[key] = term
        return acc


class OqElement(SparseCombination):
    """Linear combination of PBW basis monomials with Scalar coefficients."""

    __slots__ = ()
    _identity = (0, 0, 0, 0)
    _mismatch = "elements from different algebras"

    @property
    def algebra(self) -> OqAlgebra:
        return self.parent

    def deg(self) -> Index:
        """Lexicographically largest support index; undefined for zero."""
        if not self.terms:
            raise ValueError("degree of the zero element is undefined")
        return max(self.terms)

    def _mul_terms(self, other: "OqElement") -> dict[Index, Scalar]:
        return self.parent._mul_into({}, self.terms, other.terms)

    @staticmethod
    def _format_term(k: Index, coeff: Scalar) -> str:
        return f"({coeff})*O{k}"


class IndependenceCertificate(NamedTuple):
    certified: bool
    lifted_indices: tuple[Index, ...]
    indices_distinct: bool
    combination_nonzero: bool


class LocalizedExpression(NamedTuple):
    power: int
    coefficients: dict[Index, OqElement]


class SpanningExpression(NamedTuple):
    coefficients: dict[Index, OqElement]
