"""PBW calculus for the quantum coordinate ring of SL(2).

Generators a, b, c, d satisfy (with q the square of the ring's root):

    ba = q^2 ab    ca = q^2 ac    db = q^2 bd    dc = q^2 cd    bc = cb
    ad = q^-2 bc + 1              da = q^2 bc + 1

The monomials a^k1 d^k2 b^k3 c^k4 with k1*k2 = 0 form a linear basis; we
write their exponents as 4-tuples and call such tuples PBW indices.  Two
independent multiplication routes are provided and cross-checked in the
test suite: a rewriting engine on generator words, and a structured
product that merges exponents through cached diagonal expansions of
a^t d^t and d^t a^t.

On top of the arithmetic sit the finite-spanning and independence
certificates used at odd roots of unity: the N^3 index box with first
entry zero, its wing of extra spanning indices, expression of arbitrary
basis monomials over those sets with coefficients in the subalgebra
generated by N-th powers of the generators, and degree certificates that
witness linear independence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .linear import SparseCombination, accumulate
from .scalars import ROOT_OF_UNITY, Scalar, ScalarRing

Index = tuple[int, int, int, int]

_LETTERS = "adbc"  # normal order of generators inside a monomial
_RANK = {letter: i for i, letter in enumerate(_LETTERS)}

# bad adjacent pair -> ((q-exponent, replacement), ...)
_REWRITES: dict[str, tuple[tuple[int, str], ...]] = {
    "da": ((2, "bc"), (0, "")),
    "ad": ((-2, "bc"), (0, "")),
    "ba": ((2, "ab"),),
    "ca": ((2, "ac"),),
    "bd": ((-2, "db"),),
    "cd": ((-2, "dc"),),
    "cb": ((0, "bc"),),
}


def is_pbw_index(k) -> bool:
    return (
        isinstance(k, tuple)
        and len(k) == 4
        and all(isinstance(e, int) and e >= 0 for e in k)
        and k[0] * k[1] == 0
    )


def leading_index(k: Sequence[int]) -> Index:
    """Lex-leading PBW index of the expansion of a^k1 d^k2 b^k3 c^k4.

    Defined for arbitrary natural exponent vectors, not only PBW indices:
    mixed a/d powers reduce and the leading term survives as below.
    """
    k1, k2, k3, k4 = k
    if min(k) < 0:
        raise ValueError("exponents must be natural numbers")
    if k1 == k2:
        return (0, 0, k3 + k1, k4 + k1)
    if k1 > k2:
        return (k1 - k2, 0, k3 + k2, k4 + k2)
    return (0, k2 - k1, k3 + k1, k4 + k1)


def basis_box(n: int) -> list[Index]:
    """The n**3 PBW indices with first entry 0 and the rest below n."""
    return [
        (0, k2, k3, k4)
        for k2 in range(n)
        for k3 in range(n)
        for k4 in range(n)
    ]


def spanning_wing(n: int) -> list[Index]:
    """Extra indices with positive a-exponent completing the spanning set."""
    return [
        (n - j, 0, k2, k3)
        for j in range(1, n)
        for k2 in range(n)
        for k3 in range(n)
        if k2 < j or k3 < j
    ]


def spanning_set(n: int) -> list[Index]:
    return basis_box(n) + spanning_wing(n)


class OqAlgebra:
    """The quantum SL(2) coordinate ring over a chosen scalar ring."""

    def __init__(self, ring: ScalarRing):
        self.ring = ring
        self._diag_ad: list[dict[int, Scalar]] = [{0: ring.one}]
        self._diag_da: list[dict[int, Scalar]] = [{0: ring.one}]
        self._diag_lock = threading.Lock()
        self._wing_cache: dict[tuple[int, int, int], dict[Index, "OqElement"]] = {}
        self._rules: dict[str, tuple[tuple[Scalar, str], ...]] | None = None

    @property
    def order(self) -> int:
        if self.ring.mode != ROOT_OF_UNITY:
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
            k = tuple(k)
            if not is_pbw_index(k):
                raise ValueError(f"{k} is not a PBW index")
            if not isinstance(v, Scalar):
                v = self.ring.from_rational(v)
            elif v.ring != self.ring:
                raise ValueError("coefficient from a different scalar ring")
            accumulate(clean, k, v)
        return OqElement(self, clean)

    def basis_monomial(self, k: Sequence[int]) -> "OqElement":
        k = tuple(k)
        if not is_pbw_index(k):
            raise ValueError(f"{k} is not a PBW index")
        return OqElement(self, {k: self.ring.one})

    def generator(self, letter: str) -> "OqElement":
        if letter not in _RANK:
            raise ValueError(f"unknown generator {letter!r}")
        exp = [0, 0, 0, 0]
        exp[_RANK[letter]] = 1
        return self.basis_monomial(tuple(exp))

    # -- structured multiplication ---------------------------------------------

    def _diag(self, t: int, forward: bool = True) -> dict[int, Scalar]:
        """Expansion of a^t d^t (forward) or d^t a^t as a bc-diagonal dict.

        The tables are shared by every thread using this algebra: a level
        that exists is read without locking, and missing levels are built
        under the algebra's lock, each appended exactly once.
        """
        table = self._diag_ad if forward else self._diag_da
        if t < len(table):
            return table[t]
        sign = -1 if forward else 1
        with self._diag_lock:
            while len(table) <= t:
                nxt: dict[int, Scalar] = {}
                for g, coeff in table[-1].items():
                    accumulate(nxt, g + 1, coeff * self.ring.q_pow(sign * (4 * g + 2)))
                    accumulate(nxt, g, coeff * self.ring.q_pow(sign * 4 * g))
                table.append(nxt)
        return table[t]

    def diagonal_expansion(self, t: int, reversed_order: bool = False) -> "OqElement":
        """The element a^t d^t (or d^t a^t when reversed) in PBW form."""
        if t < 0:
            raise ValueError("power must be a natural number")
        diag = self._diag(t, forward=not reversed_order)
        return OqElement(self, {(0, 0, g, g): s for g, s in diag.items()})

    def _core(self, ma: int, md: int, na: int, nd: int) -> dict[tuple[int, int, int], Scalar]:
        """PBW form of the word a^ma d^md a^na d^nd as {(a, d, bc-diag): scalar}."""
        one = self.ring.one
        if md == 0:
            if nd == 0:
                return {(ma + na, 0, 0): one}
            m, n = ma + na, nd
            t = min(m, n)
            diag = self._diag(t)
            if m > n:
                return {(m - n, 0, g): s for g, s in diag.items()}
            if m < n:
                return {
                    (0, n - m, g): s * self.ring.q_pow(-4 * g * (n - m))
                    for g, s in diag.items()
                }
            return {(0, 0, g): s for g, s in diag.items()}
        # md > 0 forces ma == 0 for callers; guard anyway
        if ma != 0:
            raise ValueError("mixed a/d exponents on the left factor")
        if na == 0:
            return {(0, md + nd, 0): one}
        # na > 0 forces nd == 0
        m, n = md, na
        t = min(m, n)
        diag = self._diag(t, forward=False)
        if m > n:
            return {(0, m - n, g): s for g, s in diag.items()}
        if m < n:
            return {
                (n - m, 0, g): s * self.ring.q_pow(4 * g * (n - m))
                for g, s in diag.items()
            }
        return {(0, 0, g): s for g, s in diag.items()}

    def _mul_basis(self, u: Index, v: Index) -> dict[Index, Scalar]:
        swap = self.ring.q_pow(2 * (u[2] + u[3]) * (v[0] - v[1]))
        core = self._core(u[0], u[1], v[0], v[1])
        b0, c0 = u[2] + v[2], u[3] + v[3]
        return {
            (alpha, beta, g + b0, g + c0): s * swap
            for (alpha, beta, g), s in core.items()
        }

    def power_product(self, k: Sequence[int]) -> "OqElement":
        """Expand a^k1 d^k2 b^k3 c^k4 for an arbitrary natural exponent vector."""
        k1, k2, k3, k4 = k
        if min(k1, k2, k3, k4) < 0:
            raise ValueError("exponents must be natural numbers")
        core = self._core(k1, 0, 0, k2) if k2 else {(k1, 0, 0): self.ring.one}
        return OqElement(
            self,
            {(a, d, g + k3, g + k4): s for (a, d, g), s in core.items()},
        )

    # -- word rewriting engine ---------------------------------------------------

    def _rewrite_rules(self) -> dict[str, tuple[tuple[Scalar, str], ...]]:
        if self._rules is None:
            self._rules = {
                pair: tuple((self.ring.q_pow(e), repl) for e, repl in subs)
                for pair, subs in _REWRITES.items()
            }
        return self._rules

    def normal_form(self, words, strategy: str = "leftmost") -> "OqElement":
        """PBW form of a word (or scalar combination of words) in a, b, c, d.

        ``strategy`` picks which reducible pair is rewritten first
        ("leftmost" or "rightmost"); the result is the same either way,
        which the test suite checks exhaustively on short words.
        """
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError("strategy must be 'leftmost' or 'rightmost'")
        if isinstance(words, str):
            pairs = [(self.ring.one, words)]
        elif isinstance(words, Mapping):
            pairs = [(c, w) for w, c in words.items()]
        else:
            pairs = words
        agenda: dict[str, Scalar] = {}
        for c, w in pairs:
            if any(ch not in _RANK for ch in w):
                raise ValueError(f"word {w!r} uses unknown generators")
            if not isinstance(c, Scalar):
                c = self.ring.from_rational(c)
            accumulate(agenda, w, c)
        rules = self._rewrite_rules()
        out: dict[Index, Scalar] = {}
        while agenda:
            word, coeff = agenda.popitem()
            positions = range(len(word) - 1)
            if strategy == "rightmost":
                positions = range(len(word) - 2, -1, -1)
            hit = None
            for i in positions:
                if word[i : i + 2] in rules:
                    hit = i
                    break
            if hit is None:
                idx = (
                    word.count("a"),
                    word.count("d"),
                    word.count("b"),
                    word.count("c"),
                )
                assert word == "a" * idx[0] + "d" * idx[1] + "b" * idx[2] + "c" * idx[3]
                accumulate(out, idx, coeff)
                continue
            head, tail = word[:hit], word[hit + 2 :]
            for factor, repl in rules[word[hit : hit + 2]]:
                accumulate(agenda, head + repl + tail, coeff * factor)
        return OqElement(self, out)

    # -- degree bookkeeping --------------------------------------------------------

    def monomial_degree(self, k: Sequence[int], use_word_engine: bool = False) -> Index:
        """Leading index of a^k1 d^k2 b^k3 c^k4, checked against an expansion.

        Computes the closed-form answer and independently normal-forms the
        monomial (structured product by default, the word engine on request),
        raising if the two disagree.
        """
        k = tuple(k)
        formula = leading_index(k)
        if use_word_engine:
            word = "a" * k[0] + "d" * k[1] + "b" * k[2] + "c" * k[3]
            expanded = self.normal_form(word)
        else:
            expanded = self.power_product(k)
        oracle = expanded.deg()
        if formula != oracle:
            raise ArithmeticError(
                f"leading-index formula {formula} disagrees with expansion {oracle}"
            )
        return formula

    def lifted_leading_index(self, u: Sequence[int], v: Sequence[int]) -> Index:
        """Leading index of the product of an N-th power monomial and a box monomial.

        ``u`` must be a PBW index, ``v`` must lie in the basis box; the result
        is the leading index of the exponent vector N*u + v.  This map is
        injective on its domain, which the tests check exhaustively on ranges.
        """
        n = self.order
        u = tuple(u)
        v = tuple(v)
        if not is_pbw_index(u):
            raise ValueError(f"{u} is not a PBW index")
        if not (is_pbw_index(v) and v[0] == 0 and max(v) < n):
            raise ValueError(f"{v} is not in the basis box")
        return leading_index(tuple(n * a + b for a, b in zip(u, v)))

    # -- diagonal tower membership ----------------------------------------------

    def in_diagonal_tower(self, x: "OqElement", t: int, allow_sign: bool = False) -> bool:
        """Whether x = 1 + k_1 bc + ... + k_t (bc)^t with k_t a power of q.

        With ``allow_sign`` the top coefficient may also be minus a power
        of q; by default the literal shape is required.  t = 0 means x = 1.
        """
        if x.algebra is not self and x.algebra != self:
            raise ValueError("element from a different algebra")
        if t < 0:
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
        return self.ring.is_q_power(top, allow_sign=allow_sign)

    # -- the N-th power subalgebra -------------------------------------------------

    def frobenius_generator(self, letter: str) -> "OqElement":
        """The N-th power of a generator (a single PBW monomial)."""
        n = self.order
        exp = [0, 0, 0, 0]
        exp[_RANK[letter]] = n
        return self.basis_monomial(tuple(exp))

    def frobenius_monomial(self, u: Sequence[int]) -> "OqElement":
        """Basis monomial of the N-th power subalgebra with PBW index N*u."""
        n = self.order
        u = tuple(u)
        if not is_pbw_index(u):
            raise ValueError(f"{u} is not a PBW index")
        return self.basis_monomial(tuple(n * e for e in u))

    def is_frobenius_element(self, x: "OqElement") -> bool:
        """Whether x is supported on indices divisible by N in every slot."""
        n = self.order
        return all(all(e % n == 0 for e in k) for k in x.terms)

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
            if not (is_pbw_index(v) and v[0] == 0 and max(v) < n):
                raise ValueError(f"{v} is not in the basis box")
            if coeff.is_zero():
                raise ValueError("coefficients must be nonzero")
            if not self.is_frobenius_element(coeff):
                raise ValueError(
                    "coefficient is not in the N-th power subalgebra"
                )
            for w in coeff.terms:
                lifted.append(leading_index(tuple(a + b for a, b in zip(w, v))))
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
        The identity is re-expanded and checked before returning.
        """
        n = self.order
        m = tuple(m)
        if not is_pbw_index(m):
            raise ValueError(f"{m} is not a PBW index")
        k1, k2, k3, k4 = m
        u, v = divmod(k1, n)
        coeffs: dict[Index, OqElement] = {}
        if v == 0:
            power = 0
            g2, r2 = divmod(k2, n)
            g3, r3 = divmod(k3, n)
            g4, r4 = divmod(k4, n)
            coeffs[(0, r2, r3, r4)] = self.frobenius_monomial((u, g2, g3, g4))
        else:
            power = 1
            diag = self._diag(v)
            for g, e in diag.items():
                scal = e * self.ring.q_pow(-4 * g * (n - v))
                g3, r3 = divmod(g + k3, n)
                g4, r4 = divmod(g + k4, n)
                term = scal * self.frobenius_monomial((u, 0, g3, g4))
                accumulate(coeffs, (0, n - v, r3, r4), term)
        lhs = self.basis_monomial(m)
        if power:
            lhs = self.basis_monomial((0, n, 0, 0)) * lhs
        if lhs != self._combine(coeffs):
            raise ArithmeticError("localized expression failed re-expansion")
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
            diag = self._diag(j)
            inv_top = diag[j].inverse()
            alpha, beta = r3 - j, r4 - j
            out = {
                (0, j, alpha, beta): inv_top * self.frobenius_monomial((1, 0, 0, 0))
            }
            for i, e_i in diag.items():
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
        m = tuple(m)
        if not is_pbw_index(m):
            raise ValueError(f"{m} is not a PBW index")
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
            raise ArithmeticError("spanning expression failed re-expansion")
        return SpanningExpression(coefficients=coeffs)

    def _combine(self, coeffs: Mapping[Index, "OqElement"]) -> "OqElement":
        """The element sum_idx coeffs[idx] * O_idx, accumulated in place."""
        return self.zero().add_all(c * self.basis_monomial(idx) for idx, c in coeffs.items())


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
        acc: dict[Index, Scalar] = {}
        mul_basis = self.parent._mul_basis
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                cuv = cu * cv
                for k, s in mul_basis(u, v).items():
                    accumulate(acc, k, cuv * s)
        return acc

    @staticmethod
    def _format_term(k: Index, coeff: Scalar) -> str:
        return f"({coeff})*O{k}"


@dataclass(frozen=True)
class IndependenceCertificate:
    certified: bool
    lifted_indices: tuple[Index, ...]
    indices_distinct: bool
    combination_nonzero: bool


@dataclass(frozen=True)
class LocalizedExpression:
    power: int
    coefficients: dict[Index, OqElement]


@dataclass(frozen=True)
class SpanningExpression:
    coefficients: dict[Index, OqElement]
