"""Differential operators on polynomials over Q(i).

Everything is exact.  The pairing <., .> used throughout is the bilinear
sum of coordinatewise products, with no conjugation; the same convention
backs f(D), the constant-coefficient operator obtained by substituting
d/dz_i for z_i in f.  Every derivative runs on the packed integer form:
each input is packed once and each output entry reduced once.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

from .gaussrat import GaussianRational, ScalarLike
from .poly import Poly, _Packed, _poly_dot


def _partials(p: Poly, top: int) -> List[_Packed]:
    """The first partials of p, packed once at the width of top >= deg p."""
    form = _Packed.of(p, top)
    return [form.partial(i) for i in range(p.arity)]


def partial(p: Poly, index: int) -> Poly:
    if not 0 <= index < p.arity:
        raise ValueError(f"variable index {index} out of range for arity {p.arity}")
    return _Packed.of(p, p.degree()).partial(index).poly()


def partial_multi(p: Poly, orders: Sequence[int]) -> Poly:
    """d^|orders| p / dz^orders, as apply_D of the monomial z^orders."""
    if len(orders) != p.arity:
        raise ValueError(f"need {p.arity} derivative orders, got {len(orders)}")
    return apply_D(Poly(p.arity, {tuple(orders): 1}), p)


def laplacian(p: Poly) -> Poly:
    return _Packed.of(p, p.degree()).laplacian().poly()


def laplacian_iter(p: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    for _ in range(k):
        if p.is_zero():
            break
        p = laplacian(p)
    return p


def laplacian_powers_table(p: Poly, top: int, offsets: Sequence[int],
                           pairs: Optional[Sequence[tuple]] = None) -> List[List[Poly]]:
    """rows[j][m] = Delta^m P^{m + offsets[j]} for m = 0..top, Delta given by the field
    pairs of _Packed.laplacian (default the Laplacian of these coordinates).

    The powers of P are formed in turn, each once, and each is dropped as
    soon as every row that reads it has its entry.  Each power's Laplacians
    are iterated on integers; only the entries the rows read are reduced.
    """
    rows: List[List[Poly]] = [[] for _ in offsets]
    power = Poly.one(p.arity)
    for i in range(max(offsets) + top + 1):
        if i:
            power = p if i == 1 else power * p
        ms = sorted({i - k for k in offsets if 0 <= i - k <= top})
        if not ms:
            continue  # no row reads this power: it only feeds the next product
        form, depth = _Packed.of(power, power.degree()), 0
        for m in ms:
            while depth < m and form.terms:
                form, depth = form.laplacian(pairs), depth + 1
            image = form.poly()
            for row, k in zip(rows, offsets):
                if k == i - m:
                    row.append(image)
    return rows


def grad_pair(p: Poly, q: Poly) -> Poly:
    """<grad p, grad q> = sum_i (dp/dz_i)(dq/dz_i), bilinear, as one dot."""
    if p.arity != q.arity:
        raise ValueError("arity mismatch")
    top = p.degree() + q.degree()
    pairs = list(zip(_partials(p, top), _partials(q, top)))
    return _Packed.dot(pairs).poly() if pairs else Poly.zero(p.arity)


def sigma_squared(arity: int) -> Poly:
    """sum_i z_i^2, whose operator image under f(D) is the Laplacian."""
    terms = {}
    for i in range(arity):
        terms[tuple(2 if j == i else 0 for j in range(arity))] = GaussianRational(1)
    return Poly(arity, terms)


def apply_D(f: Poly, g: Poly) -> Poly:
    """f(D) g: substitute d/dz_i for z_i in f, apply the operator to g; the term
    z^e of g has the image c perm(e, s) z^(e - s) per term c z^s of f."""
    if f.arity != g.arity:
        raise ValueError("arity mismatch")
    top = max(f.degree(), g.degree())
    return _Packed.of(g, top).apply_D(_Packed.of(f, top)).poly()


def compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def multinomial(total: int, parts: Sequence[int]) -> int:
    c = math.factorial(total)
    for s in parts:
        c //= math.factorial(s)
    return c


def mixed_partial_pair(a: Poly, b: Poly, k: int) -> Poly:
    """sum over |s| = k of (k choose s) (d^s a)(d^s b), a and b packed once, as one dot."""
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    top = max(a.degree() + b.degree(), k)
    fa, fb = _Packed.of(a, top), _Packed.of(b, top)
    pairs, weights = [], []
    for s in compositions(k, a.arity):
        op = _Packed.of(Poly(a.arity, {s: 1}), top)
        if (da := fa.apply_D(op)).terms and (db := fb.apply_D(op)).terms:
            pairs.append((da, db))
            weights.append(multinomial(k, s))
    return _Packed.dot(pairs, weights).poly() if pairs else Poly.zero(a.arity)


# -- vectors and matrices of polynomials -------------------------------------


class PolyVector:
    __slots__ = ("arity", "entries")

    def __init__(self, entries: Sequence[Poly]):
        entries = list(entries)
        if not entries:
            raise ValueError("empty vector")
        arity = entries[0].arity
        if any(p.arity != arity for p in entries):
            raise ValueError("mixed arities in vector")
        self.arity = arity
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Poly:
        return self.entries[i]

    def __iter__(self) -> Iterator[Poly]:
        return iter(self.entries)

    def __add__(self, other: "PolyVector") -> "PolyVector":
        return PolyVector([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyVector") -> "PolyVector":
        return PolyVector([a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, value: ScalarLike) -> "PolyVector":
        return PolyVector([p.scale(value) for p in self.entries])

    def dot(self, other: "PolyVector") -> Poly:
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return _poly_dot(self.arity, list(zip(self.entries, other.entries)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyVector):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __repr__(self) -> str:
        return "PolyVector([" + ", ".join(str(p) for p in self.entries) + "])"


def _max_degree(rows: Sequence[Sequence[Poly]]) -> int:
    return max(p.degree() for r in rows for p in r)


def _packed(rows: Sequence[Sequence[Poly]], top: int) -> List[List[_Packed]]:
    return [[_Packed.of(p, top) for p in r] for r in rows]


class PolyMatrix:
    __slots__ = ("arity", "rows")

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        arity = rows[0][0].arity
        if any(p.arity != arity for r in rows for p in r):
            raise ValueError("mixed arities in matrix")
        self.arity = arity
        self.rows = rows

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def __getitem__(self, i: int) -> List[Poly]:
        return self.rows[i]

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        _, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        top = _max_degree(self.rows) + _max_degree(other.rows)
        a, b = _packed(self.rows, top), _packed(other.rows, top)
        return PolyMatrix([[_Packed.dot([(row[t], b[t][j]) for t in range(k)]).poly()
                            for j in range(m)] for row in a])

    def __pow__(self, exponent: int) -> "PolyMatrix":
        n, m = self.shape
        if n != m:
            raise ValueError("power of a non-square matrix")
        if not isinstance(exponent, int) or exponent < 1:
            raise ValueError("matrix exponent must be a positive integer")
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def trace_powers(self, k: int) -> List[Poly]:
        """[Tr M^m for m = 1..k]; M^m stays on integers and Tr M^{m+1} is the one dot
        sum_{i,t} (M^m)_it M_ti, so only the traces are reduced.  A symmetric M (a Hessian)
        has symmetric powers: only cells i <= t are formed, weighed 2 off the diagonal."""
        if k < 1:
            return []
        n, sym = len(self.rows), self.rows == [list(col) for col in zip(*self.rows)]
        cells = [(i, t) for i in range(n) for t in range(i if sym else 0, n)]
        base = _packed(self.rows, k * _max_degree(self.rows))
        power = base
        traces = [self.trace()]
        for m in range(1, k):
            traces.append(_Packed.dot([(power[i][t], base[t][i]) for i, t in cells],
                                      [1 + (sym and i != t) for i, t in cells]).poly())
            if m + 1 < k:
                nxt = {(i, j): _Packed.dot([(power[i][t], base[t][j]) for t in range(n)])
                       for i, j in cells}
                power = [[nxt[min(i, j), max(i, j)] if sym else nxt[i, j] for j in range(n)]
                         for i in range(n)]
        return traces

    def trace(self) -> Poly:
        n, m = self.shape
        if n != m:
            raise ValueError("trace of a non-square matrix")
        total = Poly.zero(self.arity)
        for i in range(n):
            total = total + self.rows[i][i]
        return total

    def is_zero(self) -> bool:
        return all(p.is_zero() for r in self.rows for p in r)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(str(p) for p in r) + "]" for r in self.rows)
        return f"PolyMatrix({body})"


def cofactor_det(rows: Sequence[Sequence], zero):
    """Determinant of a nonempty square matrix over any ring, by cofactor expansion.

    Entries need +, -, * and is_zero(); fine at the ranks used here.
    """
    if len(rows) == 1:
        return rows[0][0]
    total = zero
    for j, top in enumerate(rows[0]):
        if top.is_zero():
            continue
        piece = top * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]], zero)
        total = total + piece if j % 2 == 0 else total - piece
    return total


def poly_det(matrix: PolyMatrix) -> Poly:
    """Determinant by cofactor expansion."""
    n, m = matrix.shape
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    return cofactor_det(matrix.rows, Poly.zero(matrix.arity))


# -- composite operators -----------------------------------------------------


def grad(p: Poly) -> PolyVector:
    if p.arity == 0:
        raise ValueError("gradient needs at least one variable")
    return PolyVector([d.poly() for d in _partials(p, p.degree())])


def hessian(p: Poly) -> PolyMatrix:
    if p.arity == 0:
        raise ValueError("hessian needs at least one variable")
    n = p.arity
    firsts = _partials(p, p.degree())
    rows = [[Poly.zero(n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = firsts[i].partial(j).poly()
    return PolyMatrix(rows)


def jacobian(vec: PolyVector) -> PolyMatrix:
    return PolyMatrix([[d.poly() for d in _partials(p, p.degree())] for p in vec])


def jacobian_det(vec: PolyVector) -> Poly:
    if len(vec) != vec.arity:
        raise ValueError("jacobian determinant needs as many components as variables")
    return poly_det(jacobian(vec))


# -- identity checkers --------------------------------------------------------


def leibniz_identity_check(p: Poly, m: int) -> Tuple[Poly, Poly]:
    """Both sides of Delta p^{m+1} = (m+1) p^m Delta p + m(m+1) p^{m-1} <grad p, grad p>."""
    if m < 1:
        raise ValueError("m must be at least 1")
    (p_m1, _), (p_m, lhs) = laplacian_powers_table(p, 1, (m - 1, m))
    rhs = _poly_dot(p.arity, [(p_m, laplacian(p)), (p_m1, grad_pair(p, p))],
                    [m + 1, m * (m + 1)])
    return lhs, rhs


def laplacian_product_expansion(g: Poly, f: Poly, l: int) -> Tuple[Poly, Poly]:
    """Both sides of the iterated-Laplacian product rule of order l.

    Delta^l (g f) = sum over k1+k2+k3 = l of 2^k2 (l choose k1,k2,k3)
    times the k2-fold mixed-derivative pairing of Delta^k1 g with Delta^k3 f.
    """
    if g.arity != f.arity:
        raise ValueError("arity mismatch")
    if l < 0:
        raise ValueError("order must be nonnegative")
    lhs = laplacian_iter(g * f, l)
    g_lap = [g]
    f_lap = [f]
    for _ in range(l):
        g_lap.append(laplacian(g_lap[-1]))
        f_lap.append(laplacian(f_lap[-1]))
    rhs = Poly.zero(g.arity)
    for k1 in range(l + 1):
        for k2 in range(l - k1 + 1):
            k3 = l - k1 - k2
            weight = (2 ** k2) * multinomial(l, (k1, k2, k3))
            piece = mixed_partial_pair(g_lap[k1], f_lap[k3], k2)
            if not piece.is_zero():
                rhs = rhs + piece.scale(weight)
    return lhs, rhs


def kfactorial_fD_identity(f: Poly, g: Poly) -> Tuple[Poly, Poly]:
    """Both sides of sum_{|s|=k} (k choose s) (d^s f)(d^s g) = k! f(D) g.

    Requires f homogeneous (of degree k); the left side then has constant
    first factors and collapses to the operator form on the right.
    """
    k = f.is_homogeneous()
    if k is None:
        raise ValueError("f must be homogeneous and nonzero")
    lhs = mixed_partial_pair(f, g, k)
    rhs = apply_D(f, g).scale(math.factorial(k))
    return lhs, rhs
