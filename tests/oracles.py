"""The slow references the property tests compare mf2 against, each written once.

This module imports no mf2 module (tests/test_layering.py checks that), so
a fault in mf2 cannot reach an expected value.  The oracles take plain
data: a field element is an int whose bit i is the coefficient of t^i, the
field GF(2)[t]/(m) is its modulus m as an int, a polynomial is a dict
{exponent tuple: nonzero coefficient}, and a matrix is a list of rows.
sympy enters through one conversion pair in the encoding GF(2)[t, x, ...],
bit i of a coefficient carried by t^i.  Its eliminations and products
share no code with mf2; the sympy oracles reuse this module's GF(2^k)
product and matrix loop to set up their inputs.
"""

from __future__ import annotations

import functools
import itertools
import operator

import sympy
from sympy import GF
from sympy.polys.matrices import DomainMatrix

# -- GF(2^k) ---------------------------------------------------------------------


def gf_mod(a: int, m: int) -> int:
    """The remainder of a modulo m in GF(2)[t]."""
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def gf_mul(a: int, b: int, m: int | None = None) -> int:
    """a * b in GF(2)[t], reduced modulo m unless m is None."""
    p = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            p ^= a << i
    return p if m is None else gf_mod(p, m)


def gf_inv(a: int, m: int) -> int:
    """The inverse of a != 0 modulo an irreducible m of degree k, by Fermat:
    a^(2^k - 2) = a^2 * a^4 * ... * a^(2^(k-1))."""
    if not a:
        raise ZeroDivisionError("inverse of zero")
    r, square = 1, a
    for _ in range(m.bit_length() - 2):
        square = gf_mul(square, square, m)
        r = gf_mul(r, square, m)
    return r


def trial_division_irreducible(m: int) -> bool:
    """The trial-division test Rabin's test replaced: no factor of degree
    1..k/2 divides m."""
    k = m.bit_length() - 1
    if k < 2:
        return k == 1
    return all(gf_mod(m, d) for d in range(2, 1 << (k // 2 + 1)))


def evaluate(terms: dict, point, m: int) -> int:
    """A polynomial's value at a point of field elements, nonzero where an
    exponent is negative."""
    total = 0
    for e, c in terms.items():
        for x, d in zip(point, e):
            for _ in range(abs(d)):
                c = gf_mul(c, x if d > 0 else gf_inv(x, m), m)
        total ^= c
    return total


# -- dense elimination -----------------------------------------------------------


def dense_echelon(rows, m: int):
    """Gauss-Jordan elimination: the reduced row echelon form of rows, its
    zero rows last, and the list of its pivot columns."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        pr = len(pivots)
        sel = next((i for i in range(pr, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        s = gf_inv(rows[pr][c], m)
        rows[pr] = piv = [gf_mul(s, v, m) for v in rows[pr]]
        for i, row in enumerate(rows):
            if i != pr and row[c]:
                f = row[c]
                rows[i] = [a ^ gf_mul(f, b, m) for a, b in zip(row, piv)]
        pivots.append(c)
    return rows, pivots


def dense_reduce(v, echelon, m: int) -> list[int]:
    """v less its part in the span of a reduced echelon (rows, pivots):
    zero exactly when v lies in the span."""
    for row, p in zip(*echelon):
        c = v[p]
        if c:
            v = [a ^ gf_mul(c, b, m) for a, b in zip(v, row)]
    return v


def dense_rank(rows, m: int) -> int:
    return len(dense_echelon(rows, m)[1])


def dense_kernel_basis(rows, m: int) -> list[list[int]]:
    """One kernel vector per non-pivot column f: 1 at f, and the negated
    (in characteristic 2, the same) column f of the reduced rows at the pivots."""
    red, pivots = dense_echelon(rows, m)
    basis = []
    for free in (c for c in range(len(rows[0])) if c not in pivots):
        vec = [0] * len(rows[0])
        vec[free] = 1
        for row, c in zip(red, pivots):
            vec[c] = row[free]
        basis.append(vec)
    return basis


def dense_solve(rows, b, m: int):
    """The solution of rows * x = b with free variables at zero, or None."""
    n = len(rows[0])
    red, pivots = dense_echelon([list(r) + [v] for r, v in zip(rows, b)], m)
    if n in pivots:
        return None
    x = [0] * n
    for row, c in zip(red, pivots):
        x[c] = row[n]
    return x


def _matmul(a, b, mul, add, zero):
    return [[functools.reduce(add, (mul(x, b[k][j]) for k, x in enumerate(row)), zero)
             for j in range(len(b[0]))] for row in a]


def dense_matmul(a, b, m: int):
    """sum_k a[i][k] b[k][j] for every (i, j)."""
    return _matmul(a, b, lambda x, y: gf_mul(x, y, m), operator.xor, 0)


def dense_minimal_polynomial(rows, m: int) -> dict:
    """The monic p of least degree d with p(M) = 0, as {(degree,): coefficient}:
    d is the first power whose vector is a combination of I, M, ..., M^(d-1),
    and that combination gives the lower coefficients."""
    n = len(rows)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    columns = []
    while True:
        columns.append([v for row in power for v in row])
        power = dense_matmul(power, rows, m)
        x = dense_solve(list(zip(*columns)), [v for row in power for v in row], m)
        if x is not None:
            return {(d,): c for d, c in enumerate(x + [1]) if c}


def dense_class_coordinates(rows, vec, m: int) -> tuple[int, ...]:
    """Coordinates of a closed vector in ker/im of the square matrix rows:
    reduced against the reduced echelon of the image, then read at the
    pivots of the reduced echelon of the kernel reduced the same way."""
    image = dense_echelon(list(zip(*rows)), m)
    local = dense_echelon([dense_reduce(k, image, m) for k in dense_kernel_basis(rows, m)], m)
    red = dense_reduce(list(vec), image, m)
    if any(dense_reduce(red, local, m)):
        raise ValueError("class escapes the local kernel decomposition")
    return tuple(red[p] for p in local[1])


# -- products of polynomials -----------------------------------------------------


def oracle_mul(a: dict, b: dict, m: int) -> dict:
    """Every term pair, one field multiplication each; zero sums dropped."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) ^ gf_mul(c1, c2, m)
    return {e: c for e, c in out.items() if c}


def oracle_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) ^ c
    return {e: c for e, c in out.items() if c}


def oracle_matmul(a, b, m: int):
    """The per-entry `acc + a*b` loop over matrices of polynomials."""
    return _matmul(a, b, lambda x, y: oracle_mul(x, y, m), oracle_add, {})


def brute_force_search(w: dict, size: int, support, m: int):
    """Every assignment of field values to the support monomials of each
    entry, row-major, each entry's monomials in descending grevlex order
    and the values ascending: the size x size matrices that square to w*Id."""
    supp = sorted(set(support), key=lambda e: (sum(e), tuple(-x for x in reversed(e))), reverse=True)

    def squares_to_w(q):  # entry by entry, so most assignments stop at the first
        return all(oracle_matmul([q[i]], [[row[j]] for row in q], m) == [[w if i == j else {}]]
                   for i in range(size) for j in range(size))

    found = []
    for values in itertools.product(range(1 << (m.bit_length() - 1)), repeat=size * size * len(supp)):
        entries = [dict((e, c) for e, c in zip(supp, values[s:]) if c)
                   for s in range(0, len(values), len(supp))]
        q = [entries[i:i + size] for i in range(0, len(entries), size)]
        if squares_to_w(q):
            found.append(q)
    return found


# -- window cohomology -----------------------------------------------------------


def delta_entries(qs, qt, mons_in, mons_out, m: int):
    """Nonzero entries {(row, col): value} and shape of the matrix of
    d(E_ij x^e) = qt E_ij x^e + E_ij x^e qs on Hom(X, Y), Q_X = qs (n x n),
    Q_Y = qt.  Columns run over (cell, e in mons_in) and rows over (cell,
    monomial of mons_out), cell-major, cell i*n + j: qt E_ij puts qt[r][i]
    at cell r*n + j, E_ij qs puts qs[j][c] at cell i*n + c."""
    n = len(qs)
    cells = len(qt) * n
    row_of = {(cell, e): cell * len(mons_out) + b
              for cell in range(cells) for b, e in enumerate(mons_out)}
    entries = {}
    for col, (cell, e) in enumerate(itertools.product(range(cells), mons_in)):
        i, j = divmod(cell, n)
        parts = [(r * n + j, row[i], {e: 1}) for r, row in enumerate(qt)]
        parts += [(i * n + c, {e: 1}, qs[j][c]) for c in range(n)]
        image: dict = {}
        for out, a, b in parts:
            image[out] = oracle_add(image.get(out, {}), oracle_mul(a, b, m))
        entries.update(((row_of[out, x], col), v) for out, p in image.items() for x, v in p.items())
    return entries, (len(row_of), cells * len(mons_in))


def per_radius_dims(qs, qt, laurent, d_max: int, m: int) -> dict[int, int]:
    """h_d = n_d - rank(d|B_d) - (rank(d|B_{d+1}) - rank of its rows outside
    B_d) for d = 1..d_max, where B_d holds the monomials of radius d
    ([-d, d] per Laurent variable, [0, d] otherwise) and the rows of d|B
    the window B grown by the exponent hull of qs and qt (and 0)."""
    exps = [e for q in (qs, qt) for row in q for entry in row for e in entry]
    hull = [(min(*c, 0), max(*c, 0)) for c in zip(*exps)] or [(0, 0)] * len(laurent)

    def box(d, grow=False):
        return list(itertools.product(*(range(-d + grow * lo if flag else 0, d + grow * hi + 1)
                                        for (lo, hi), flag in zip(hull, laurent))))

    cells = len(qs) * len(qt)
    dims = {}
    for d in range(1, d_max + 1):
        inside, out = box(d), box(d + 1, True)
        rank_d = sympy_rank(*delta_entries(qs, qt, inside, box(d, True), m), m)
        big, shape = delta_entries(qs, qt, box(d + 1), out, m)
        outer_row = {r: i for i, r in enumerate(r for r, e in enumerate(out * cells)
                                                if e not in set(inside))}
        outer = {(outer_row[r], c): v for (r, c), v in big.items() if r in outer_row}
        dims[d] = cells * len(inside) - rank_d - (sympy_rank(big, shape, m)
                                                 - sympy_rank(outer, (len(outer_row), shape[1]), m))
    return dims


# -- sympy -----------------------------------------------------------------------


def to_sympy(terms: dict, names, shift=None) -> sympy.Poly:
    """terms times x^shift, which must be a polynomial, over GF(2)[t, names]:
    bit i of a coefficient becomes t^i."""
    gens = sympy.symbols(("t", *names))
    shift = shift or [0] * len(names)
    bits = {(i, *(a + s for a, s in zip(e, shift))): 1
            for e, c in terms.items() for i in range(c.bit_length()) if c >> i & 1}
    return sympy.Poly.from_dict(bits or {(0,) * len(gens): 0}, *gens, modulus=2)


def from_sympy(poly: sympy.Poly, shift=None, modulus: int | None = None) -> dict:
    """The terms of a Poly over GF(2)[t, x, ...], reduced modulo the field
    modulus in t unless it is None, times x^-shift."""
    names = [str(g) for g in poly.gens[1:]]
    if modulus is not None:
        poly = poly.rem(to_sympy({(0,) * len(names): modulus}, names))
    shift = shift or [0] * len(names)
    terms: dict = {}
    for (bit, *exps), c in poly.as_dict().items():
        if int(c) % 2:
            e = tuple(a - s for a, s in zip(exps, shift))
            terms[e] = terms.get(e, 0) ^ 1 << bit
    return terms


def sympy_rank(entries: dict, shape, m: int) -> int:
    """The rank over GF(2)[t]/(m) of the matrix of the given shape and nonzero
    entries {(row, col): value}, from sympy's sparse GF(2) elimination.
    Entry a becomes the k x k matrix of multiplication by a in the power
    basis (column j holds the coordinates of a * t^j); the GF(2) rank of
    that regular representation is k times the rank."""
    k = m.bit_length() - 1
    one = GF(2)(1)
    rows: dict = {}
    for (i, j), a in entries.items():
        for jj in range(k):
            image = gf_mul(a, 1 << jj, m)
            for ii in range(k):
                if image >> ii & 1:
                    rows.setdefault(i * k + ii, {})[j * k + jj] = one
    r = DomainMatrix(rows, (shape[0] * k, shape[1] * k), GF(2)).rank()
    assert r % k == 0
    return r // k


def sympy_sum_of_products(pairs, names, m: int):
    """sum(left * right) over pairs of matrices of polynomials, in sympy,
    each entry reduced modulo m in t.  One shift clears the negative
    exponents of every input, and twice that shift comes off the sums."""
    exps = [e for pair in pairs for mat in pair for row in mat for entry in row for e in entry]
    shift = [-min(*c, 0) for c in zip(*exps)] or [0] * len(names)
    products = [_matmul(*([[to_sympy(e, names, shift) for e in row] for row in mat] for mat in pair),
                        operator.mul, operator.add, to_sympy({}, names)) for pair in pairs]
    return [[from_sympy(sum(entry[1:], entry[0]), [2 * s for s in shift], m) for entry in zip(*rows)]
            for rows in zip(*products)]


def sympy_divide(p: dict, d: dict, names, laurent):
    """p / d over GF(2)[x, ...], Laurent where flagged, if d divides p, else
    None.  Only the Laurent variables are shifted, by each operand's
    content, so that sympy alone decides divisibility in the polynomial
    variables; one divisor is a Groebner basis of the ideal it generates,
    so sympy's remainder is zero exactly when d divides."""
    sp, sd = ([-min(c) if flag else 0 for c, flag in zip(zip(*t), laurent)] for t in (p, d))
    f, g = to_sympy(p, names, sp), to_sympy(d, names, sd)
    [q], r = sympy.reduced(f, [g], *f.gens, modulus=2, order="lex", polys=True)
    return None if not r.is_zero else from_sympy(q, [a - b for a, b in zip(sp, sd)])


def _permuted(terms: dict, order) -> dict:
    return {tuple(e[p] for p in order): c for e, c in terms.items()}


def _grevlex(polys, priority) -> list[sympy.Poly]:
    """polys in sympy on the variables ranked by priority, most significant first."""
    return [to_sympy(_permuted(p, priority), [f"v{i}" for i in priority]) for p in polys]


def _from_grevlex(poly: sympy.Poly, priority) -> dict:
    return _permuted(from_sympy(poly), [priority.index(i) for i in range(len(priority))])


def sympy_basis(gens: list[dict], priority) -> list[dict]:
    """sympy's reduced Groebner basis over GF(2) in grevlex on the variables
    ranked by priority."""
    polys = _grevlex(gens, priority)
    basis = sympy.groebner(polys, *polys[0].gens, modulus=2, order="grevlex")
    return [_from_grevlex(g, priority) for g in basis.polys]


def sympy_normal_form(p: dict, basis: list[dict], priority) -> dict:
    """The remainder of p under full division by basis, in the same order."""
    p, *divisors = _grevlex([p, *basis], priority)
    _, rem = sympy.reduced(p, divisors, *p.gens, modulus=2, order="grevlex", polys=True)
    return _from_grevlex(rem, priority)
