"""Integer matrix routines: Hermite normal form and coordinates over it.

All matrices are lists of lists of python ints, row-major.  Rows span the
lattice.  The HNF used here is the row echelon form: pivots move right as
you go down, pivot entries are positive, and entries above a pivot are
reduced into [0, pivot).

hnf_rows runs the one elimination, on the rows alone; no elimination
carries a unimodular transform along.

A rational lattice or matrix is integer rows over one positive
denominator.  check_int_rows guards that format, and canonical_lattice
gives the canonical form of a lattice in it: HNF rows, full rank, and
no common factor of the denominator and every entry, so equal lattices
have equal (rows, den).  integral_rows clears Fraction input into it.

Coordinates and membership run in integers: inverse_rows gives the
inverse of a square HNF as an integer matrix over one denominator, by
integer back-substitution, so that the coordinates of integer vectors
over a lattice (lattice_coords) are one int_product, and a vector lies in
the lattice exactly when they are integral.  Over an HNF of lower rank,
echelon_coords reads the coordinates off the pivots.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import mul


def integral_rows(rows):
    """(d, int_rows) with int_rows = d * rows, d the least common denominator.

    Entries may be ints or Fractions.
    """
    d = lcm(*(v.denominator for row in rows for v in row))
    return d, [[v.numerator * (d // v.denominator) for v in row] for row in rows]


def check_int_rows(rows, den):
    """Raise ValueError unless rows holds ints only and den is an int > 0."""
    if not isinstance(den, int) or den <= 0:
        raise ValueError("denominator must be a positive integer")
    if not all(isinstance(c, int) for row in rows for c in row):
        raise ValueError("rows must hold integers")


def lowest_terms(rows, den):
    """(rows, den) with the common factor of den and every entry divided out."""
    g = gcd(den, *(c for row in rows for c in row))
    if g > 1:
        rows = [[c // g for c in row] for row in rows]
        den //= g
    return rows, den


def canonical_lattice(rows, den, rank):
    """(H, d) with H / d the canonical basis of the lattice rows / den:
    H is the row HNF, in lowest terms with d.

    Raises ValueError unless the lattice has the given rank.
    """
    check_int_rows(rows, den)
    h = hnf_rows(rows)
    if len(h) != rank:
        raise ValueError("lattice does not have full rank")
    return lowest_terms(h, den)


def int_product(a, b):
    """Product of two integer matrices given as row lists."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def abs_det(mat):
    """|det| of a square integer matrix: the product of its HNF pivots."""
    h = hnf_rows(mat)
    if len(h) < len(mat):
        return 0
    return prod(row[i] for i, row in enumerate(h))


def identity_int(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf_rows(mat):
    """Row HNF with zero rows dropped; canonical basis of the row lattice."""
    h = [list(row) for row in mat]
    n = len(h)
    m = len(h[0]) if n else 0
    row = 0
    for col in range(m):
        # find a pivot at or below `row` in this column
        piv = None
        for i in range(row, n):
            if h[i][col]:
                piv = i
                break
        if piv is None:
            continue
        h[row], h[piv] = h[piv], h[row]
        # kill entries below via extended gcd steps
        for i in range(row + 1, n):
            while h[i][col]:
                q = h[row][col] // h[i][col]
                if q:
                    h[row] = [a - q * b for a, b in zip(h[row], h[i])]
                h[row], h[i] = h[i], h[row]
        if h[row][col] < 0:
            h[row] = [-a for a in h[row]]
        # reduce entries above the pivot
        p = h[row][col]
        for i in range(row):
            q = h[i][col] // p
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[row])]
        row += 1
        if row == n:
            break
    # the rows from `row` on are zero in every column
    return h[:row]


def lattice_coords(inv, lat_den, mat, den):
    """Integer coordinates of the integer vectors mat[i] / den over rows /
    lat_den, inv = inverse_rows(rows); None when one lies outside."""
    adj, rho = inv
    q = den * rho
    out = []
    for row in int_product(mat, adj):
        row = [c * lat_den for c in row]
        if any(c % q for c in row):
            return None
        out.append([c // q for c in row])
    return out


def echelon_coords(h, mat):
    """Integer coordinates of the integer rows of mat over the rows of h,
    an HNF of any rank (hnf_rows); None when one lies outside their span.

    Each row of h is the first with a nonzero entry at its pivot, so the
    coordinates come off the pivots in order, by exact division.
    """
    pivots = [next(j for j, c in enumerate(row) if c) for row in h]
    out = []
    for v in mat:
        coords = []
        for row, p in zip(h, pivots):
            c, r = divmod(v[p], row[p])
            if r:
                return None
            if c:
                v = [a - c * b for a, b in zip(v, row)]
            coords.append(c)
        if any(v):
            return None
        out.append(coords)
    return out


def integral_preimage_rows(mat, den):
    """(rows, d): basis rows / d of the lattice {x in Q^n : x * mat / den
    is integral}.

    `mat` is an n x m integer matrix of full row rank n (so the preimage
    is itself a rank-n lattice in Q^n) and den > 0.  The condition says
    x pairs integrally with every column, so the preimage is the dual of
    the lattice the columns generate; that dual is the inverse transpose
    of a column lattice basis.
    """
    n = len(mat)
    basis = hnf_rows(list(zip(*mat)))
    if len(basis) != n:
        raise ValueError("matrix does not have full row rank")
    adj, d = inverse_rows(basis)
    # dual of rowspan(basis / den) has basis rows den * (basis^-1)^T
    return [[den * adj[k][i] for k in range(n)] for i in range(n)], d


def inverse_rows(rows):
    """(adj, d) with adj / d the inverse of a square integer HNF matrix.

    adj is an integer matrix and d > 0 the least common denominator.
    The rows are upper triangular, so with D the product of the pivots,
    row k of D * rows^-1 solves w * rows = D e_k by back-substitution,
    column by column, in exact integer division.
    """
    n = len(rows)
    if any(len(row) != n or row[i] <= 0 or any(row[:i]) for i, row in enumerate(rows)):
        raise ValueError("rows are not a square HNF matrix of full rank")
    D = prod(row[i] for i, row in enumerate(rows))
    adj = []
    for k in range(n):
        w = [0] * n
        w[k] = D // rows[k][k]
        for j in range(k + 1, n):
            w[j] = -sum(w[i] * rows[i][j] for i in range(k, j)) // rows[j][j]
        adj.append(w)
    g = gcd(D, *(c for row in adj for c in row))
    return [[c // g for c in row] for row in adj], D // g
