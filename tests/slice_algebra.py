"""The alpha1 = 0 slice over real symbols, for the sympy proofs in
tests/test_tf_identities.py, tests/test_gc_identities.py,
tests/test_gc_disk_identities.py, tests/test_lc_identities.py,
tests/test_face_family_identities.py, tests/test_line_and_contact_identities.py,
tests/test_vertex_identities.py, tests/test_incidence_identities.py,
tests/test_tf_margin_identities.py and tests/test_bitangency_identities.py.

c = cos(alpha2) and s = sin(alpha2) are real symbols; an expression is an
identity of the slice when it vanishes modulo c^2 + s^2 - 1 and whatever
relations its other symbols obey (`zero`), and a polynomial in one symbol
is positive on an interval by Sturm's count (`positive`).  S and T are the closed forms of
`family.rho_s` and `family.rho_t` at alpha1 = 0, U = S^-1 T, and the points
are built from them as `reference.face_points` builds its rows: P_U, P_V,
P_W and UI_PW are the lifts of `verify.FaceFamily`'s tori, whose box rows
the proofs form with `box`.  INVOLUTION is the involution that fixes p_U
and swaps p_V with p_W.
"""

import sympy as sp

c, s = sp.symbols("c s", real=True)
I, SQ2 = sp.I, sp.sqrt(2)
E = c + I * s  # e^{i alpha2}
J = sp.Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # the Siegel form, J^-1 = J


def conj(x):
    """The complex conjugate of an expression or matrix over real symbols."""
    return x.subs(I, -I) if isinstance(x, sp.Expr) else x.applyfunc(lambda y: y.subs(I, -I))


def inv(M):
    """M^-1 = J^-1 M^H J for M in U(2,1), as `Isometry.inv` forms it."""
    return J * conj(M).T * J


def inner(u, v):
    """<u, v> = u^H J v."""
    return sp.expand((conj(u).T * J * v)[0])


def box(a, b):
    """J^-1 conj(a x b), as `reference.box_rows`."""
    return J * conj(a.cross(b))


def positive(expr, lo, hi=sp.oo) -> bool:
    """expr, a polynomial in one symbol, is positive on the open interval
    (lo, hi): Sturm's count (`Poly.count_roots`) finds no root inside it,
    and expr is positive at a point, in exact rational arithmetic."""
    p = sp.Poly(expr)
    ends = [e for e in (lo, hi) if e is not sp.oo and p.eval(e) == 0]
    inside = p.count_roots(lo, None if hi is sp.oo else hi) - len(ends)
    return inside == 0 and p.eval(lo + 1 if hi is sp.oo else sp.S(lo + hi) / 2) > 0


def zero(expr, relations, gens) -> bool:
    """expr vanishes on the variety of `relations`, a Groebner basis in the
    lex order of `gens`: its real and imaginary parts reduce to 0."""
    expr = sp.expand(expr)
    parts = [expr.subs(I, 0), sp.expand((expr - expr.subs(I, 0)) / I)]
    return all(sp.reduced(p, relations, *gens)[1] == 0 for p in parts)


# rho_s and rho_t at alpha1 = 0: x1 = sqrt2, unit phase
S = sp.Matrix([[1, SQ2 * conj(E), -1], [-SQ2 * E, -1, 0], [-1, 0, 0]])
T = sp.Matrix([[0, 0, -1], [0, -1, -SQ2 * conj(E)], [-1, SQ2 * E, 1]])
U = (inv(S) * T).expand()
P_A, P_B = sp.Matrix([1, 0, 0]), sp.Matrix([0, 0, 1])
P_U = sp.Matrix([1, -SQ2 / 2 * E, E**2])
P_V = (S * P_U).expand()
P_W = (S * P_V).expand()
U_PA = (U * P_A).expand()
U_PB = (U * P_B).expand()
UI_PB = (inv(U) * P_B).expand()
U_PV = (U * P_V).expand()
UI_PV = (inv(U) * P_V).expand()
UI_PW = (inv(U) * P_W).expand()
INVOLUTION = sp.Matrix([[1, 0, 0], [-SQ2 * E, -1, 0], [-1, -SQ2 * conj(E), 1]])


def eigenvector(delta):
    """`face_points`' row p_U' (delta) or p_U'' (-delta), the eigenvectors of
    U off the unipotent wall, with delta = sqrt((8c^2 - 3)(8c^2 + 1))."""
    return sp.Matrix([2 * (2 * E**2 + 1), -SQ2 * E * (2 * E**2 + 1 + delta), -(8 * c * c + 1) - delta])
