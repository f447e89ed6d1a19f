"""Rank-one coideal computations: the two-dimensional module for the
split rank-one pair and the vector module for the rank-one unitary pair,
spherical vectors under base-point shifts, torus restrictions of matrix
coefficients, and the assembled level products.

Level convention: the level-l spherical element is the product of the
matrix coefficients of the shift-j spherical pairs for j = 0, ..., l-1;
solve_spherical(module, j) returns the shift-j pair.  Its right vector
solves the module's generator constraints, and its left vector solves the
transposed constraints (F_i = E_i^T, K_i is diagonal).  A module keeps
its solved chain, so each shift is solved once per module; callers must
not modify the returned element.

Torus restrictions live on the doubled rank-one lattice where the long
restricted root is the doubled vector (2,): the module's basis weights
restrict to (1,), (0,), ..., (0,), (-1,).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .galg import GAElem
from .roots import D
from .scalars import SC_ONE, SC_ZERO, Scalar
from .weights import binomial_product


def q_pow(k) -> Scalar:
    e = Fraction(k) * D
    if e.denominator != 1:
        raise ValueError("fractional q power not representable")
    return Scalar.v_pow(int(e))


def q_int(l: int) -> Scalar:
    """[l]_q = (q^l - q^-l) / (q - q^-1)."""
    num = q_pow(l) - q_pow(-l)
    den = q_pow(1) - q_pow(-1)
    return num / den


def aiiia_parameter(sigma, m: int) -> Scalar:
    """The generator-parameter ratio of the rank-one unitary pair:
    (-1)^m q^(2 sigma)."""
    if m < 2:
        raise ValueError("m >= 2 required")
    s = q_pow(2 * Fraction(sigma))
    return s if m % 2 == 0 else -s


# ---------------------------------------------------------------------------
# small exact linear algebra
# ---------------------------------------------------------------------------

def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [
        [sum((A[i][t] * B[t][j] for t in range(k)), SC_ZERO) for j in range(m)]
        for i in range(n)
    ]


def mat_scale(M, c):
    return [[x * c for x in row] for row in M]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def eye(n, c=SC_ONE):
    return [[c if i == j else SC_ZERO for j in range(n)] for i in range(n)]


def transpose(M):
    return [list(col) for col in zip(*M)]


def nullspace(rows):
    """Basis of the right nullspace of a stacked constraint matrix."""
    if not rows:
        return []
    m = len(rows[0])
    R = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, len(R)):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = R[r][c].inverse()
        R[r] = [x * inv for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [SC_ZERO] * m
        v[fc] = SC_ONE
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fc]
        basis.append(v)
    return basis


def solve_quadratic(a: Scalar, b: Scalar, c: Scalar):
    """Both roots of a x^2 + b x + c over Q(v); the discriminant must be a
    perfect square (raises otherwise)."""
    disc = b * b - Scalar.of(4) * a * c
    root = disc.sqrt()
    if root is None:
        raise ValueError("character not integrable here")
    two_a = Scalar.of(2) * a
    return ((-b + root) / two_a, (-b - root) / two_a)


def eval_at_one(x: Scalar) -> Fraction:
    d = sum(x.d)
    if d == 0:
        raise ValueError("pole at v=1")
    return Fraction(sum(x.n), d)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

class Rank1Module:
    """A module of build_rank1 and the chain it has solved so far."""

    __slots__ = ("family", "n", "dim", "weights", "c_params", "ops", "chain", "flipped")

    def __init__(self, family, n, dim, weights, c_params, ops):
        self.family = family        # "AI1" or "AIV"
        self.n = n                  # 1 for AI1; >= 2 for AIV
        self.dim = dim              # n + 1
        self.weights = weights      # doubled restricted weight per basis vector
        self.c_params = c_params    # (c,) or (c1, cn)
        self.ops = ops              # the generator table
        # chain[j] is the level-j restriction; flipped serves AIV levels l < 0
        self.chain = [GAElem.unit(1)]
        self.flipped = None


def build_rank1(family: str, n: int = 1, c_params=None) -> Rank1Module:
    """The module of basis w_1..w_{n+1} with its generator table: E_i
    (E_i w_{i+1} = w_i), F_i = E_i^T, K_i and K_i^-1 for i = 1..n, and the
    parameter-free block products; AI1 is the case n = 1 with parameters
    (c,), and AIV adds the braid images T1 and Tn, with (c1, cn)."""
    q = q_pow
    if family == "AI1":
        if n != 1:
            raise ValueError("AI1 is the case n = 1")
        default = (q(-1),)
    elif family == "AIV":
        if n < 2:
            raise ValueError("AIV needs n >= 2")
        default = (q(-1), q(-1))
    else:
        raise ValueError("unknown rank-one family %r" % family)
    c_params = tuple(c_params) if c_params else default
    if len(c_params) != len(default):
        raise ValueError("%s takes %d parameters" % (family, len(default)))
    if not all(c_params):
        raise ValueError("parameters must be nonzero")
    dim = n + 1
    ops = {}
    for i in range(1, n + 1):
        E, K, Kinv = eye(dim, SC_ZERO), eye(dim), eye(dim)
        E[i - 1][i] = SC_ONE
        K[i - 1][i - 1], K[i][i] = q(1), q(-1)
        Kinv[i - 1][i - 1], Kinv[i][i] = q(-1), q(1)
        ops.update({"E%d" % i: E, "F%d" % i: transpose(E),
                    "K%d" % i: K, "K%dinv" % i: Kinv})
    if family == "AIV":
        T1, Tn = eye(dim, SC_ZERO), eye(dim, SC_ZERO)
        T1[1][n] = SC_ONE               # braid image of E_{tau(1)}: w_{n+1} -> w_2
        sign = SC_ONE if n % 2 == 0 else -SC_ONE
        Tn[0][n - 1] = sign * q(-n + 2)   # E_{tau(n)}: w_n -> (-1)^n q^(2-n) w_1
        kn = ops["K%dinv" % n]
        ops.update(T1=T1, Tn=Tn, T1K1inv=mat_mul(T1, ops["K1inv"]),
                   TnKninv=mat_mul(Tn, kn), K1Kninv=mat_mul(ops["K1"], kn))
    else:
        ops.update(E1K1inv=mat_mul(ops["E1"], ops["K1inv"]))
    weights = [(1,)] + [(0,)] * (n - 1) + [(-1,)]
    return Rank1Module(family, n, dim, weights, c_params, ops)


def ai1_b_matrix(module: Rank1Module, c: Scalar, s: Scalar):
    """B = F + c E K^-1 + s K^-1 on the two-dimensional module."""
    o = module.ops
    return mat_add(mat_add(o["F1"], mat_scale(o["E1K1inv"], c)), mat_scale(o["K1inv"], s))


def aiv_blocks(module: Rank1Module, d1: Scalar, dn: Scalar):
    """The constraint blocks of the vector module at parameters (d1, dn):
    F_1 + d1 T1 K_1^-1, F_n + dn Tn K_n^-1, K_1 K_n^-1 - q, and E_j, F_j for
    each 1 < j < n."""
    o, n = module.ops, module.n
    return ([mat_add(o["F1"], mat_scale(o["T1K1inv"], d1)),
             mat_add(o["F%d" % n], mat_scale(o["TnKninv"], dn)),
             mat_add(o["K1Kninv"], eye(module.dim, -q_pow(1)))]
            + [o[g % j] for j in range(2, n) for g in ("E%d", "F%d")])


class SphericalPair(namedtuple("SphericalPair", "level right_vector left_vector character_data")):
    """The shift-level pair: the components of v_l and of f_l, and the
    shifted parameters actually used."""

    __slots__ = ()

    def describe(self) -> str:
        """Human-readable display of the solved vectors, exact coefficients."""
        def fmt(vec):
            bits = ["(%s) w%d" % (c, i + 1) for i, c in enumerate(vec) if c]
            return " + ".join(bits)
        params = ", ".join("%s=%s" % (k, v) for k, v in sorted(self.character_data.items()))
        return "shift %d [%s]\n  right: %s\n  left:  %s" % (
            self.level, params, fmt(self.right_vector), fmt(self.left_vector))


def _ai1_eigenvector(M):
    """The eigenvector a w1 + w2 of M whose branch specializes to +1
    classically."""
    # a M[0][0] + M[0][1] = lam a ; a M[1][0] + M[1][1] = lam
    # eliminate lam: a^2 M[1][0] + a (M[1][1] - M[0][0]) - M[0][1] = 0
    for a in solve_quadratic(M[1][0], M[1][1] - M[0][0], -M[0][1]):
        if eval_at_one(a) == 1:
            return [a, SC_ONE]
    raise ValueError("character not integrable here")


def _kernel_vector(blocks):
    """The one vector killed by every block (up to scale)."""
    basis = nullspace([row for M in blocks for row in M])
    if len(basis) != 1:
        raise ValueError("character not integrable here")
    return basis[0]


def _normalized(vec, i, negate=False):
    """vec scaled so its coordinate i is 1, or -1 when negate."""
    if not vec[i]:
        raise ValueError("cannot normalize: coordinate w%d is zero" % (i + 1))
    s = -vec[i].inverse() if negate else vec[i].inverse()
    return [x * s for x in vec]


def solve_spherical(module: Rank1Module, l: int) -> SphericalPair:
    """The shift-l spherical pair (l >= 0).  The right vector solves the
    generator constraints and the left vector their transposes; both are
    checked against their closed forms (ValueError if off)."""
    if l < 0:
        raise ValueError("negative shifts are handled by the flip symmetry")
    q = q_pow
    if module.family == "AI1":
        if module.c_params[0] != q(-1):
            raise ValueError("solved only at the canonical parameter c = 1/q")
        t = q_int(l)
        v = _ai1_eigenvector(ai1_b_matrix(module, q(-1), t))
        f = _ai1_eigenvector(transpose(ai1_b_matrix(module, q(1), q(1) * t)))
        if v != [q(-l), SC_ONE] or f != [q(-l - 1), SC_ONE]:
            raise ValueError("solved AI1 vectors differ from their closed form")
        return SphericalPair(l, v, f, {"d": q(-1), "t": t})

    c1, cn = module.c_params
    n = module.n
    d1, dn = c1 * q(-l), cn * q(l)
    v = _kernel_vector(aiv_blocks(module, d1, dn))
    # display convention: the last nonzero coordinate is -1
    v = _normalized(v, max(i for i, x in enumerate(v) if x), negate=True)
    # the left vector carries the weight-shifted parameters c_i q^n
    d1r, dnr = c1 * q(n) * q(-l), cn * q(n) * q(l)
    f = _kernel_vector(transpose(M) for M in aiv_blocks(module, d1r, dnr))
    f = _normalized(f, 0)
    sgn = SC_ONE if n % 2 == 0 else -SC_ONE
    if v[0] != d1 or v[-1] != -SC_ONE or f[-1] != -sgn * q(l + 1) * cn:
        raise ValueError("solved AIV vectors differ from their closed form")
    return SphericalPair(l, v, f,
                         {"d1": d1, "dn": dn, "d1_rho": d1r, "dn_rho": dnr})


def matrix_coeff_res(pair: SphericalPair, module: Rank1Module) -> GAElem:
    """Torus restriction of the matrix coefficient of the pair, using the
    orthonormal pairing of basis vectors; normalized so the dominant term
    has coefficient one."""
    out = GAElem(1)
    for j in range(module.dim):
        c = pair.left_vector[j] * pair.right_vector[j]
        if c:
            out = out + GAElem.monomial(1, module.weights[j], c)
    lead, c = out.leading()
    return out.scale(c.inverse())


def chain_res(module: Rank1Module, l: int) -> GAElem:
    """Restriction of the level-l spherical element: the product of the
    shift-j matrix coefficients for j = 0..|l|-1 (flipped module for AIV
    at l < 0).  The module keeps the chain, so each shift is solved once
    per module; callers must not modify the returned element."""
    if l < 0 and module.family == "AIV":
        if module.flipped is None:
            module.flipped = build_rank1("AIV", module.n, module.c_params[::-1])
        module = module.flipped
    chain = module.chain
    while len(chain) <= abs(l):
        j = len(chain) - 1
        chain.append(chain[j] * matrix_coeff_res(solve_spherical(module, j), module))
    return chain[abs(l)]


def fundamental_res(family: str, n: int, l: int, sigma=Fraction(0)) -> GAElem:
    """Closed form of the level-l restriction, with leading coefficient
    one: e^(|l| eps/2) prod_{j<|l|} (1 + X q^(2j+1) e^(-eps)), where X = 1
    for AI1 (n = 1) and X = (-1)^n cn/c1 = q^(2 sigma sign(l)) for AIV."""
    L = abs(l)
    if family == "AI1" and n == 1:
        x = 0
    elif family == "AIV" and n >= 2:
        x = 2 * Fraction(sigma) if l > 0 else -2 * Fraction(sigma)
    else:
        raise ValueError("no rank-one family %r with n = %d" % (family, n))
    atoms = [(-1, q_pow(x + 2 * j + 1).e, (-2,)) for j in range(L)]
    return binomial_product((L,), atoms)
