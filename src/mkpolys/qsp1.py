"""Rank-one coideal computations: the two-dimensional module for the
split rank-one pair and the vector module for the rank-one unitary pair,
spherical vectors under base-point shifts, torus restrictions of matrix
coefficients, and the assembled level products.

Level convention: the level-l spherical element is the product of the
matrix coefficients of the shift-j spherical pairs for j = 0, ..., l-1;
solve_spherical(module, j) returns the shift-j pair.

Torus restrictions live on the doubled rank-one lattice where the long
restricted root is the doubled vector (2,): the module's basis weights
restrict to (1,), (0,), ..., (0,), (-1,).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .galg import GAElem
from .roots import D
from .scalars import SC_ONE, SC_ZERO, Scalar


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


def zeros(n, m):
    return [[SC_ZERO for _ in range(m)] for _ in range(n)]


def eye(n, c=SC_ONE):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = c
    return M


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

@dataclass
class Rank1Module:
    family: str              # "AI1" or "AIV"
    n: int                   # 1 for AI1; >= 2 for AIV
    dim: int
    weights: list            # doubled restricted weight per basis vector
    c_params: tuple          # (c,) or (c1, cn)
    s_param: Scalar
    ops: dict                # primitive generator matrices


def build_rank1(family: str, n: int = 1, c_params=None, s=SC_ZERO) -> Rank1Module:
    q = q_pow
    if family == "AI1":
        c = c_params[0] if c_params else q(-1)
        if not c:
            raise ValueError("parameter c must be nonzero")
        E = zeros(2, 2)
        E[0][1] = SC_ONE
        F = zeros(2, 2)
        F[1][0] = SC_ONE
        K = eye(2)
        K[0][0], K[1][1] = q(1), q(-1)
        Kinv = eye(2)
        Kinv[0][0], Kinv[1][1] = q(-1), q(1)
        ops = {"E": E, "F": F, "K": K, "Kinv": Kinv}
        return Rank1Module("AI1", 1, 2, [(1,), (-1,)], (c,), Scalar.of(s), ops)
    if family == "AIV":
        if n < 2:
            raise ValueError("AIV needs n >= 2")
        c1, cn = c_params if c_params else (q(-1), q(-1))
        if not c1 or not cn:
            raise ValueError("parameters must be nonzero")
        dim = n + 1
        ops = {}
        for i in range(1, n + 1):
            E = zeros(dim, dim)
            E[i - 1][i] = SC_ONE        # E_i w_{i+1} = w_i
            F = zeros(dim, dim)
            F[i][i - 1] = SC_ONE        # F_i w_i = w_{i+1}
            K = eye(dim)
            K[i - 1][i - 1] = q(1)
            K[i][i] = q(-1)
            Kinv = eye(dim)
            Kinv[i - 1][i - 1] = q(-1)
            Kinv[i][i] = q(1)
            ops["E%d" % i] = E
            ops["F%d" % i] = F
            ops["K%d" % i] = K
            ops["K%dinv" % i] = Kinv
        sign = SC_ONE if n % 2 == 0 else -SC_ONE
        coef = sign * q(-n + 2)
        T1 = zeros(dim, dim)            # braid image of E_{tau(1)}: w_{n+1} -> w_2
        T1[1][dim - 1] = SC_ONE
        Tn = zeros(dim, dim)            # braid image of E_{tau(n)}: w_n -> coef w_1
        Tn[0][dim - 2] = coef
        rT1 = zeros(dim, dim)           # transpose-pair under the bilinear form
        rT1[dim - 1][1] = SC_ONE
        rTn = zeros(dim, dim)
        rTn[dim - 2][0] = coef
        ops["Twb_E_tau1"] = T1
        ops["Twb_E_taun"] = Tn
        ops["rho_Twb_E_tau1"] = rT1
        ops["rho_Twb_E_taun"] = rTn
        weights = [(1,)] + [(0,)] * (n - 1) + [(-1,)]
        return Rank1Module("AIV", n, dim, weights, (c1, cn), Scalar.of(s), ops)
    raise ValueError("unknown rank-one family %r" % family)


def ai1_b_matrix(module: Rank1Module, c: Scalar, s: Scalar):
    """B = F + c E K^-1 + s K^-1 on the two-dimensional module."""
    o = module.ops
    M = mat_add(o["F"], mat_scale(mat_mul(o["E"], o["Kinv"]), c))
    return mat_add(M, mat_scale(o["Kinv"], s))


def ai1_rho_b_matrix(module: Rank1Module, c: Scalar, s: Scalar):
    """The transposed generator E + c K^-1 F + s K^-1."""
    o = module.ops
    M = mat_add(o["E"], mat_scale(mat_mul(o["Kinv"], o["F"]), c))
    return mat_add(M, mat_scale(o["Kinv"], s))


def aiv_b_matrices(module: Rank1Module, d1: Scalar, dn: Scalar):
    o = module.ops
    n = module.n
    B1 = mat_add(o["F1"], mat_scale(mat_mul(o["Twb_E_tau1"], o["K1inv"]), d1))
    Bn = mat_add(o["F%d" % n],
                 mat_scale(mat_mul(o["Twb_E_taun"], o["K%dinv" % n]), dn))
    return B1, Bn


def aiv_rho_b_matrices(module: Rank1Module, d1: Scalar, dn: Scalar):
    o = module.ops
    n = module.n
    B1 = mat_add(o["E1"], mat_scale(mat_mul(o["K1inv"], o["rho_Twb_E_tau1"]), d1))
    Bn = mat_add(o["E%d" % n],
                 mat_scale(mat_mul(o["K%dinv" % n], o["rho_Twb_E_taun"]), dn))
    return B1, Bn


@dataclass
class SphericalPair:
    level: int
    right_vector: list      # components of v_l
    left_vector: list       # components of f_l
    character_data: dict    # the shifted parameters actually used

    def describe(self) -> str:
        """Human-readable display of the solved vectors, exact coefficients."""
        def fmt(vec):
            bits = ["(%s) w%d" % (c, i + 1) for i, c in enumerate(vec) if c]
            return " + ".join(bits)
        params = ", ".join("%s=%s" % (k, v) for k, v in sorted(self.character_data.items()))
        return "shift %d [%s]\n  right: %s\n  left:  %s" % (
            self.level, params, fmt(self.right_vector), fmt(self.left_vector))


def _ai1_solve_side(module, d, t, rho_side: bool):
    """Eigenvector a w1 + w2 of the (possibly transposed) generator whose
    branch specializes to +1 classically."""
    if rho_side:
        M = ai1_rho_b_matrix(module, d, t)
    else:
        M = ai1_b_matrix(module, d, t)
    # a M[0][0] + M[0][1] = lam a ; a M[1][0] + M[1][1] = lam
    # eliminate lam: a^2 M[1][0] + a (M[1][1] - M[0][0]) - M[0][1] = 0
    r1, r2 = solve_quadratic(M[1][0], M[1][1] - M[0][0], -M[0][1])
    for a in (r1, r2):
        if eval_at_one(a) == 1:
            return [a, SC_ONE]
    raise ValueError("character not integrable here")


def solve_spherical(module: Rank1Module, l: int) -> SphericalPair:
    """The shift-l spherical pair (l >= 0)."""
    if l < 0:
        raise ValueError("negative shifts are handled by the flip symmetry")
    q = q_pow
    if module.family == "AI1":
        c = module.c_params[0]
        if c != q(-1) or module.s_param:
            raise ValueError("solved only at the canonical parameter c = 1/q")
        t = q_int(l)
        v = _ai1_solve_side(module, q(-1), t, rho_side=False)
        f = _ai1_solve_side(module, q(1), q(1) * t, rho_side=True)
        assert v == [q(-l), SC_ONE]
        assert f == [q(-l - 1), SC_ONE]
        return SphericalPair(l, v, f, {"d": q(-1), "t": t})

    c1, cn = module.c_params
    n, dim = module.n, module.dim
    d1, dn = c1 * q(-l), cn * q(l)
    B1, Bn = aiv_b_matrices(module, d1, dn)
    rows = list(B1) + list(Bn)
    rows += _weight_rows(module, q(1))
    rows += _bullet_rows(module, rho_side=False)
    basis = nullspace(rows)
    if len(basis) != 1:
        raise ValueError("character not integrable here")
    v = _normalize_last(basis[0], dim)
    # transposed side carries the weight-shifted parameters c_i q^n
    d1r, dnr = c1 * q(n) * q(-l), cn * q(n) * q(l)
    rB1, rBn = aiv_rho_b_matrices(module, d1r, dnr)
    rows = list(rB1) + list(rBn)
    rows += _weight_rows(module, q(1))
    rows += _bullet_rows(module, rho_side=True)
    basis = nullspace(rows)
    if len(basis) != 1:
        raise ValueError("character not integrable here")
    f = _normalize_first(basis[0])
    sgn = SC_ONE if n % 2 == 0 else -SC_ONE
    assert v[0] == d1 and v[dim - 1] == -SC_ONE
    assert f[dim - 1] == -sgn * q(l + 1) * cn
    return SphericalPair(l, v, f,
                         {"d1": d1, "dn": dn, "d1_rho": d1r, "dn_rho": dnr})


def _weight_rows(module, target):
    """Rows of K_1 K_n^-1 - target."""
    o = module.ops
    n = module.n
    K = mat_mul(o["K1"], o["K%dinv" % n])
    return mat_add(K, eye(module.dim, -target))


def _bullet_rows(module, rho_side):
    rows = []
    o = module.ops
    for j in range(2, module.n):
        if rho_side:
            rows += o["F%d" % j] + o["E%d" % j]
        else:
            rows += o["E%d" % j] + o["F%d" % j]
    return rows


def _normalize_last(vec, dim):
    """Scale so the last nonzero coordinate is -1 (display convention)."""
    piv = None
    for i in range(dim - 1, -1, -1):
        if vec[i]:
            piv = i
            break
    s = -vec[piv].inverse()
    return [x * s for x in vec]


def _normalize_first(vec):
    """Scale so the first coordinate is 1."""
    s = vec[0].inverse()
    return [x * s for x in vec]


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
    shift-j matrix coefficients for j = 0..|l|-1 (flipped module for l<0)."""
    if l == 0:
        return GAElem.unit(1)
    mod = module
    if l < 0:
        if module.family == "AIV":
            mod = build_rank1("AIV", module.n,
                              (module.c_params[1], module.c_params[0]),
                              module.s_param)
        l = -l
    out = GAElem.unit(1)
    for j in range(l):
        out = out * matrix_coeff_res(solve_spherical(mod, j), mod)
    return out


def fundamental_res(family: str, n: int, l: int, sigma=Fraction(0),
                    c_params=None) -> GAElem:
    """Closed form of the level-l restriction: the half-weight prefactor
    e^(|l| eps/2) times a length-|l| Pochhammer binomial product in
    e^(-eps), normalized with leading coefficient one."""
    L = abs(l)
    if L == 0:
        return GAElem.unit(1)
    q = q_pow
    if family == "AI1":
        X = SC_ONE
    elif family == "AIV":
        if c_params is not None:
            c1, cn = c_params
            ratio = (cn / c1) if l > 0 else (c1 / cn)
        else:
            ratio = aiiia_parameter(sigma if l > 0 else -sigma, n)
        X = ratio if n % 2 == 0 else -ratio
    else:
        raise ValueError("unknown rank-one family %r" % family)
    out = GAElem.monomial(1, (L,))
    for j in range(L):
        out = out * (GAElem.unit(1)
                     + GAElem.monomial(1, (-2,), X * q(2 * j + 1)))
    return out
