import random
from collections import Counter
from fractions import Fraction

import pytest

from qonsager import (
    RHO0,
    RHO1,
    CoidealParams,
    ExactMatrix,
    LaurentPoly,
    NcPoly,
    build_relation_lhs,
    check_qdg,
    check_realization,
    coeff_table,
    coideal_generators,
    eval_ncpoly,
    evaluation_rep,
    normal_form,
    reduced_genfun_coeffs,
    tensor_rep,
)
from qonsager.coefficients import CoeffTable
from qonsager.freealg import GEN_A
from qonsager import matrixrep
from qonsager.matrixrep import commutator
from conftest import rand_ncpoly, rand_word

T = Fraction(3, 2)
Q = T * T


def qnum(n, q):
    return (q ** n - q ** -n) / (q - 1 / q)


def eval_by_words(x, a, astar, q_val, rho0_val, rho1_val):
    """The reference evaluation: every word multiplied out from the identity
    in Fraction arithmetic, one scaled image added per word."""
    n = a.n
    total = ExactMatrix.zeros(n)
    for word, coeff in x.sorted_terms():
        m = ExactMatrix.identity(n)
        for ch in word:
            m = m * (a if ch == GEN_A else astar)
        total = total + coeff.eval_at(q_val, rho0_val, rho1_val) * m
    return total


def gate_realization(sites, **scalars):
    v = tuple(Fraction(i) for i in range(1, sites + 1))
    real = coideal_generators(CoidealParams(t=T, v=v, **scalars))
    # gate invariant: nothing downstream runs unless the defining relations hold
    assert check_realization(real)
    return real


def perturbed(real):
    """The gate realization with one entry of A moved by +1."""
    rows = [list(row) for row in real.A.rows]
    rows[0][0] += 1
    return ExactMatrix(rows), real.Astar


def test_evaluation_rep_structure():
    rep = evaluation_rep(Fraction(1), T)
    assert rep["e1"].n == 2
    k1 = rep["k1h"] * rep["k1h"]
    k0 = rep["k0h"] * rep["k0h"]
    assert k1 * k0 == ExactMatrix.identity(2)
    assert rep["k1h"] == ExactMatrix.diagonal([T, 1 / T])


def _diagonal_inverse(k):
    """The inverse of a diagonal weight, entry by entry."""
    assert k == ExactMatrix.diagonal(k.rows[i][i] for i in range(k.n))
    return ExactMatrix.diagonal(1 / k.rows[i][i] for i in range(k.n))


def test_evaluation_rep_chevalley_relations():
    rep = evaluation_rep(Fraction(2), T)
    for i in ("0", "1"):
        k = rep[f"k{i}h"] * rep[f"k{i}h"]
        expected = (k - _diagonal_inverse(k)) * (1 / (Q - 1 / Q))
        assert commutator(rep[f"e{i}"], rep[f"f{i}"]) == expected
    # mixed e/f pairs commute
    assert commutator(rep["e1"], rep["f0"]).is_zero()
    assert commutator(rep["e0"], rep["f1"]).is_zero()


def test_qserre_trivial_in_dimension_two():
    rep = evaluation_rep(Fraction(1), T)
    e0, e1 = rep["e0"], rep["e1"]
    three = qnum(3, Q)
    lhs = (e0 * e0 * e0 * e1 - three * (e0 * e0 * e1 * e0)
           + three * (e0 * e1 * e0 * e0) - e1 * e0 * e0 * e0)
    assert lhs.is_zero()  # nilpotency kills every term


def test_tensor_rep_one_site_is_the_evaluation_rep():
    assert tensor_rep(T, [Fraction(5)]) == evaluation_rep(Fraction(5), T)


def test_tensor_rep_weights_are_grouplike_diagonals():
    rep = tensor_rep(T, [Fraction(1), Fraction(2)])
    site1 = evaluation_rep(Fraction(1), T)
    site2 = evaluation_rep(Fraction(2), T)
    assert rep["k1h"] == site1["k1h"].kron(site2["k1h"])
    for i in range(4):
        for j in range(4):
            if i != j:
                assert rep["k1h"].rows[i][j] == 0


def test_tensor_rep_defining_relations_two_sites():
    rep = tensor_rep(T, [Fraction(1), Fraction(2)])
    eye = ExactMatrix.identity(4)
    for i in ("0", "1"):
        k = rep[f"k{i}h"] * rep[f"k{i}h"]
        k_inv = _diagonal_inverse(k)
        expected = (k - k_inv) * (1 / (Q - 1 / Q))
        assert commutator(rep[f"e{i}"], rep[f"f{i}"]) == expected
        # weight action: k e_j k^{-1} = q^{a_ij} e_j with a_ii = 2, a_ij = -2
        for j in ("0", "1"):
            scale = Q ** 2 if i == j else Q ** -2
            assert k * rep[f"e{j}"] * k_inv == rep[f"e{j}"] * scale
            assert k * rep[f"f{j}"] * k_inv == rep[f"f{j}"] * (1 / scale)
    # mixed e/f commutators vanish
    assert commutator(rep["e0"], rep["f1"]).is_zero()
    assert commutator(rep["e1"], rep["f0"]).is_zero()
    assert (rep["k0h"] * rep["k1h"]) * (rep["k0h"] * rep["k1h"]) == eye


def test_coideal_qserre_specialization():
    # cbar = eps = 0 makes rho vanish; the pair satisfies the plain q-Serre
    # relations, i.e. the gate with rho = 0
    for sites in (1, 2):
        v = tuple(Fraction(i) for i in range(1, sites + 1))
        real = coideal_generators(CoidealParams(t=T, v=v, cbar0=0, cbar1=0))
        assert real.rho0 == 0 and real.rho1 == 0
        assert check_qdg(real.A, real.Astar, Fraction(0), Fraction(0), real.q)


def test_gate_passes_generic_parameters():
    real = gate_realization(1, c0=2, c1=3, cbar0=Fraction(1, 2),
                            cbar1=Fraction(5, 3), eps0=Fraction(1, 4), eps1=2)
    assert real.dim == 2
    assert real.rho0 == 2 * Fraction(1, 2) * (Q + 1 / Q) ** 2


def test_gate_passes_two_sites_with_identification():
    real = gate_realization(2)
    assert real.dim == 4
    assert real.rho0 == (Q + 1 / Q) ** 2


def test_gate_negative_controls():
    real = gate_realization(1)
    assert not check_qdg(real.A, real.Astar, real.rho0 + 1, real.rho1, real.q)
    assert not check_qdg(*perturbed(real), real.rho0, real.rho1, real.q)


def test_check_qdg_commuting_case():
    eye = ExactMatrix.identity(3)
    assert check_qdg(eye, eye, Fraction(0), Fraction(0), Q)


def test_eval_ncpoly_unit_and_homomorphism():
    real = gate_realization(2)
    point = (real.q, real.rho0, real.rho1)
    assert eval_ncpoly(NcPoly.one(), real.A, real.Astar, *point) == ExactMatrix.identity(4)
    rng = random.Random(41)
    for _ in range(20):
        x = NcPoly.from_word(rand_word(rng, 5))
        y = NcPoly.from_word(rand_word(rng, 5))
        ex = eval_ncpoly(x, real.A, real.Astar, *point)
        ey = eval_ncpoly(y, real.A, real.Astar, *point)
        assert eval_ncpoly(x * y, real.A, real.Astar, *point) == ex * ey
        assert eval_ncpoly(x + y, real.A, real.Astar, *point) == ex + ey


def test_defining_relation_evaluates_to_zero():
    real = gate_realization(1)
    lhs = build_relation_lhs(reduced_genfun_coeffs(1), family=1)
    assert eval_ncpoly(lhs, real.A, real.Astar, real.q, real.rho0, real.rho1).is_zero()


@pytest.mark.parametrize("route", ["genfun", "closed", "recursion"])
def test_the_gate_relations_are_the_r1_relations_of_every_route(route):
    # check_qdg writes the defining relation out by hand; it must be the
    # r = 1 relation that each route's table states
    table = coeff_table(1, route)
    assert matrixrep._QDG == build_relation_lhs(table, family=1)
    assert matrixrep._QDG_DAGGER == build_relation_lhs(table, family=2)


def test_r2_relation_evaluates_to_zero_on_two_sites():
    real = gate_realization(2)
    lhs = build_relation_lhs(reduced_genfun_coeffs(2), family=1)
    assert eval_ncpoly(lhs, real.A, real.Astar, real.q, real.rho0, real.rho1).is_zero()


def test_relations_r_le_3_both_families_all_sites():
    for sites in (1, 2, 3):
        real = gate_realization(sites)
        for r in (1, 2, 3):
            table = reduced_genfun_coeffs(r)
            for family in (1, 2):
                lhs = build_relation_lhs(table, family=family)
                image = eval_ncpoly(lhs, real.A, real.Astar,
                                    real.q, real.rho0, real.rho1)
                assert image.is_zero(), (sites, r, family)


def test_reduction_soundness_under_evaluation():
    real = gate_realization(2)
    point = (real.q, real.rho0, real.rho1)
    rng = random.Random(42)
    for _ in range(100):
        word = rand_word(rng, 10)
        x = NcPoly.from_word(word)
        direct = eval_ncpoly(x, real.A, real.Astar, *point)
        reduced = eval_ncpoly(normal_form(x), real.A, real.Astar, *point)
        assert direct == reduced, word


def test_params_validation():
    with pytest.raises(ValueError):
        CoidealParams(t=1, v=(1,))
    with pytest.raises(ValueError):
        CoidealParams(t=T, v=())
    with pytest.raises(ValueError):
        CoidealParams(t=T, v=(1, 1))
    with pytest.raises(ValueError):
        CoidealParams(t=T, v=(0,))
    with pytest.raises(ValueError):
        evaluation_rep(Fraction(0), T)


def test_matrix_dimension_mismatch():
    with pytest.raises(ValueError):
        check_qdg(ExactMatrix.identity(2), ExactMatrix.identity(3),
                  Fraction(0), Fraction(0), Q)


def assert_matches_oracle(x, real):
    point = (real.q, real.rho0, real.rho1)
    image = eval_ncpoly(x, real.A, real.Astar, *point)
    assert image == eval_by_words(x, real.A, real.Astar, *point)
    return image


GENERIC = {"c0": 2, "c1": Fraction(-3, 4), "cbar0": Fraction(1, 2),
           "cbar1": Fraction(5, 3), "eps0": Fraction(1, 4), "eps1": Fraction(-7, 5)}


def test_eval_ncpoly_matches_word_by_word_oracle():
    rng = random.Random(43)
    for sites in (1, 2, 3):
        for real in (gate_realization(sites), gate_realization(sites, **GENERIC)):
            # rand_ncpoly draws rho1 powers, odd q-powers and the empty word
            for _ in range(12):
                assert_matches_oracle(rand_ncpoly(rng, max_terms=6, max_len=7), real)
            lhs = build_relation_lhs(reduced_genfun_coeffs(2), family=2)
            assert assert_matches_oracle(lhs, real).is_zero()
    x = NcPoly.from_word("") + NcPoly.from_word("as", LaurentPoly({1: 3, -3: -2}) * RHO1)
    assert not assert_matches_oracle(x, gate_realization(2, **GENERIC)).is_zero()


FRAME_POINTS = {"q < 0": (Fraction(-9, 4), Fraction(-2, 3), Fraction(7)),
                "rho0 = 0": (Fraction(1, 7), Fraction(0), Fraction(5, 11)),
                "rho1 = 0": (Fraction(-3), Fraction(7), Fraction(0))}
FRAME_POLYS = {
    "all q-exponents positive": (
        NcPoly.from_word("asa", LaurentPoly({3: 2, 5: -1})) + NcPoly.from_word("", LaurentPoly({2: -3}))
        + NcPoly.from_word("s", LaurentPoly({1: 4}) * RHO0 ** 2)),
    "all q-exponents negative": (
        NcPoly.from_word("saa", LaurentPoly({-1: 5, -4: 2}) * RHO1) + NcPoly.from_word("a", LaurentPoly({-2: -1}))
        + NcPoly.from_word("sasas", LaurentPoly({-3: 7}) * RHO0 * RHO1)),
    "lengths 0 to 7 with rho powers": (
        NcPoly.from_word("", RHO1 ** 3) + NcPoly.from_word("s", LaurentPoly({-2: 1, 3: 4}))
        + NcPoly.from_word("as", RHO0 ** 2 * RHO1) + NcPoly.from_word("aas", LaurentPoly({1: -6}))
        + NcPoly.from_word("ssaaasa", LaurentPoly({0: 2, -5: 1}) * RHO0 + RHO1 ** 2)),
}


@pytest.mark.parametrize("poly", FRAME_POLYS)
@pytest.mark.parametrize("point", FRAME_POINTS)
def test_eval_ncpoly_frame_matches_oracle(point, poly):
    # one integer frame for every coefficient, whatever the signs of q and of
    # the q-exponents, and with rho0 or rho1 zero under rho powers
    point, x = FRAME_POINTS[point], FRAME_POLYS[poly]
    # (4q + 9) rho0 rho1 vanishes at every point: these words widen the frame
    # (q-exponents, rho powers, the longest word) but add nothing
    vanishing = (NcPoly.from_word("aasa", LaurentPoly({6: 4, 5: 9}) * RHO0 * RHO1)
                 + NcPoly.from_word("s" * 8, LaurentPoly({-6: 4, -7: 9}) * RHO0 ** 3 * RHO1))
    real = gate_realization(2, **GENERIC)  # eps != 0: nonzero diagonals
    for a, astar in ((real.A, real.Astar), perturbed(real)):
        image = eval_ncpoly(x, a, astar, *point)
        assert image == eval_by_words(x, a, astar, *point)
        assert not image.is_zero()
        assert eval_ncpoly(x + vanishing, a, astar, *point) == image


def test_eval_ncpoly_of_zero_multiplies_nothing(monkeypatch):
    real = gate_realization(2)
    point = (real.q, real.rho0, real.rho1)
    calls = count_products(monkeypatch)
    assert eval_ncpoly(NcPoly.zero(), real.A, real.Astar, *point) == ExactMatrix.zeros(4)
    vanishing = NcPoly.from_word("asa", LaurentPoly({1: 4, 0: -9}))  # 4 (q - 9/4)
    assert eval_ncpoly(vanishing, real.A, real.Astar, *point) == ExactMatrix.zeros(4)
    assert not calls


def test_eval_ncpoly_rejects_q_zero():
    real = gate_realization(1)
    for x in (NcPoly.zero(), NcPoly.one(), matrixrep._QDG):
        with pytest.raises(ValueError, match="q must be nonzero"):
            eval_ncpoly(x, real.A, real.Astar, 0, real.rho0, real.rho1)
    with pytest.raises(ValueError, match="q must be nonzero"):
        check_realization(matrixrep.CoidealRealization(real.A, real.Astar, Fraction(0),
                                                       real.rho0, real.rho1))


def count_products(monkeypatch):
    """Counts the sparse left products G_x M and the dense products M(h) T_h."""
    calls = Counter()
    for name, kind in (("_sparse_left", "sparse"), ("_int_matmul", "dense")):
        def counted(x, y, product=getattr(matrixrep, name), kind=kind):
            calls[kind] += 1
            return product(x, y)
        monkeypatch.setattr(matrixrep, name, counted)
    return calls


def scheme_products(words):
    """Products that evaluating these words costs when each word is split as
    head * (trailing run), except that a word which is another word's head
    is its own head with the empty power.  Sparse: every distinct word of
    length >= 2 that is a suffix of a nonempty head, or a power x^k up to the
    longest trailing run of x left to a power.  Dense: one per nonempty head
    whose group holds a nonempty power."""
    split = {}
    for w in filter(None, words):
        run = 1
        while run < len(w) and w[-1 - run] == w[-1]:
            run += 1
        split[w] = w[:-run]
    heads = set(split.values())
    head = {w: w if w in heads else h for w, h in split.items()}
    longest = {}
    for w, h in head.items():
        if w != h:
            longest[w[-1]] = max(longest.get(w[-1], 0), len(w) - len(h))
    built = {h[i:] for h in head.values() for i in range(len(h) - 1)}
    built |= {x * k for x, k in longest.items() for k in range(2, k + 1)}
    dense = {h for w, h in head.items() if h and w != h}
    return Counter(sparse=len(built), dense=len(dense))


def test_eval_ncpoly_skips_a_coefficient_that_vanishes_at_the_point(monkeypatch):
    real = gate_realization(2)
    assert real.q == Fraction(9, 4)
    vanishing = LaurentPoly({1: 4, 0: -9})  # 4 (q - 9/4)
    live = NcPoly.from_word("sa", RHO0 ** 2) + NcPoly.from_word("saa")
    calls = count_products(monkeypatch)
    image = assert_matches_oracle(NcPoly.from_word("aasa", vanishing) + live, real)
    assert image == assert_matches_oracle(live, real)
    assert assert_matches_oracle(NcPoly.from_word("ssa", vanishing), real).is_zero()
    # the power aa and the head s times its tail, once per evaluation; none
    # for the vanishing words, whose heads aas and ss would cost more
    assert scheme_products(["sa", "saa"]) == Counter(sparse=1, dense=1)
    assert calls == Counter(sparse=2, dense=2)


def test_eval_ncpoly_multiplies_each_suffix_power_and_head_once(monkeypatch):
    real = gate_realization(3)
    point = (real.q, real.rho0, real.rho1)
    table = reduced_genfun_coeffs(5)
    for family in (1, 2):
        lhs = build_relation_lhs(table, family=family)
        words = [w for w, c in lhs.terms.items() if c.eval_at(*point)]
        calls = count_products(monkeypatch)
        assert eval_ncpoly(lhs, real.A, real.Astar, *point).is_zero()
        # the words A^i A*^5 are heads of A^i A*^5 A^j, so they share that
        # head's product: 36 products, against 41 with a head of their own
        # and 137 for a stack of prefix products
        assert calls == scheme_products(words) == Counter(sparse=24, dense=12), family


def test_eval_ncpoly_matches_oracle_on_word_shapes(monkeypatch):
    real = gate_realization(2, **GENERIC)
    c = LaurentPoly({2: 3, -1: -5})
    shapes = {
        "empty word": NcPoly.from_word("", c),
        "single runs of both letters, with the empty word": (
            NcPoly.from_word("") + NcPoly.from_word("a", c) + NcPoly.from_word("aaa")
            + NcPoly.from_word("s", RHO0) + NcPoly.from_word("ssss", c * RHO1)),
        "heads that are suffixes of other heads": (
            NcPoly.from_word("asa") + NcPoly.from_word("sasaa", c)
            + NcPoly.from_word("asas", RHO0) + NcPoly.from_word("aasass", c)),
        "words that are heads, one of them alone in its group": (
            NcPoly.from_word("s", c) + NcPoly.from_word("sa", RHO1)
            + NcPoly.from_word("sas") + NcPoly.from_word("aas", c) + NcPoly.from_word("aassaa")),
        "long trailing runs": (
            NcPoly.from_word("s" + "a" * 12, c) + NcPoly.from_word("a" * 15)
            + NcPoly.from_word("as" + "s" * 10, RHO1) + NcPoly.from_word("sa" + "s" * 9)),
    }
    for name, x in shapes.items():
        calls = count_products(monkeypatch)
        assert not assert_matches_oracle(x, real).is_zero(), name
        assert calls == scheme_products(x.terms), name
    # s is alone in its group and adds its image without a dense product
    assert scheme_products(["s", "sa", "sas"]) == Counter(sparse=1, dense=1)


def sabotaged_lhs(r, rng):
    table = reduced_genfun_coeffs(r)
    entries = dict(table.entries)
    p = rng.randrange(r + 1)
    j = rng.randrange(2 * (r - p) + 2)
    entries[(p, j)] = entries[(p, j)] + rng.choice((-3, -2, -1, 1, 2, 3))
    return build_relation_lhs(CoeffTable(r=r, route="genfun+sabotage", entries=entries))


def test_eval_ncpoly_matches_oracle_on_sabotaged_relations():
    rng = random.Random(44)
    for sites, r in ((3, 3), (3, 4), (3, 5), (4, 3)):
        real = gate_realization(sites)
        assert not assert_matches_oracle(sabotaged_lhs(r, rng), real).is_zero(), (sites, r)


def test_relations_vanish_at_r_20_on_three_sites():
    # evidence beyond the reduction frontier (r = 9), not a proof: the
    # realization need not be faithful
    real = gate_realization(3)
    table = reduced_genfun_coeffs(20)
    for family in (1, 2):
        lhs = build_relation_lhs(table, family=family)
        image = eval_ncpoly(lhs, real.A, real.Astar, real.q, real.rho0, real.rho1)
        assert image.is_zero(), family
