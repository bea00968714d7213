import json
import os
import random
import subprocess
import sys
import time

import pytest

from qonsager import (
    A,
    ASTAR,
    ETA,
    CoeffTable,
    LaurentPoly,
    NcPoly,
    RHO0,
    RHO1,
    RingElement,
    build_relation_lhs,
    coeff_table,
    coeff_tables,
    measure,
    normal_form,
    normal_form_with_stats,
    parse_expression,
    power_astar_expansion,
    qint,
    reduce_once,
    trace_reduction,
)
import qonsager.cli
import qonsager.verify
from qonsager import rewrite
from qonsager.cli import main
from qonsager.exactring import pack_poly, unpack_poly
from qonsager.rewrite import _apply_rule_at, _packed_view, _pow_nf, _x_poly, is_normal
from conftest import rand_word

ALPHA = RingElement.from_laurent(qint(3))
ONE = RingElement.one()


def mon1_rhs():
    return (ALPHA * (A ** 2 * ASTAR * A) - ALPHA * (A * ASTAR * A ** 2)
            + ASTAR * A ** 3 + RHO0 * (A * ASTAR) - RHO0 * (ASTAR * A))


def test_reduce_once_on_the_defining_monomial():
    assert reduce_once(A ** 3 * ASTAR) == mon1_rhs()


def test_reduce_once_leaves_ordered_words_alone():
    x = A ** 2 * ASTAR * A + ASTAR * A ** 5
    assert reduce_once(x) == x


def test_two_steps_reproduce_the_degree_four_expansion():
    a = ALPHA
    expected = ((a * a - a) * (A ** 2 * ASTAR * A ** 2)
                + (ONE - a * a) * (A * ASTAR * A ** 3)
                + a * (ASTAR * A ** 4)
                + RHO0 * (A ** 2 * ASTAR)
                - RHO0 * a * (ASTAR * A ** 2)
                + RHO0 * (a - ONE) * (A * ASTAR * A))
    x = reduce_once(A * (A ** 3 * ASTAR))
    x = reduce_once(x)
    assert x == expected
    assert normal_form(A ** 4 * ASTAR) == expected


def test_degree_five_expansion_matches_the_worked_reduction():
    a = ALPHA
    expected = ((a ** 3 - 2 * a * a + ONE) * (A ** 2 * ASTAR * A ** 3)
                + a * (ONE + a - a * a) * (A * ASTAR * A ** 4)
                + a * (a - ONE) * (ASTAR * A ** 5)
                + RHO0 * (2 * a - ONE) * (A ** 2 * ASTAR * A)
                + RHO0 * a * (a - 3 * ONE) * (A * ASTAR * A ** 2)
                - RHO0 * (a * a - a - ONE) * (ASTAR * A ** 3)
                + RHO0 * RHO0 * (A * ASTAR)
                - RHO0 * RHO0 * (ASTAR * A))
    assert normal_form(A ** 5 * ASTAR) == expected


def test_normal_form_fixes_ordered_input():
    x = parse_expression("[3]_q A^2 A* A - rho0 A A*")
    assert normal_form(x) == x


def brute_force_normal_form(x: NcPoly, rng) -> NcPoly:
    """Oracle: apply the rule at a random position of a random reducible word."""
    terms = dict(x.terms)
    while True:
        reducible = sorted(w for w in terms if "aaas" in w)
        if not reducible:
            return NcPoly(terms)
        w = rng.choice(reducible)
        starts = [i for i in range(len(w) - 3) if w[i:i + 4] == "aaas"]
        pos = rng.choice(starts)
        coeff = terms.pop(w)
        for nw, rc in _apply_rule_at(w, pos):
            value = coeff * rc
            if nw in terms:
                value = terms[nw] + value
            if value.is_zero():
                terms.pop(nw, None)
            else:
                terms[nw] = value


def test_strategy_independence_on_degree_six():
    rng = random.Random(31)
    x = A ** 6 * ASTAR
    nf = normal_form(x)
    for _ in range(5):
        assert brute_force_normal_form(x, rng) == nf


def test_strategy_independence_on_random_inputs():
    rng = random.Random(32)
    for _ in range(20):
        x = NcPoly.from_word(rand_word(rng, max_len=9))
        assert brute_force_normal_form(x, rng) == normal_form(x)
    # sums of 2-4 words, one of them repeated, with rho1 and odd q-powers:
    # their expansions merge and cancel across prefix classes, and
    # x - reduce_once(x) cancels to zero
    q3 = RingElement.from_laurent(LaurentPoly.q_power(3))
    scalars = (ONE, -ONE, ALPHA, RHO1, q3, -q3 * RHO1)
    for _ in range(20):
        words = [rand_word(rng, max_len=12) for _ in range(rng.randint(2, 4))]
        words.append(rng.choice(words))
        x = sum((NcPoly.from_word(w, rng.choice(scalars)) for w in words), NcPoly.zero())
        for y in (x, x - reduce_once(x)):
            assert brute_force_normal_form(y, rng) == normal_form(y)


def test_measure_strictly_decreases_on_every_step():
    for w in ("aaas", "aaaas", "aaasaaas", "saaasa", "aaaaasss"):
        pos = w.find("aaas")
        m = measure(w)
        for nw, _ in _apply_rule_at(w, pos):
            assert measure(nw) < m


def test_normal_form_is_idempotent():
    rng = random.Random(33)
    for _ in range(30):
        x = NcPoly.from_word(rand_word(rng, max_len=10))
        nf = normal_form(x)
        assert is_normal(nf)
        assert normal_form(nf) == nf


def replay(x: NcPoly, trace) -> NcPoly:
    """Apply the recorded block replacements to x, one at a time, with the
    eta route's expansion of each A^n A* block."""
    current = x
    for (word, start, k) in trace.steps:
        n = word.index("s", start) - start
        block = power_astar_expansion(n)
        assert n >= 3 and len(block.terms) == k
        coeff = current.terms[word]
        rest = dict(current.terms)
        del rest[word]
        pre, post = word[:start], word[start + n + 1:]
        current = NcPoly(rest) + NcPoly(
            {pre + w + post: coeff * c for w, c in block.terms.items()})
    return current


def test_trace_replay_reproduces_the_fixed_point():
    # in the mix, the expansions of different words merge inside prefix classes
    rng = random.Random(34)
    mix = sum((NcPoly.from_word(rand_word(rng, max_len=16), ALPHA ** i)
               for i in range(24)), NcPoly.zero())
    for x in (A ** 4 * ASTAR + A ** 3 * ASTAR * A,
              build_relation_lhs(coeff_table(3, "genfun")), mix):
        trace = trace_reduction(x)
        assert trace.replacements == len(trace.steps) > 0
        assert trace.final == normal_form(x)
        assert replay(x, trace) == trace.final
        assert all(line.endswith(f"@pos {p}")
                   for line, (_, p, _) in zip(trace.lines(), trace.steps))


def test_power_expansion_base_cases():
    assert power_astar_expansion(0) == ASTAR
    assert power_astar_expansion(1) == A * ASTAR
    assert power_astar_expansion(2) == A ** 2 * ASTAR
    assert power_astar_expansion(3) == mon1_rhs()
    with pytest.raises(ValueError):
        power_astar_expansion(-1)


def test_power_expansion_equals_rewrite_route():
    for n in range(1, 42):
        assert power_astar_expansion(n) == normal_form(A ** n * ASTAR), n


def test_eta_base_cases_from_the_tables():
    three = qint(3)
    q2 = LaurentPoly.q_power(2) + LaurentPoly.q_power(-2)
    assert ETA.value(3, 1, 0) == three
    assert ETA.value(3, 1, 1) == -three
    assert ETA.value(3, 1, 2) == LaurentPoly.one()
    assert ETA.value(4, 0, 0) == LaurentPoly.one()
    assert ETA.value(4, 0, 1) == q2
    assert ETA.value(4, 0, 2) == -three
    assert ETA.value(4, 1, 1) == -q2 * qint(2) * qint(2)


def test_eta_outside_grid_raises():
    off_grid = ((4, 2, 0), (3, 0, 0), (2, 1, 0), (1, 0, 0), (0, 0, 2), (0, -1, 1), (-1, -1, 2))
    for m, k, i in off_grid:
        with pytest.raises(KeyError):
            ETA.value(m, k, i)
        assert ETA.get(m, k, i).is_zero()


def test_eta_grid_holds_exactly_the_words_of_the_normal_form():
    # each word A^(2-i) A* A^t of NF(A^m A*), with coefficient rho0^e times a
    # Laurent polynomial, is eta^{(m)}_{k,i} at t = 2k + i - m % 2 and
    # e = (m - 1) // 2 - k; every other grid entry is zero
    assert ETA.grid(0) == [(-1, 2)] and ETA.value(0, -1, 2) == LaurentPoly.one()
    for m in range(31):
        seen = set()
        for w, c in normal_form(A ** m * ASTAR).terms.items():
            i = 2 - w.index("s")
            k, odd = divmod(len(w) - w.index("s") - 1 - i + m % 2, 2)
            ((e, e1), coeff), = c.terms.items()
            assert not odd and e1 == 0 and e == (m - 1) // 2 - k, (m, w)
            assert ETA.value(m, k, i) == coeff, (m, w)
            seen.add((k, i))
        assert seen <= set(ETA.grid(m)), m
        assert all(ETA.value(m, k, i).is_zero() for k, i in set(ETA.grid(m)) - seen), m


def test_relation_reduction_stats_are_pinned():
    # verify prints peak_term_count, so the memo's word order must not move it
    pinned = {1: (1, 6), 2: (11, 28), 3: (66, 72), 4: (315, 155), 5: (1346, 288),
              6: (5400, 483), 7: (20793, 752)}
    for r, expected in pinned.items():
        nf, stats = normal_form_with_stats(build_relation_lhs(coeff_table(r, "genfun")))
        assert nf.is_zero(), r
        assert (stats.replacements, stats.peak_term_count) == expected, r


def test_stats_report_peak_and_replacements():
    nf, stats = normal_form_with_stats(A ** 6 * ASTAR ** 2)
    assert stats.replacements > 0
    assert stats.peak_term_count >= nf.term_count()
    nf2, stats2 = normal_form_with_stats(nf)
    assert stats2.replacements == 0
    assert nf2 == nf


# ---------------------------------------------------------------------------
# Packed graded reduction against the RingElement view
# ---------------------------------------------------------------------------


def assert_views_agree(x):
    """normal_form_with_stats(x) runs packed; trace_reduction(x) is the
    RingElement view of the same loop.  Returns the packed result."""
    nf, packed = normal_form_with_stats(x)
    ring = trace_reduction(x)
    assert packed.width_bits == packed.majorant_bits + 2 > 2
    assert (ring.width_bits, ring.majorant_bits) == (0, 0)
    assert nf == packed.final == ring.final
    assert packed.steps is None and ring.replacements == len(ring.steps)
    assert (packed.replacements, packed.peak_term_count) == (
        ring.replacements, ring.peak_term_count)
    return nf


@pytest.mark.parametrize("route", ["genfun", "recursion"])
def test_packed_view_agrees_on_the_relations(route):
    for r in range(1, 7):
        assert assert_views_agree(build_relation_lhs(coeff_table(r, route))).is_zero(), r


def sabotaged_table(r, p, j, delta):
    table = coeff_table(r, "genfun")
    entries = dict(table.entries)
    entries[(p, j)] = entries[(p, j)] + delta
    return CoeffTable(r=r, route="genfun+sabotage", entries=entries)


def seeded_sabotages():
    """Six seeded (r, p, j, delta) entry offsets for ``sabotaged_table``."""
    rng = random.Random(41)
    out = []
    for r in (3, 4, 5, 3, 4, 5):
        p = rng.randrange(r + 1)
        j = rng.randrange(2 * (r - p) + 2)
        out.append((r, p, j, rng.choice((-3, -2, -1, 1, 2, 3))))
    return out


def test_packed_view_agrees_on_sabotaged_tables():
    for r, p, j, delta in seeded_sabotages():
        nf = assert_views_agree(build_relation_lhs(sabotaged_table(r, p, j, delta)))
        assert not nf.is_zero(), (r, p, j, delta)
    # the p = r row multiplies the normal word A A*^r: a one-term residual
    nf = assert_views_agree(build_relation_lhs(sabotaged_table(5, 5, 0, 1)))
    assert nf == NcPoly.from_word("a" + "s" * 5, -RHO0 ** 5)


def rand_graded(rng, degree, terms):
    """A random element of one graded component: rho0^e w with
    len(w) + 2e == degree, coefficients in even powers of q."""
    x = NcPoly.zero()
    for _ in range(terms):
        e = rng.randrange(degree // 2)
        w = "".join(rng.choice("aaas") for _ in range(degree - 2 * e))
        c = LaurentPoly({2 * rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(3)})
        x = x + NcPoly.from_word(w, RHO0 ** e * c)
    return x


def test_packed_view_agrees_on_random_graded_input():
    rng = random.Random(42)
    for _ in range(30):
        x = rand_graded(rng, rng.randint(4, 13), rng.randint(1, 8))
        if x.is_zero():
            continue
        assert_views_agree(x)
        # a rule step leaves the class of x unchanged, so this cancels to zero
        y = x - reduce_once(reduce_once(x))
        if not y.is_zero():
            assert assert_views_agree(y).is_zero()


def test_ungraded_input_takes_the_ring_view():
    q = LaurentPoly.q_power(1)
    for x in (A ** 4 * ASTAR + RHO1 * (A ** 3 * ASTAR),  # rho1
              q * (A ** 4 * ASTAR),                      # odd q-power
              A ** 4 * ASTAR + A ** 3 * ASTAR,           # two degrees
              (ONE + RHO0) * (A ** 5 * ASTAR)):          # two degrees in one coefficient
        nf, stats = normal_form_with_stats(x)
        assert (stats.width_bits, stats.majorant_bits) == (0, 0)
        assert nf == normal_form(x) == trace_reduction(x).final
        assert stats.replacements > 0


def test_packed_width_is_pinned():
    for r, expected in {5: (40, 38), 6: (52, 50)}.items():
        _, stats = normal_form_with_stats(build_relation_lhs(coeff_table(r, "genfun")))
        assert (stats.width_bits, stats.majorant_bits) == expected, r


def majorant_pass_bits(x):
    """The bit length of the largest value that the reduction on l1 norms
    (the l1 memo view, no cancellation) leaves: the tightest bound of the
    path masses, kept here as the oracle of ``majorant_bits``."""
    _, polys = rewrite._graded_input(x.terms)
    final = rewrite._normalize({w: sum(map(abs, p.values())) for w, p in polys.items()},
                               rewrite._view(lambda n, mw, c: (rewrite._l1_norm(c), 0, 0)))
    return max(final.values()).bit_length()


def test_mass_bound_dominates_the_majorant_pass():
    inputs = [build_relation_lhs(coeff_table(r, "genfun")) for r in range(1, 8)]
    inputs += [build_relation_lhs(sabotaged_table(*s)) for s in seeded_sabotages()]
    inputs.append(build_relation_lhs(sabotaged_table(5, 5, 0, 1)))
    # a normal input word that the reducible one also reaches: 3 + 126 = 129
    # needs 8 bits, so the two weights must add along the chain "" < "aasa"
    c = RingElement.from_laurent(LaurentPoly({0: 126}))
    inputs.append(A ** 3 * ASTAR + c * (A ** 2 * ASTAR * A))
    rng = random.Random(43)
    inputs += [rand_graded(rng, rng.randint(4, 13), rng.randint(1, 8)) for _ in range(40)]
    for x in inputs:
        if x.is_zero():
            continue
        old = majorant_pass_bits(x)
        bits = normal_form_with_stats(x)[1].majorant_bits
        # the lower bound is soundness; the upper one keeps K, and with it
        # the cost of every packed product, near the tightest bound
        assert old <= bits <= old + 2, (old, bits, x)


def test_mass_bound_needs_no_recursion():
    # one A^3 A* block per A*, m levels deep: U(A^3 A*^m) = m + 3
    m = 2 * sys.getrecursionlimit()
    start = time.process_time()
    assert rewrite._mass_bound({"aaa" + "s" * m: 1}) == m + 3
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("width", [39, 51, 64])
def test_packed_multipliers_are_odd_mantissas_of_the_shifted_heads(width):
    # the multiplier of mw in NF(A^n A*) before a post with s A*'s is
    # pack_poly(its X-polynomial, width, n - inv(mw)) << width (n - a(mw)) s
    view = _packed_view(width)
    for n in range(3, 21):
        memo = _pow_nf(n)
        for s in range(9):
            quads = view(n, "as" * s)
            assert ["a" * j + "s" + tail for j, tail, _, _ in quads] == list(memo)
            for (_, _, v, shift), (mw, c) in zip(quads, memo.items()):
                assert v & 1, (n, s, mw)
                head = pack_poly(_x_poly(mw, c, n + 1), width, n - measure(mw)[1])
                assert v << shift == head << (width * (n - mw.count("a")) * s), (n, s, mw)


def cold_mass_memo(monkeypatch):
    """Give ``_mass_bound`` a fresh l1 view, built as ``rewrite`` builds its
    own, and an empty U memo, until the test ends."""
    monkeypatch.setattr(rewrite, "_L1_VIEW",
                        rewrite._view(lambda n, mw, c: (rewrite._l1_norm(c), 0, 0)))
    monkeypatch.setattr(rewrite, "_MASS", {"": 1})


def test_too_narrow_width_raises(monkeypatch):
    # with every memo coefficient's l1 norm understated as 1 the mass bound
    # counts paths, so K comes out 24 instead of the proved 40, and the
    # residual coefficients of this table overflow their slots; the view and
    # the U memo are process-wide, so both restart under the understated norm
    x = build_relation_lhs(sabotaged_table(5, 0, 0, 1))
    assert normal_form_with_stats(x)[1].width_bits == 40
    monkeypatch.setattr(rewrite, "_l1_norm", lambda c: 1)
    cold_mass_memo(monkeypatch)
    with pytest.raises(AssertionError, match="packed digit reaches"):
        normal_form_with_stats(x)


def test_cold_and_warm_mass_memo_agree(monkeypatch):
    # U(rest) depends only on the rest and the rule-only memo, so whichever
    # inputs warmed the process-wide memo, every result and count is the same
    inputs = [build_relation_lhs(coeff_table(r, "genfun")) for r in range(1, 7)]
    inputs += [build_relation_lhs(sabotaged_table(*s)) for s in seeded_sabotages()[:3]]

    def run(x):
        nf, stats = normal_form_with_stats(x)
        return (nf, stats.width_bits, stats.majorant_bits, stats.replacements,
                stats.peak_term_count)

    cold = []
    for x in inputs:
        cold_mass_memo(monkeypatch)
        cold.append(run(x))
    cold_mass_memo(monkeypatch)
    assert [run(x) for x in inputs] == cold
    cold_mass_memo(monkeypatch)
    assert [run(x) for x in reversed(inputs)] == cold[::-1]
    assert len(rewrite._MASS) > 1
    assert [c[1] for c in cold[:6]] == [6, 11, 19, 29, 40, 52]


def test_counting_trace_keeps_no_lines():
    x = parse_expression("A^3 A*")
    _, stats = normal_form_with_stats(x)
    assert stats.steps is None and stats.replacements == 1
    with pytest.raises(ValueError, match="trace_reduction"):
        stats.lines()
    assert trace_reduction(x).lines() == ["A^3 A* -> 5 terms @pos 0"]


def test_too_narrow_width_raises_under_optimized_mode():
    script = ("from qonsager import CoeffTable, build_relation_lhs, coeff_table, rewrite\n"
              "table = coeff_table(5, 'genfun')\n"
              "entries = dict(table.entries)\n"
              "entries[(0, 0)] = entries[(0, 0)] + 1\n"
              "x = build_relation_lhs(CoeffTable(r=5, route='genfun+sabotage', entries=entries))\n"
              "rewrite._l1_norm = lambda c: 1\n"
              "try:\n"
              "    rewrite.normal_form_with_stats(x)\n"
              "except AssertionError as e:\n"
              "    raise SystemExit(0 if 'packed digit reaches' in str(e) else str(e))\n"
              "raise SystemExit('no AssertionError')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qonsager.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_packing_checks_raise_outright():
    assert pack_poly({0: 1, 2: -3}, 8, 1) == (1 << 8) - (3 << 24)
    assert unpack_poly((1 << 8) - (3 << 24), 8) == {1: 1, 3: -3}
    with pytest.raises(AssertionError, match="negative X exponent"):
        pack_poly({0: 1, 2: -3}, 8, -1)
    assert unpack_poly(-63, 8) == {0: -63}
    with pytest.raises(AssertionError, match="reaches"):
        unpack_poly(64, 8)
    with pytest.raises(AssertionError, match="reaches"):
        unpack_poly((-64) << 16, 8)


def verify_lines(monkeypatch, capsys, argv, sabotage):
    """verify's JSON lines without the timing field, with the table of
    r = sabotage[0] replaced by ``sabotaged_table(*sabotage)`` (none for None)."""
    def tables(r_max, route):
        for table in coeff_tables(r_max, route):
            yield sabotaged_table(*sabotage) if sabotage and table.r == sabotage[0] else table

    monkeypatch.setattr(qonsager.cli, "coeff_tables", tables)
    main(["verify", *argv])
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for doc in docs:
        del doc["elapsed_ms"]
    return docs


def test_verify_json_is_the_same_on_both_views(monkeypatch, capsys):
    runs = ((("--r-max", "6", "--family", "both"), None),
            (("--r-max", "5", "--family", "both"), (5, 2, 3, -2)),
            (("--r-max", "4", "--family", "both"), (4, 4, 1, 1)))
    packed = [verify_lines(monkeypatch, capsys, *run) for run in runs]
    ring = {}

    def ring_view(x):
        if x not in ring:
            trace = trace_reduction(x)
            ring[x] = (trace.final, trace)
        return ring[x]

    monkeypatch.setattr(qonsager.verify, "normal_form_with_stats", ring_view)
    assert [verify_lines(monkeypatch, capsys, *run) for run in runs] == packed
    assert packed[1][-1]["residual"] and packed[2][-1]["residual"]
