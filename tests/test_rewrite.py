import random

from qonsager import (
    A,
    ASTAR,
    ETA,
    LaurentPoly,
    NcPoly,
    RHO0,
    RingElement,
    build_relation_lhs,
    coeff_table,
    measure,
    normal_form,
    normal_form_with_stats,
    parse_expression,
    power_astar_expansion,
    qint,
    reduce_once,
    trace_reduction,
)
from qonsager.rewrite import _apply_rule_at, is_normal
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


def test_trace_replay_reproduces_the_fixed_point():
    x = A ** 4 * ASTAR + A ** 3 * ASTAR * A
    trace = trace_reduction(x)
    current = x
    for (word, pos, _k) in trace.steps:
        assert word in current.terms
        coeff = current.terms[word]
        repl = NcPoly({nw: coeff * rc for nw, rc in _apply_rule_at(word, pos)})
        rest = dict(current.terms)
        del rest[word]
        current = NcPoly(rest) + repl
    assert current == trace.final
    assert trace.final == normal_form(x)
    assert trace.step_count == len(trace.steps)
    assert all(line.endswith(f"@pos {p}") for line, (_, p, _) in zip(trace.lines(), trace.steps))


def test_power_expansion_base_cases():
    assert power_astar_expansion(1) == A * ASTAR
    assert power_astar_expansion(2) == A ** 2 * ASTAR
    assert power_astar_expansion(3) == mon1_rhs()


def test_power_expansion_equals_rewrite_route():
    for n in range(4, 42):
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
    import pytest
    with pytest.raises(KeyError):
        ETA.value(4, 2, 0)
    with pytest.raises(KeyError):
        ETA.value(3, 0, 0)
    with pytest.raises(KeyError):
        ETA.value(2, 0, 0)


def test_relation_reduction_stats_are_pinned():
    # verify prints peak_term_count, so the memo's word order must not move it
    pinned = {1: (1, 10), 2: (11, 28), 3: (66, 119), 4: (315, 489), 5: (1346, 1929)}
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
