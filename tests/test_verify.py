import json

import pytest

from qonsager import (
    A,
    ASTAR,
    CoeffTable,
    LaurentPoly,
    NcPoly,
    RHO0,
    RHO1,
    build_relation_lhs,
    cross_check_routes,
    lusztig_coeffs,
    normal_form,
    parse_expression,
    qbinomial,
    qint,
    reduced_genfun_coeffs,
    verify_relation,
)


def test_r1_family_one_is_the_defining_relation():
    lhs = build_relation_lhs(reduced_genfun_coeffs(1), family=1)
    expected = (A ** 3 * ASTAR - A ** 2 * ASTAR * A * qint(3)
                + A * ASTAR * A ** 2 * qint(3) - ASTAR * A ** 3
                - RHO0 * (A * ASTAR) + RHO0 * (ASTAR * A))
    assert lhs == expected


def test_r1_family_two_is_the_dagger_image():
    table = reduced_genfun_coeffs(1)
    expected = (ASTAR ** 3 * A - ASTAR ** 2 * A * ASTAR * qint(3)
                + ASTAR * A * ASTAR ** 2 * qint(3) - A * ASTAR ** 3
                - RHO1 * (ASTAR * A) + RHO1 * (A * ASTAR))
    assert build_relation_lhs(table, family=2) == expected
    assert build_relation_lhs(table, family=2) == build_relation_lhs(table, family=1).dagger()


def test_r2_relation_rearranges_to_the_golden_identity():
    # sum_j (-1)^j [5 over j] A^{5-j} A*^2 A^j
    #   = rho0 ((q^4+q^-4+3)(A^3 A*^2 - A*^2 A^3) - [5][3](A^2 A*^2 A - A A*^2 A^2))
    #   - rho0^2 (q^2+q^-2)^2 (A A*^2 - A*^2 A)
    lhs = build_relation_lhs(reduced_genfun_coeffs(2), family=1)
    qserre = NcPoly.zero()
    for j in range(6):
        term = A ** (5 - j) * ASTAR ** 2 * A ** j * qbinomial(5, j)
        qserre = qserre + (term if j % 2 == 0 else -term)
    c0 = parse_expression("(q^4+3+q^-4) A^3 A*^2 - (q^4+3+q^-4) A*^2 A^3")
    c1 = (A ** 2 * ASTAR ** 2 * A - A * ASTAR ** 2 * A ** 2) * (qint(5) * qint(3))
    sq = (LaurentPoly.q_power(2) + LaurentPoly.q_power(-2)) ** 2
    c2 = (A * ASTAR ** 2 - ASTAR ** 2 * A) * sq
    rhs = (c0 - c1) * RHO0 - c2 * (RHO0 * RHO0)
    assert lhs == qserre - rhs


def test_rho_zero_specialization_is_the_higher_qserre_relation():
    for r in (1, 2, 3, 5):
        lhs = build_relation_lhs(reduced_genfun_coeffs(r), family=1).specialize_rho_zero()
        lus = build_relation_lhs(lusztig_coeffs(r), family=1)
        assert lhs == lus
        assert lhs.term_count() == 2 * r + 2
        for word, coeff in lhs.sorted_terms():
            j = len(word) - word.rfind("s") - 1
            assert coeff.specialize_rho_zero() in (qbinomial(2 * r + 1, j),
                                                   -qbinomial(2 * r + 1, j))


def test_verify_relation_zero_for_small_r():
    for r in (1, 2, 3, 4):
        report = verify_relation(r)
        assert report.ok()
        assert report.result == "zero"
        assert report.residual_term_count == 0
        assert report.residual is None
        assert report.r == r and report.family == 1
        assert report.certified_by == "reduction"


def test_verify_routes_agree_on_the_outcome():
    for route in ("recursion", "closed"):
        assert verify_relation(3, route=route).ok()


def test_family_two_certified_by_the_automorphism():
    report = verify_relation(2).family_two()
    assert report.ok()
    assert report.certified_by == "automorphism"
    assert report.family == 2


def test_family_two_report_carries_the_dagger_of_a_nonzero_residual():
    table = reduced_genfun_coeffs(2)
    entries = dict(table.entries)
    entries[(1, 1)] = entries[(1, 1)] + 1
    perturbed = CoeffTable(r=2, route="genfun+perturbed", entries=entries)
    first = verify_relation(2, table=perturbed)
    second = verify_relation(2, table=perturbed).family_two()
    assert not second.ok() and second.certified_by == "automorphism"
    assert second.residual == first.residual.dagger() != first.residual
    assert second.residual_term_count == first.residual_term_count > 0


def test_uniqueness_negative_control():
    table = reduced_genfun_coeffs(2)
    entries = dict(table.entries)
    entries[(0, 1)] = entries[(0, 1)] + 1
    perturbed = CoeffTable(r=2, route="genfun+perturbed", entries=entries)
    report = verify_relation(2, table=perturbed)
    assert not report.ok()
    assert report.result == "nonzero"
    assert report.residual_term_count > 0
    assert report.residual is not None
    assert report.residual_term_count == report.residual.term_count()
    # the residual is congruent to the perturbed relation, so re-reducing it
    # changes nothing
    assert normal_form(report.residual) == report.residual


def test_report_json_schema():
    doc = json.loads(verify_relation(2).to_json())
    assert set(doc) == {"r", "family", "result", "residual_term_count",
                        "peak_term_count", "elapsed_ms", "route"}
    assert doc["result"] == "zero"
    assert doc["route"] == "genfun"
    assert isinstance(doc["elapsed_ms"], float)


def test_incomplete_table_is_an_error():
    table = reduced_genfun_coeffs(2)
    entries = dict(table.entries)
    del entries[(1, 1)]
    with pytest.raises(KeyError):
        build_relation_lhs(CoeffTable(r=2, route="broken", entries=entries))


def test_a_table_at_another_r_is_an_error():
    # its report would say r = 5 and certify the r = 3 relation
    with pytest.raises(ValueError, match="r=3"):
        verify_relation(5, table=reduced_genfun_coeffs(3))


def test_cross_check_routes_agree():
    report = cross_check_routes(4)
    assert report.equal
    assert report.first_mismatch is None
    assert report.routes == ("genfun", "recursion", "closed")
    assert report.checked_entries == 8


def test_cross_check_routes_agree_to_r10():
    # genfun against recursion and closed, table by table, past the r <= 8 of
    # the acceptance suite
    report = cross_check_routes(10)
    assert report.equal, report.to_json_dict()
    assert report.checked_entries == 20


def test_cross_check_reports_the_literal_divergence():
    report = cross_check_routes(4, include_literal=True)
    assert not report.equal
    mm = report.first_mismatch
    assert (mm.r, mm.p, mm.j) == (3, 0, 3)
    assert mm.route_b == "closed-literal"
    doc = report.to_json_dict()
    assert doc["first_mismatch"]["r"] == 3


def test_bad_arguments():
    with pytest.raises(ValueError):
        verify_relation(0)
    with pytest.raises(ValueError):
        build_relation_lhs(reduced_genfun_coeffs(1), family=0)
    with pytest.raises(ValueError):
        cross_check_routes(0)
