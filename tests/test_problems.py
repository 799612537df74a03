import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from concordia import sweeps

from concordia.curves import Curve
from concordia.problems import (FamilyRecord, four_torsion_counterexamples,
                                gen_order4_family, gen_order8_family,
                                gen_order36_family, solve_concordant,
                                solve_theta_congruent,
                                verify_concordant_solution)
from concordia.sweeps import (check_curve_against_oracle, curve_grid,
                              family_sweep, oracle_equivalence_sweep)
from concordia.triples import (ConcordantTriple, CongruentTriple,
                               congruent_to_concordant)


def test_solve_theta_equilateral():
    report = solve_theta_congruent(CongruentTriple(1, 2, 1))
    assert report.problem == "theta-congruent"
    assert report.torsion_class.tag == "Z2xZ4"
    assert len(report.solutions) == 4
    tris = report.triangles()
    assert len(tris) == 1
    tri, pts = tris[0]
    assert tri.sides() == (2, 2, 2)
    assert len(pts) == 4


def test_solve_theta_right_angle_search():
    report = solve_theta_congruent(CongruentTriple(0, 1, 5), search_bound=2000)
    sides = {tri.sides() for tri, _ in report.triangles()}
    assert (Fraction(20, 3), Fraction(3, 2), Fraction(41, 6)) in sides
    assert any(e.provenance == "search" for e in report.solutions)


def test_solve_concordant_rank_zero_two_torsion_only():
    report = solve_concordant(ConcordantTriple(1, 1, 1), search_bound=30)
    assert report.solutions == ()
    assert report.torsion_class.tag == "Z2xZ2"
    assert report.decidability == "bounded"


def test_solve_concordant_torsion_solutions():
    report = solve_concordant(ConcordantTriple(1, 3, 1))
    assert len(report.solutions) == 4
    for entry in report.solutions:
        assert entry.provenance == "torsion"
        assert not entry.quadric.is_trivial
        assert entry.quadric.on_quadric(report.curve)


def test_report_json_shape():
    report = solve_theta_congruent(CongruentTriple(1, 2, 1), search_bound=50)
    out = report.to_json()
    assert out["problem"] == "theta-congruent"
    assert out["curve"] == {"m": -1, "n": 3}
    assert out["torsion"]["class"] == "Z2xZ4"
    assert isinstance(out["solutions"], list)
    assert out["search_bound"] == 50
    assert out["decidability"] == "bounded"
    for sol in out["solutions"]:
        assert set(sol) >= {"point", "quadric", "ap", "provenance"}


def test_gen_order4_family():
    rec = gen_order4_family(1, 2)
    assert (rec.m, rec.n) == (-1, 3)
    assert rec.torsion_tag == "Z2xZ4"
    assert rec.concordant == ConcordantTriple(1, 3, 1)
    assert rec.congruent == CongruentTriple(1, 2, 1)
    assert rec.congruent_curve == (-1, 3)
    rec = gen_order4_family(9, 16)
    assert (rec.m, rec.n) == (-81, 175)
    assert rec.torsion_tag == "Z2xZ8"


def test_gen_order8_family():
    rec = gen_order8_family(8, 15, 17)
    assert (rec.m, rec.n) == (-4096, 46529)
    assert rec.torsion_tag == "Z2xZ8"
    rec = gen_order8_family(3, 4, 5)
    assert (rec.m, rec.n) == (-81, 175)
    with pytest.raises(ValueError, match="zeta > 0"):
        gen_order8_family(3, 4, -5)


def test_gen_order36_family():
    rec = gen_order36_family(-1, 3)
    assert (rec.m, rec.n) == (-5, 27)
    assert rec.torsion_tag == "Z2xZ6"
    rec = gen_order36_family(-2, 7)
    assert (rec.m, rec.n) == (-96, 1029)
    assert rec.concordant == ConcordantTriple(32, 343, 3)


def test_family_congruent_variants_are_consistent():
    for rec in (gen_order4_family(1, 2), gen_order8_family(3, 4, 5),
                gen_order36_family(-2, 5), gen_order36_family(-2, 7)):
        assert isinstance(rec, FamilyRecord)
        assert congruent_to_concordant(rec.congruent).curve() == \
            Curve(*rec.congruent_curve)
        assert rec.concordant.curve() == Curve(rec.m, rec.n)


def test_verify_concordant_solution():
    assert verify_concordant_solution(1, 4, 0, 1, 1, 2) == "nontrivial"
    assert verify_concordant_solution(1, 4, 3, 0, 3, 3) == "trivial"
    assert verify_concordant_solution(1, 4, 1, 1, 1, 1) == "invalid"
    assert verify_concordant_solution(1, 4, 0, 0, 0, 0) == "invalid"


@pytest.mark.parametrize("m,n,xyzw", [
    (0, 0, (1, 1, 1, 1)), (2, 2, (1, 2, 3, 3)), (0, 3, (1, 0, 1, 1))])
def test_verify_concordant_solution_refuses_degenerate_forms(m, n, xyzw):
    with pytest.raises(ValueError, match="degenerate cubic"):
        verify_concordant_solution(m, n, *xyzw)


def test_four_torsion_counterexamples():
    assert four_torsion_counterexamples() == []


@pytest.mark.parametrize("target,fake,ks", [
    # the verifier calls (0,1,1,3) trivial
    ("concordia.problems.verify_concordant_solution",
     lambda m, n, x, y, z, w: "trivial" if w == 3 else "nontrivial", [3]),
    # no image has order 4
    ("concordia.problems.Curve.order_of", lambda c, P: 2,
     [2, 3, 4, 5, 6, 8, 9, 13]),
], ids=["verdict", "order"])
def test_broken_counterexample_suite_names_each_k(target, fake, ks,
                                                  monkeypatch):
    monkeypatch.setattr(target, fake)
    assert four_torsion_counterexamples() == [
        f"counterexample suite failed at k={k}" for k in ks]


def test_oracle_sweep_small():
    assert oracle_equivalence_sweep(p_max=6, k_values=(1, 2, 3)) == []


def _label(pqk):
    """Stand-in for check_curve_against_oracle; module-level, so that the
    worker pool can pickle it."""
    return [repr(pqk)]


def test_parallel_sweep_keeps_grid_order(monkeypatch):
    # 70 grid points: three chunks of 32 for the pool
    monkeypatch.setattr("concordia.sweeps.check_curve_against_oracle", _label)
    labels = [repr(pqk) for pqk in curve_grid(7, (1, 2))]
    assert len(labels) > 64
    assert oracle_equivalence_sweep(7, (1, 2), jobs=2) == labels
    assert oracle_equivalence_sweep(7, (1, 2), jobs=1) == labels


def test_family_sweep_small():
    assert family_sweep(8) == []


def _without(point_repr):
    """A torsion_oracle that drops the points whose repr is in point_repr."""
    oracle = Curve.torsion_oracle

    def patched(c):
        return frozenset(P for P in oracle(c) if repr(P) not in point_repr)
    return patched


def test_oracle_check_reports_a_point_the_classifier_lacks(monkeypatch):
    closed_form = sweeps.torsion_subgroup
    monkeypatch.setattr("concordia.sweeps.torsion_subgroup", lambda c: (
        closed_form(c)[0], closed_form(c)[1] - {c.point(3, 6)}))
    assert check_curve_against_oracle((1, 3, 1)) == [
        "E(-1,3): point sets differ (oracle-only ['(3, 6)'], "
        "classifier-only [])"]


def test_oracle_check_reports_a_missing_point(monkeypatch):
    monkeypatch.setattr(Curve, "torsion_oracle", _without({"(3, 6)"}))
    assert check_curve_against_oracle((1, 3, 1)) == [
        "E(-1,3): point sets differ (oracle-only [], "
        "classifier-only ['(3, 6)'])",
        "E(-1,3): oracle finds 7 points, class Z2xZ4 implies 8"]


def test_oracle_check_reports_a_wrong_max_order(monkeypatch):
    four = {"(-1, -2)", "(-1, 2)", "(3, -6)", "(3, 6)"}
    monkeypatch.setattr(Curve, "torsion_oracle", _without(four))
    assert check_curve_against_oracle((1, 3, 1)) == [
        "E(-1,3): point sets differ (oracle-only [], classifier-only "
        "['(-1, -2)', '(-1, 2)', '(3, -6)', '(3, 6)'])",
        "E(-1,3): oracle finds 4 points, class Z2xZ4 implies 8",
        "E(-1,3): oracle max order 2, class Z2xZ4 implies 4"]


@pytest.mark.parametrize("field,value,message", [
    ("torsion_tag", "Z2xZ4", "classified Z2xZ4, expected {'Z2xZ8'}"),
    ("concordant", ConcordantTriple(81, 175, 2), "concordant k=2"),
    ("congruent", CongruentTriple(47, 128, 3), "congruent k=3"),
    ("congruent_curve", (-1, 1), "parity case tag inconsistent"),
])
def test_family_sweep_reports_a_wrong_field(field, value, message,
                                            monkeypatch):
    rec = gen_order8_family(3, 4, 5)
    monkeypatch.setattr("concordia.sweeps.family_grid", lambda limit: [
        rec, FamilyRecord(**{**vars(rec), field: value})])
    assert family_sweep() == [f"order8(3, 4, 5): {message}"]


def test_family_sweep_message_does_not_depend_on_the_hash_seed():
    # The order4 family expects two tags; a set of them prints in an order
    # that PYTHONHASHSEED chooses, so each seed runs in its own process.
    code = ("from concordia import problems, sweeps\n"
            "rec = sweeps.gen_order4_family(1, 2)\n"
            "rec = problems.FamilyRecord(**{**vars(rec), "
            "'torsion_tag': 'Z2xZ2'})\n"
            "sweeps.family_grid = lambda limit: [rec]\n"
            "print(sweeps.family_sweep()[0])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = {subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src,
                            PYTHONHASHSEED=str(seed))).stdout
        for seed in range(1, 5)}
    assert outs == {"order4(1, 2): classified Z2xZ2, "
                    "expected {'Z2xZ4', 'Z2xZ8'}\n"}
