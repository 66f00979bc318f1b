"""Eleven acceptance criteria, one test each, with explicit time budgets.

Each criterion re-verifies a structural theorem by brute force through
the oracle module and asserts both the verdict and the wall-clock
budget.  Run with -v to get one pass/fail line per criterion.
"""

import time
from dataclasses import replace
from itertools import product

from cubecats.cubes import standard_cube
from cubecats.oracle import (
    CATEGORY_IDS,
    category_view,
    check_bchop_graphmeet_iso,
    check_category_laws,
    check_factorization,
    check_fibre_dimension,
    check_meet_equals_dim,
    check_rec_nonrec,
    check_ternary_iso,
    check_total_order,
    check_unique_hamiltonian,
    check_unique_surjection,
)
from cubecats.twisted import ternary_compose_rows


def _within(budget, t0):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"budget exceeded: {elapsed:.1f}s >= {budget}s"
    print(f"PASS in {elapsed:.2f}s (budget {budget}s)")


def test_criterion_01_rec_nonrec_agreement():
    t0 = time.perf_counter()
    report = check_rec_nonrec(max_n=4)
    assert report.passed, report.counterexample
    assert report.counts["isomorphisms"] == 10
    _within(10, t0)


def test_criterion_02_substitution_category_matches_meet_maps():
    t0 = time.perf_counter()
    report = check_bchop_graphmeet_iso(max_dim=3, comp_dim=2)
    assert report.passed, report.counterexample
    # both sides: 2 * Σ |bchop(m, n)| for m, n <= 3
    assert report.counts["round_trips"] == 448
    assert report.counts["composition_pairs"] > 0
    _within(60, t0)


def test_criterion_03_meet_maps_equal_dimension_maps():
    t0 = time.perf_counter()
    # both hom-sets at (3, 3), each under its own constraints, before comparing
    meets, dims = category_view("graphmeet"), category_view("graphdim")
    assert len(meets.rows(3, 3)) == len(dims.rows(3, 3)) == 86
    report = check_meet_equals_dim(max_dim=3)
    assert report.passed, report.counterexample
    _within(120, t0)


def test_criterion_04_twisted_cube_is_totally_ordered():
    t0 = time.perf_counter()
    report = check_total_order(max_n=5)
    assert report.passed, report.counterexample
    assert report.counts["vertices"] == sum(2**n for n in range(6))
    _within(5, t0)


def test_criterion_05_unique_hamiltonian_path():
    t0 = time.perf_counter()
    report = check_unique_hamiltonian(max_n=4)
    assert report.passed, report.counterexample
    assert report.counts["paths_searched"] == 4
    _within(30, t0)


def test_criterion_06_unique_surjection():
    t0 = time.perf_counter()
    report = check_unique_surjection(max_dim=3)
    assert report.passed, report.counterexample
    _within(60, t0)


def test_criterion_07_unique_factorization():
    t0 = time.perf_counter()
    report = check_factorization(max_dim=3)
    assert report.passed, report.counterexample
    _within(60, t0)


def test_criterion_08_ternary_notation_isomorphism():
    t0 = time.perf_counter()
    report = check_ternary_iso(max_dim=3, comp_dim=2, comp_samples=20000)
    assert report.passed, report.counterexample
    assert report.counts["sampled_pairs"] >= 10**4
    _within(120, t0)


def test_criterion_09_category_laws_all_presentations():
    t0 = time.perf_counter()
    assert len(CATEGORY_IDS) == 9
    for cat_id in CATEGORY_IDS:
        report = check_category_laws(category_view(cat_id), max_dim=3, max_assoc_dim=2)
        assert report.passed, (cat_id, report.counterexample)
    _within(120, t0)


def test_criterion_10_mutation_sensitivity():
    t0 = time.perf_counter()
    # mutation A: composition without the parity xor
    untwisted = replace(
        category_view("ternary"),
        compose_rows=lambda m, n, p, h, g: ternary_compose_rows(h, g, twist=False),
    )
    broken_iso = check_ternary_iso(max_dim=2, comp_dim=2, comp_samples=0, view=untwisted)
    assert broken_iso.counterexample["stage"] == "composition"
    # mutation B: cube builder without the zero-parity flip
    flat = category_view("graphdim")
    broken = [
        check_total_order(max_n=3, build=standard_cube),
        check_unique_hamiltonian(max_n=3, build=standard_cube),
        check_unique_surjection(max_dim=2, view=flat),
        check_factorization(max_dim=2, view=flat),
    ]
    assert sum(not r.passed for r in broken) >= 1
    assert all(not r.passed for r in broken)
    _within(120, t0)


def test_criterion_11_equal_fibres_characterize_dimension_preservation():
    t0 = time.perf_counter()
    report = check_fibre_dimension(max_dim=3)
    assert report.passed, report.counterexample
    # spot-check the fibre arithmetic against plain counting
    twgraphdim = category_view("twgraphdim")
    for m, n in product(range(3), repeat=2):
        for f in twgraphdim.rows(m, n).tolist():
            counts = {}
            for w in f:
                counts[w] = counts.get(w, 0) + 1
            assert len(set(counts.values())) == 1
    _within(60, t0)
