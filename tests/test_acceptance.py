"""Acceptance suite.

Every numbered check runs at its stated tolerance: all matrix identities are
exact integer equalities (zero tolerance); the two quantitative reproductions
on the integer line carry their stated runtime budgets.  Each check prints
one pass/fail line (run with ``pytest -s`` to see them all).

Check 5 is split in two.  The product-identity form of matching
independence, together with equal index pairings on the line variants, holds
exactly and is asserted in 5b.  The literal two-conjugation route (hybrid
intermediate, block-diagonal conjugator, slot-preserving conjugator) is
asserted verbatim in 5a and fails: the hybrid intermediate is not injective
whenever the two matchings route some ingoing edge to different target
vertices, and even when it is injective a closed track whose cycle type
changes rules out any unitary conjugation, since conjugation preserves the
spectrum.  The wedge of two 2-gons already exhibits both obstructions.  5a
is kept faithful rather than weakened; its failure certificate is in the
report details.
"""

from functools import lru_cache

from coarsek.scenarios import (
    DEFAULT_SEED,
    check_compression,
    check_edgeless_line,
    check_homology_engine,
    check_line_h0_quotient,
    check_line_homology,
    check_line_isomorphism,
    check_matching_independence,
    check_propagation_corpus,
    check_unitarity_corpus,
    check_witness_corpus,
)

SEED = DEFAULT_SEED


def _criterion(num: str, title: str, ok: bool) -> bool:
    print(f"criterion {num:>3} {title}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_unitarity_on_random_corpus():
    res = check_unitarity_corpus(SEED, count=200)
    ok = res["ok"] and res["seconds"] < 5.0
    assert _criterion("1", "exact unitarity on 200 random cycles", ok), res


def test_criterion_02_propagation_and_block_ranks():
    res = check_propagation_corpus(SEED, count=200)
    assert _criterion(
        "2", "defect entries join adjacent vertices, blocks rank-bounded", res["ok"]
    ), res


def test_criterion_03_boundary_witness_identities():
    res = check_witness_corpus(SEED, count=200)
    assert _criterion(
        "3", "partial-isometry witness identities on 200 random chains", res["ok"]
    ), res


def test_criterion_04_signatures():
    from coarsek.scenarios import check_k0_signatures

    res = check_k0_signatures(SEED, count=200)
    assert _criterion(
        "4", "signature vanishes on boundaries and sums coefficients", res["ok"]
    ), res


@lru_cache(maxsize=1)
def _matching_result():
    return check_matching_independence(SEED, pairs=50)


def test_criterion_05a_two_conjugation_route_literal():
    res = _matching_result()
    ok = _criterion("5a", "two-conjugation route holds verbatim", res["literal_ok"])
    assert ok, (
        "the literal route is unsatisfiable on generic matching pairs: "
        f"{res['literal_summary']['failing_pairs']} of {res['pairs']} pairs "
        "obstructed; first certificate: "
        f"{res['literal_summary']['first_obstruction']}"
    )


def test_criterion_05b_matching_independence_content():
    res = _matching_result()
    ok = res["content_ok"] and res["line_ok"]
    assert _criterion(
        "5b", "matching independence via the exact product identity", ok
    ), res


def test_criterion_06_compression():
    res = check_compression(SEED, count=40)
    assert _criterion(
        "6", "corner compression: conjugation, confinement, index equality", res["ok"]
    ), res


def test_criterion_07_line_isomorphism():
    res = check_line_isomorphism()
    ok = (
        res["ok"]
        and res["sign"] in (-1, 1)
        and res["shift_index"] == -1
        and res["seconds"] < 1.0
    )
    assert _criterion(
        "7", "line classes map to indexes by a fixed sign, windows agree", ok
    ), res


def test_criterion_08_h0_quotient_on_line():
    res = check_line_h0_quotient(SEED)
    assert _criterion(
        "8", "bounded witnesses and slope certificates on the line", res["ok"]
    ), res


def test_criterion_09_edgeless_line():
    res = check_edgeless_line()
    assert _criterion("9", "edgeless line scenario", res["ok"]), res


def test_criterion_10_homology_engine():
    res = check_homology_engine(SEED)
    assert _criterion(
        "10",
        f"homology engine agrees with the rank formula on {res['examined']} graphs",
        res["ok"],
    ), res


def test_banded_cycle_classification_supplement():
    # supplements check 7: the degree-1 domain on the line really is the
    # constants
    res = check_line_homology()
    assert res["ok"], res
