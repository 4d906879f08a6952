"""Acceptance gate.

Each test drives one verification suite at its contract configuration,
requires zero failures, and enforces a wall-clock budget measured here
rather than inside the library. One PASS/FAIL line per criterion is
written to the real stdout so the gate stays legible under capture.
"""

import time

from qseidel import cli
from qseidel.suites import RunConfig, run_suites

from conftest import ACCEPTANCE_LINES


# The exact check count of each suite at its contract configuration. A
# speedup that lowers a count has dropped work, so the gate pins them all.
CHECK_COUNTS = {
    "seidel-table": 10,
    "commutation": 14_628,
    "chevalley": 9_380,
    "orbit": 18_546,
    "length": 15_360,
    "hat": 61_440,
    "pi-p": 107_650,
    "closure": 213_459,
    "v-elements": 139,
    "nilhecke": 540,
    "psi": 2_660,
    "equivariant": 2,
}


def _gate(num, suite, budget):
    t0 = time.monotonic()
    results = run_suites(RunConfig(suite=suite))
    dt = time.monotonic() - t0
    failures = [f for r in results for f in r.failures]
    checks = sum(r.checks for r in results)
    ok = not failures and dt < budget
    line = (f"criterion {num:02d} [{suite}]: {'PASS' if ok else 'FAIL'} "
            f"({checks} checks, {dt:.2f}s of {budget:.0f}s)")
    print(line)
    ACCEPTANCE_LINES.append(line)
    for f in failures:
        ACCEPTANCE_LINES.append(f"  ! {f}")
    assert not failures, failures
    assert checks > 0, f"{suite} performed no checks"
    assert checks == CHECK_COUNTS[suite], f"{suite} ran {checks} checks, " \
        f"pinned {CHECK_COUNTS[suite]}"
    assert dt < budget, f"{suite} took {dt:.2f}s, budget {budget}s"
    return results


def test_c01_seidel_table_projective_plane():
    # all nine central products on P^2, against frozen values
    _gate(1, "seidel-table", 1.0)


def test_c02_seidel_chevalley_commutation():
    # S_i D_j = D_j S_i over the catalog, all parabolics, all basis classes
    _gate(2, "commutation", 300.0)


def test_c03_chevalley_operators():
    # D_j D_k = D_k D_j everywhere, and D_1^(n+1)(1) = q on projective space
    _gate(3, "chevalley", 60.0)


def test_c04_seidel_orbits_and_composition():
    # orbit length equals the order of the central class; composing two
    # operators matches the operator of the product up to one global q power
    _gate(4, "orbit", 60.0)


def test_c05_affine_length():
    # closed-form length equals the affine inversion count on rank <= 3 boxes
    _gate(5, "length", 120.0)


def test_c06_hat_decomposition():
    # central factor splits off with translation part in the coroot lattice
    # and length preserved, same boxes over the coweight lattice
    _gate(6, "hat", 60.0)


def test_c07_parabolic_projection():
    # pi_P lands in (W^P)_aff with parabolic residual, and a windowed brute
    # force confirms it is the unique such factor
    _gate(7, "pi-p", 30.0)


def test_c08_minimal_representative_closure():
    # products of minimal representatives with projected translations stay
    # minimal with additive length, and the translation criterion is exact
    _gate(8, "closure", 120.0)


def test_c09_v_elements():
    # v_i inverts to v_{f(i)} and flips exactly the roots off the parabolic
    _gate(9, "v-elements", 10.0)


def test_c10_nil_hecke():
    # reflections square to one, braid relations hold, the embedded group
    # is multiplicative, and the coefficient action matches the engine
    _gate(10, "nilhecke", 60.0)


def test_c11_affine_quantum_dictionary():
    # frozen rank-one values and independence of the reference translation
    _gate(11, "psi", 10.0)


def test_c12_equivariant_tension():
    # the equivariant operators do not commute with the Seidel operator on
    # the rank-one full flag; the divergence is reported, not hidden
    results = _gate(12, "equivariant", 10.0)
    findings = [f for r in results for f in r.findings]
    assert len(findings) == 2
    assert any("2*w1" in f for f in findings)
    # the command-line gate reports the same and still exits cleanly
    assert cli.run(["verify", "--suite", "equivariant"]) == 0
