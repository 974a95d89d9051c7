"""Acceptance gate: the eight shipping criteria, one test per criterion.

Each test prints a one-line summary with the measured margins so the gate
run documents the precision actually achieved.
"""

import math
import time

import numpy as np
from scipy.linalg import expm

from conftest import block_state, cm_blocks, random_local_symplectic, random_physical_cm
from ionmodes import experiments, gaussian, golden
from ionmodes.fock import husimi_data, matrix_element, tmsv_disentangle


def sig_fig_tolerance(value, figures, slack=0.6):
    return slack * 10.0 ** (math.floor(math.log10(abs(value))) - figures + 1)


def test_1_small_chain_closed_forms():
    start = time.monotonic()
    s3 = math.sqrt(3.0)
    s145 = math.sqrt(145.0)

    model2 = experiments.chain_model(2)
    edge2 = 0.25 ** (1.0 / 3.0)
    assert np.abs(model2.positions - [-edge2, edge2]).max() < 1e-10
    assert np.abs(model2.frequencies - [1.0, s3]).max() < 1e-10
    a, b = (3.0 + s3) / 6.0, (3.0 - s3) / 6.0
    c, d = (1.0 + s3) / 2.0, (1.0 - s3) / 2.0
    cm2 = np.array([
        [a, 0.0, b, 0.0],
        [0.0, c, 0.0, d],
        [b, 0.0, a, 0.0],
        [0.0, d, 0.0, c],
    ])
    assert np.abs(model2.cm - cm2).max() < 1e-10

    model3 = experiments.chain_model(3)
    edge3 = 1.25 ** (1.0 / 3.0)
    assert np.abs(model3.positions - [-edge3, 0.0, edge3]).max() < 1e-10
    assert np.abs(model3.frequencies - [1.0, s3, math.sqrt(29.0 / 5.0)]).max() < 1e-10
    p_out = (29.0 * s3 + s145 + 58.0) / 174.0
    p_mid = 1.0 / 3.0 + 2.0 * math.sqrt(5.0 / 29.0) / 3.0
    p_cross = 1.0 / 3.0 - math.sqrt(5.0 / 29.0) / 3.0
    p_far = (-29.0 * s3 + s145 + 58.0) / 174.0
    k_out = (15.0 * s3 + s145 + 10.0) / 30.0
    k_mid = (2.0 * s145 + 5.0) / 15.0
    k_cross = (5.0 - s145) / 15.0
    k_far = (-15.0 * s3 + s145 + 10.0) / 30.0
    cm3 = np.array([
        [p_out, 0.0, p_cross, 0.0, p_far, 0.0],
        [0.0, k_out, 0.0, k_cross, 0.0, k_far],
        [p_cross, 0.0, p_mid, 0.0, p_cross, 0.0],
        [0.0, k_cross, 0.0, k_mid, 0.0, k_cross],
        [p_far, 0.0, p_cross, 0.0, p_out, 0.0],
        [0.0, k_far, 0.0, k_cross, 0.0, k_out],
    ])
    assert np.abs(model3.cm - cm3).max() < 1e-10

    neg2 = gaussian.log_negativity(model2.cm, [0], [1])
    want2 = math.log(3.0) / math.log(16.0)
    assert abs(neg2 - want2) < 1e-5

    pair12 = gaussian.restrict(model3.cm, [0, 1])
    neg3_adjacent = gaussian.log_negativity(pair12, [0], [1])
    inner = 435.0 * (-5952.0 * s3 + 4.0 * (105.0 * s3 + 299.0) * s145 + 13571.0)
    denom = (-145.0 * (4.0 * s3 + 9.0) - 2.0 * s145 * (11.0 * s3 + 153.0)
             + math.sqrt(inner))
    want3_adjacent = math.log(-5220.0 / denom) / math.log(4.0)
    assert abs(neg3_adjacent - want3_adjacent) < 1e-5

    pair13 = gaussian.restrict(model3.cm, [0, 2])
    neg3_edges = gaussian.log_negativity(pair13, [0], [1])
    want3_edges = math.log((5.0 / 3.0) * (49.0 - 4.0 * s145)) / math.log(16.0)
    assert abs(neg3_edges - want3_edges) < 1e-5

    entropy = gaussian.entanglement_entropy(gaussian.restrict(model2.cm, [0]))
    root = math.sqrt(6.0 * (2.0 * s3 + 3.0))
    want_entropy = ((root + 6.0) * math.log(root + 6.0) - 12.0 * math.log(12.0)
                    - (root - 6.0) * math.log(root - 6.0)) / math.log(4096.0)
    assert abs(entropy - want_entropy) < 1e-4

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print("criterion 1 pass: closed forms to 1e-10, negativities "
          "%.6f/%.6f/%.6f, entropy %.5f, %.2f s"
          % (neg2, neg3_adjacent, neg3_edges, entropy, elapsed))


def test_2_single_site_negativity_table():
    start = time.monotonic()
    report = golden.check_table(1, "default")
    elapsed = time.monotonic() - start
    assert len(report.cells) == 66
    assert report.passed, [
        (c.row, c.column, c.golden, c.computed) for c in report.failures]
    assert elapsed < 120.0
    print("criterion 2 pass: table 1, %d cells, worst margin %.3f, %.1f s"
          % (len(report.cells), report.worst.margin, elapsed))


def test_3_wider_region_negativity_tables():
    start = time.monotonic()
    reports = [golden.check_table(t, "default") for t in (2, 3)]
    elapsed = time.monotonic() - start
    for report in reports:
        assert report.passed, [
            (c.row, c.column, c.golden, c.computed) for c in report.failures]
    assert elapsed < 900.0
    worst = max(r.worst.margin for r in reports)
    print("criterion 3 pass: tables 2-3, %d cells, worst margin %.3f, %.1f s"
          % (sum(len(r.cells) for r in reports), worst, elapsed))


def test_4_fidelity_tables_with_oracle_gate():
    # convention gate first: overlap of the vacuum with a squeezed vacuum
    # has the closed form sqrt(2 z / (z^2 + 1))
    for z in (0.3, 0.8, 1.0, 1.7, 4.0, 6.5):
        got = gaussian.fidelity((np.eye(1), np.eye(1)), ([[z * z]], [[1.0 / (z * z)]]))
        assert abs(got - math.sqrt(2.0 * z / (z * z + 1.0))) < 1e-8

    worst = 0.0
    n_rows = 0
    for table in (4, 5, 6):
        chain_size = golden.TABLES[table][1]["chain_size"]
        for row in golden.load_table(table):
            window = int(row["region_size"])
            z_star, raw, squeezed = experiments.fidelity_cell(chain_size, window)
            for got, printed in ((z_star, row["squeeze_z"]),
                                 (raw, row["fidelity_raw"]),
                                 (squeezed, row["fidelity_squeezed"])):
                diff = abs(got - float(printed))
                worst = max(worst, diff)
                assert diff <= 2e-3, (table, window, printed, got)
            n_rows += 1
    assert n_rows == 15 + 25 + 25
    print("criterion 4 pass: oracle to 1e-8; %d fidelity rows within "
          "+-0.002 (worst |diff| %.2e)" % (n_rows, worst))


def test_5_two_ion_fock_matrix():
    printed = np.zeros((9, 9))
    upper = {
        (0, 0): 0.963, (0, 2): -0.0913, (0, 4): 0.129, (0, 6): -0.0913,
        (0, 8): 0.0259,
        (2, 2): 0.00865, (2, 4): -0.0122, (2, 6): 0.00865, (2, 8): -0.00246,
        (4, 4): 0.0173, (4, 6): -0.0122, (4, 8): 0.00348,
        (6, 6): 0.00865, (6, 8): -0.00246,
        (8, 8): 0.000698,
    }
    for (i, j), value in upper.items():
        printed[i, j] = value
        printed[j, i] = value

    h = husimi_data(experiments.chain_model(2).cm)
    basis = [(m, n) for m in range(3) for n in range(3)]
    worst = 0.0
    for i, bra in enumerate(basis):
        for j, ket in enumerate(basis):
            element = matrix_element(h, bra, ket)
            assert abs(element.imag) < 1e-12
            got = element.real
            want = printed[i, j]
            if want == 0.0:
                assert abs(got) < 1e-12, (bra, ket, got)
                continue
            tol = max(sig_fig_tolerance(want, 3), 5e-4)
            diff = abs(got - want)
            worst = max(worst, diff)
            assert diff <= tol, (bra, ket, want, got)
    print("criterion 5 pass: 81 elements, zero pattern exact, "
          "worst |diff| %.2e" % worst)


def test_6_qudit_deficit_table():
    rows = experiments.fock_rows(range(2, 9))
    golden_rows = golden.load_table(7)
    assert len(rows) == len(golden_rows) == 7
    worst_raw = 0.0
    worst_squeezed = 0.0
    for (dim, raw, squeezed), row in zip(rows, golden_rows):
        assert dim == int(row["qudit_dim"])
        want_raw = float(row["p_out_raw"])
        assert abs(raw - want_raw) <= sig_fig_tolerance(want_raw, 3)
        worst_raw = max(worst_raw, abs(raw - want_raw) / want_raw)
        want_sq = float(row["p_out_squeezed"])
        assert abs(squeezed - want_sq) <= sig_fig_tolerance(want_sq, 3)
        worst_squeezed = max(worst_squeezed, abs(squeezed - want_sq) / want_sq)
    print("criterion 6 pass: 7 rows at 3 significant figures; achieved relative "
          "error %.2e (raw), %.2e (squeezed)" % (worst_raw, worst_squeezed))


def test_7_property_suites():
    start = time.monotonic()
    rng = np.random.default_rng(20260825)

    # negativity is invariant under mode-local symplectics
    for _ in range(100):
        sigma, _, _ = random_physical_cm(rng, 3)
        s = random_local_symplectic(rng, 3)
        base = gaussian.log_negativity(sigma, [0], [1, 2])
        moved = gaussian.log_negativity(gaussian.apply_symplectic(sigma, s),
                                        [0], [1, 2])
        assert abs(base - moved) < 1e-8

    # fidelity of (Phi, Pi) states is symmetric and one on the diagonal
    cross_free_rng = np.random.default_rng(20260826)
    for _ in range(100):
        sigma_1 = cm_blocks(block_state(cross_free_rng, 2, cross_free_rng.uniform(0.0, 1.0)))
        sigma_2 = cm_blocks(block_state(cross_free_rng, 2, cross_free_rng.uniform(0.0, 1.0)))
        f12 = gaussian.fidelity(sigma_1, sigma_2)
        f21 = gaussian.fidelity(sigma_2, sigma_1)
        assert abs(f12 - f21) < 1e-9
        assert 0.0 < f12 <= 1.0 + 1e-12
        assert abs(gaussian.fidelity(sigma_1, sigma_1) - 1.0) < 1e-9

    # homodyne conditioning keeps pure states pure
    for _ in range(20):
        sigma, s, _ = random_physical_cm(rng, 4, thermal_max=1.0)
        pure = s @ s.T
        for quadrature in ("phi", "pi"):
            nu = gaussian.symplectic_spectrum(
                gaussian.condition_homodyne(pure, [1, 3], quadrature))
            assert np.abs(nu - 1.0).max() < 1e-8

    # su(1,1) disentanglement against the 2x2 matrix exponential
    checked = 0
    while checked < 100:
        v0, vp, vm = rng.uniform(-1.5, 1.5, size=3)
        e = expm(np.array([[0.5 * v0, vp], [-vm, -0.5 * v0]]))
        if e[1, 1] < 0.05:
            continue
        t0, t_plus, t_minus = tmsv_disentangle(v0, vp, vm)
        assert abs(t0 - 1.0 / e[1, 1] ** 2) < 1e-9
        assert abs(t_plus - e[0, 1] / e[1, 1]) < 1e-9
        assert abs(t_minus - (-e[1, 0] / e[1, 1])) < 1e-9
        checked += 1

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print("criterion 7 pass: four property suites in %.1f s" % elapsed)


def test_8_negativity_decay_ratios():
    values = [experiments.negativity_cell("ion", 150, 1, sep, "phi")
              for sep in range(3, 11)]
    ratios = [n2 / n1 for n1, n2 in zip(values, values[1:])]
    assert all(0.5 <= r <= 0.95 for r in ratios), ratios
    print("criterion 8 pass: phi-measured decay ratios in [%.3f, %.3f]"
          % (min(ratios), max(ratios)))
