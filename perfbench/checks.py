"""Correctness checks on one round's outputs.

They use numpy, the reference tables shipped in src/ionmodes/data and
closed forms; no ionmodes code.  Each check returns a Verdict: how many
operations the round attempted, how many failed to produce a value, and a
list of problems with the values that were produced (empty when correct).
"""

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from inputs import BALANCING_POINTS, QUDIT_DIMS, fock_grid, negativity_cells

EPS = np.finfo(float).eps

# tables: the significant-figure rule of the repository README.  A printed
# value with s significant figures allows |computed - printed| <=
# 0.6 * 10^(floor(log10 |printed|) - s + 1); squeeze factors allow at least
# +-0.002; the squeezed deficit column is read to 2 figures from qudit
# dimension 7 on; a printed 0 must come back as exactly 0.0.
SLACK = 0.6
Z_STAR_TOL = 2e-3
SQUEEZED_TAIL_DIM = 7
SQUEEZED_TAIL_FIGURES = 2
SQUEEZE_BRACKET = (0.5, 20.0)  # the package's documented search bracket for z
FIDELITY_TABLES = (4, 5, 6)

# negativity: partial-transpose symplectic eigenvalues within 1e-9 of 1
# count as exactly 1 (the README's separability convention), so a value
# may move by up to -log2(1 - 1e-9) per mode at the window's edge
NU_UNIT_WINDOW = 1e-9
NEGATIVITY_ATOL = 2e-9
NEGATIVITY_RTOL = 1e-9

# fock: the package takes a deficit of 1e-6 or more as the direct complement
# 1 - (sum of at most 64 probabilities), which carries about 64 eps
# absolute; a smaller one comes from the shell tail sum, converged to 1e-13
# relative, and is held to a relative tolerance alone
DIRECT_ROUTE_FLOOR = 1e-6
DEFICIT_RTOL = 1e-9
DEFICIT_ATOL = 64 * EPS


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    worst_margin: float = 0.0


def significant_figures(printed):
    digits = printed.lower().split("e")[0].replace("-", "").replace(".", "").lstrip("0")
    return len(digits)


def cell_tolerance(printed, figures=None):
    """Absolute tolerance for a printed reference value; None for a 0."""
    value = float(printed)
    if value == 0.0:
        return None
    s = figures if figures is not None else significant_figures(printed)
    return SLACK * 10.0 ** (math.floor(math.log10(abs(value))) - s + 1)


def reference_cells(data_dir):
    """(table, row, column, printed) for every cell of table1..7.csv."""
    cells = []
    for table in range(1, 8):
        with open(os.path.join(data_dir, "table%d.csv" % table), newline="") as fh:
            reader = csv.DictReader(fh)
            key = reader.fieldnames[0]
            for row in reader:
                label = "%s=%s" % (key, row[key])
                cells.extend((table, label, column, row[column])
                             for column in reader.fieldnames[1:])
    return cells


def check_tables(outputs, data_dir):
    verdict = Verdict()
    if outputs["exit_code"] != 0:
        verdict.problems.append("golden-check exited with code %s" % outputs["exit_code"])
    computed = {}
    if os.path.exists(outputs["csv"]):
        with open(outputs["csv"], newline="") as fh:
            for row in csv.DictReader(fh):
                if row["computed"] != "":
                    computed[(int(row["table"]), row["row"], row["column"])] = float(row["computed"])
    for table, label, column, printed in reference_cells(data_dir):
        verdict.attempted += 1
        value = computed.get((table, label, column))
        if value is None:
            verdict.failed += 1
            continue
        figures = None
        if column == "p_out_squeezed" and int(label.split("=")[1]) >= SQUEEZED_TAIL_DIM:
            figures = SQUEEZED_TAIL_FIGURES
        tol = cell_tolerance(printed, figures)
        if column == "squeeze_z":
            tol = max(tol, Z_STAR_TOL)
        if tol is None:
            ok, margin = value == 0.0, 0.0
        else:
            margin = abs(value - float(printed)) / tol
            ok = margin <= 1.0
        verdict.worst_margin = max(verdict.worst_margin, margin)
        if not ok:
            verdict.problems.append("table %d %s %s: %.9g against %s"
                                    % (table, label, column, value, printed))
    for (table, label, column), z in computed.items():
        if table not in FIDELITY_TABLES or column != "squeeze_z":
            continue
        raw = computed.get((table, label, "fidelity_raw"))
        squeezed = computed.get((table, label, "fidelity_squeezed"))
        if not SQUEEZE_BRACKET[0] < z < SQUEEZE_BRACKET[1]:
            verdict.problems.append("table %d %s: z* = %.9g outside %s"
                                    % (table, label, z, SQUEEZE_BRACKET))
        if raw is not None and squeezed is not None and not 0.0 < raw <= squeezed <= 1.0:
            verdict.problems.append("table %d %s: not 0 < F_raw %.9g <= F_squeezed %.9g <= 1"
                                    % (table, label, raw, squeezed))
    return verdict


def _omega(n_modes):
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_eigenvalues(cm):
    """nu_k, ascending: the eigenvalues of i Omega sigma are +-nu_k."""
    n = cm.shape[0] // 2
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * _omega(n) @ cm)))
    return 0.5 * (moduli[0::2] + moduli[1::2])


def check_negativity(seed, outputs, evidence, states):
    """Every value against the partial-transpose spectrum of the state it
    was computed from; phi/pi-measured states must be pure and match the
    pure-state formula over region A's spectrum."""
    verdict = Verdict()
    cells = negativity_cells(seed)
    values = outputs["values"]
    repeat = evidence["repeat_values"]
    if len(values) != len(cells) or len(repeat) != len(cells):
        verdict.problems.append("expected %d values, got %d (and %d repeated)"
                                % (len(cells), len(values), len(repeat)))
        return verdict
    captured = 0  # the repeat captured one state per value it produced
    for (system, d, sep, treatment), value, again in zip(cells, values, repeat):
        verdict.attempted += 1
        if again is not None:
            cm = states["cm%d" % captured]
            captured += 1
        if value is None:
            verdict.failed += 1
            continue
        where = "%s d=%d sep=%d %s" % (system, d, sep, treatment)
        tol = NEGATIVITY_ATOL + NEGATIVITY_RTOL * abs(value)
        if again is None or not negativity_close(again, value):
            verdict.problems.append("%s: %r on repeat, %r timed" % (where, again, value))
            continue
        signs = np.ones(4 * d)
        signs[2 * d + 1::2] = -1.0
        nu_pt = symplectic_eigenvalues(cm * np.outer(signs, signs))
        e_n = float(sum(-math.log2(nu) for nu in nu_pt if nu < 1.0 - NU_UNIT_WINDOW))
        if abs(e_n - value) > tol:
            verdict.problems.append("%s: %.12g, partial-transpose spectrum gives %.12g"
                                    % (where, value, e_n))
        if treatment == "trace":
            continue
        # eigenvalues of a matrix with entries up to |sigma|_max carry about
        # 64 eps |sigma|_max absolute error, and sqrt(nu^2 - 1) turns that
        # into sqrt(2 * error) for modes near the vacuum
        nu_err = 64 * EPS * max(1.0, float(np.abs(cm).max()))
        impurity = float(np.abs(symplectic_eigenvalues(cm) - 1.0).max())
        if impurity > nu_err:
            verdict.problems.append("%s: measured state not pure (max |nu - 1| = %.3e)"
                                    % (where, impurity))
        nu_a = symplectic_eigenvalues(cm[:2 * d, :2 * d])
        e_pure = float(sum(math.log2(nu + math.sqrt(max(nu * nu - 1.0, 0.0))) for nu in nu_a))
        pure_tol = tol + d * math.sqrt(2.0 * nu_err) / math.log(2.0)
        if abs(e_pure - value) > pure_tol:
            verdict.problems.append("%s: %.12g, pure-state formula gives %.12g"
                                    % (where, value, e_pure))
    return verdict


def two_ion_cm():
    """Closed-form local-mode CM of the two-ion chain (phi1, pi1, phi2, pi2):
    centre-of-mass mode at frequency 1, stretch mode at sqrt(3)."""
    r = math.sqrt(3.0)
    phi = 0.5 * np.array([[1 + 1 / r, 1 - 1 / r], [1 - 1 / r, 1 + 1 / r]])
    pi = 0.5 * np.array([[1 + r, 1 - r], [1 - r, 1 + r]])
    cm = np.zeros((4, 4))
    cm[0::2, 0::2] = phi
    cm[1::2, 1::2] = pi
    return cm


def negativity_close(a, b):
    return abs(a - b) <= NEGATIVITY_ATOL + NEGATIVITY_RTOL * max(abs(a), abs(b))


def check_repeat(expected, got, close):
    """A later round of a run against the fully checked first round: the
    same values, within the workload's tolerance."""
    verdict = Verdict(attempted=len(expected))
    if len(got) != len(expected):
        verdict.problems.append("expected %d values, got %d" % (len(expected), len(got)))
        return verdict
    for k, (a, b) in enumerate(zip(expected, got)):
        if b is None:
            verdict.failed += 1
        elif a is None or not close(a, b):
            verdict.problems.append("value %d: %r, first round gave %r" % (k, b, a))
    return verdict


def deficit_close(a, b):
    scale = max(abs(a), abs(b))
    atol = DEFICIT_ATOL if scale >= DIRECT_ROUTE_FLOOR else 0.0
    return abs(a - b) <= atol + DEFICIT_RTOL * scale


def _one_mode_operation(z, theta):
    """Squeeze diag(z, 1/z) after rotation [[c, s], [-s, c]] on both modes."""
    c, s = math.cos(theta), math.sin(theta)
    one = np.diag([z, 1.0 / z]) @ np.array([[c, s], [-s, c]])
    return np.kron(np.eye(2), one)


def check_fock(seed, outputs, evidence):
    """Closed form at the balancing points, invariance under one more equal
    rotation, 0 <= P_out <= 1, and P_out non-increasing in the dimension."""
    verdict = Verdict()
    points, _ = fock_grid(seed)
    deficits = outputs["deficits"]
    rotated = evidence["rotated_deficits"]
    if len(deficits) != len(points) or len(rotated) != len(points):
        verdict.problems.append("expected %d grid points, got %d (and %d rotated)"
                                % (len(points), len(deficits), len(rotated)))
        return verdict
    for k, ((z, theta), row, row_rotated) in enumerate(zip(points, deficits, rotated)):
        where = "z=%.6g theta=%.6g" % (z, theta)
        verdict.attempted += len(QUDIT_DIMS)
        lam2 = None
        if k < len(BALANCING_POINTS):
            s = _one_mode_operation(z, theta)
            nu = math.sqrt(np.linalg.det((s @ two_ion_cm() @ s.T)[:2, :2]))
            lam2 = (nu - 1.0) / (nu + 1.0)
        for dim, p, q in zip(QUDIT_DIMS, row, row_rotated):
            if not 0.0 <= p <= 1.0:
                verdict.problems.append("%s D=%d: P_out %.6g outside [0, 1]" % (where, dim, p))
            if not deficit_close(p, q):
                verdict.problems.append("%s D=%d: %.12g, %.12g after a further rotation"
                                        % (where, dim, p, q))
            if lam2 is not None and not deficit_close(p, lam2 ** dim):
                verdict.problems.append("%s D=%d: %.12g, closed form lambda^2D = %.12g"
                                        % (where, dim, p, lam2 ** dim))
        for dim, p, p_next in zip(QUDIT_DIMS, row, row[1:]):
            if p_next > p:
                verdict.problems.append("%s: P_out rises from D=%d to D=%d" % (where, dim, dim + 1))
    return verdict
