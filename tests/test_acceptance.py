"""Acceptance gate: every shipped claim, one printed verdict per criterion.

Run with plain pytest; the verdict lines bypass capture so they always show.
"""

import math
import time

import numpy as np

from cli_runner import CliRunner
from jacobi_oracle import jacobi_eigvalsh
from wqent.cli import main as cli_main
from wqent.channel import basis_projector, channel_then_check
from wqent.entropy import qutrit_mutual_information_closed_form, weighted_entropy
from wqent.inequality import (
    _diagonal_report_fields,
    audit_random,
    check_subadditivity,
    qutrit_condition_gap,
    qutrit_weight_condition,
)
from wqent.states import (
    BipartiteState,
    DensityMatrix,
    QutritDiagonal,
    WeightMatrix,
    embed_ququart,
    embed_qutrit,
    haar_unitary,
    random_density,
    random_weight,
)
from wqent.sweeps import grid_to_csv, sweep_probabilities, sweep_weights

EXAMPLE_WEIGHTS = (0.75, 0.25, 1 / 3, 2 / 3)


def diag_weight(x1, x2):
    return WeightMatrix(np.diag([x1, x2]).astype(complex))


def verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_01_worked_example_closed_form(capsys):
    runner = CliRunner()
    res = runner.invoke(
        cli_main, ["qutrit", "0.1", "0.1", "0.75", "0.25", repr(1 / 3), repr(2 / 3)]
    )
    cli_ok = res.exit_code == 0
    printed = {}
    if cli_ok:
        printed = dict(
            ln.split(" = ") for ln in res.output.strip().splitlines() if " = " in ln
        )
    value = float(printed.get("mutual_information", "nan"))
    cond = qutrit_weight_condition(*EXAMPLE_WEIGHTS)

    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        qutrit_mutual_information_closed_form(0.1, 0.1, *EXAMPLE_WEIGHTS)
        qutrit_weight_condition(*EXAMPLE_WEIGHTS)
        best = min(best, time.perf_counter() - t0)

    ok = (
        cli_ok
        and abs(value - 0.0728) <= 5e-4
        and cond.value == 1 / 6
        and cond.holds
        and best < 1e-3
    )
    verdict(
        capsys, 1, "worked example via CLI",
        ok, f"I={value:.10g}, condition={cond.value:.10g}, call={best * 1e6:.0f}us",
    )


def test_02_closed_form_matches_matrix_path(capsys):
    rng = np.random.default_rng(20260817)
    probs = rng.dirichlet((1.0, 1.0, 1.0), size=1000)
    weights = rng.uniform(0.05, 2.0, size=(1000, 4))
    t0 = time.perf_counter()
    worst = 0.0
    for (p1, p2, p3), (f1, f2, c1, c2) in zip(probs, weights):
        closed = qutrit_mutual_information_closed_form(p1, p2, f1, f2, c1, c2)
        state = embed_ququart(p1, p2, p3, 0.0)
        general = check_subadditivity(diag_weight(f1, f2), diag_weight(c1, c2), state).gap
        worst = max(worst, abs(closed - general))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 1.0
    verdict(capsys, 2, "closed form vs matrix path x1000", ok, f"worst={worst:.3e}, dt={dt:.2f}s")


def test_03_condition_gap_identity(capsys):
    rng = np.random.default_rng(31415)
    probs = rng.dirichlet((1.0, 1.0, 1.0), size=10_000)
    weights = rng.uniform(0.05, 2.0, size=(10_000, 4))
    t0 = time.perf_counter()
    fields = _diagonal_report_fields(probs, weights, 2, 2)
    ident = qutrit_condition_gap(
        probs[:, 0], probs[:, 1], weights[:, 0], weights[:, 1], weights[:, 2], weights[:, 3]
    )
    worst = float(np.abs(fields["condition_gap"] - ident).max())
    # spot-check the same identity through the dense matrix path
    worst_matrix = 0.0
    for i in range(300):
        p1, p2, p3 = probs[i]
        f1, f2, c1, c2 = weights[i]
        rep = check_subadditivity(
            diag_weight(f1, f2), diag_weight(c1, c2), embed_ququart(p1, p2, p3, 0.0)
        )
        worst_matrix = max(worst_matrix, abs(rep.condition_gap - ident[i]))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_matrix <= 1e-12 and dt < 1.0
    verdict(
        capsys, 3, "condition gap identity x10000",
        ok, f"worst={worst:.3e}, matrix_subset={worst_matrix:.3e}, dt={dt:.2f}s",
    )


def test_04_product_states_saturate(capsys):
    rng = np.random.default_rng(777)
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst = 0.0
    for k in range(500):
        da, db = dims[k % len(dims)]
        ra = random_density(da, rng)
        rb = random_density(db, rng)
        state = BipartiteState(DensityMatrix(np.kron(ra.matrix, rb.matrix)), da, db)
        rep = check_subadditivity(random_weight(da, rng), random_weight(db, rng), state)
        worst = max(worst, abs(rep.gap))
    ok = worst <= 1e-9
    verdict(capsys, 4, "product states saturate x500", ok, f"worst |gap|={worst:.3e}")


def test_05_identity_weight_equals_spectrum_entropy(capsys):
    rng = np.random.default_rng(808)
    worst = 0.0
    for k in range(200):
        dim = 2 + k % 5
        rho = random_density(dim, rng)
        s = weighted_entropy(WeightMatrix(np.eye(dim)), rho)
        lams = jacobi_eigvalsh(rho.matrix)
        oracle = float(-np.sum(lams[lams > 1e-12] * np.log(lams[lams > 1e-12])))
        worst = max(worst, abs(s - oracle))
    ok = worst <= 1e-10
    verdict(capsys, 5, "identity weight vs spectrum oracle x200", ok, f"worst={worst:.3e}")


def test_06_audit_condition_satisfying_clean(capsys):
    t0 = time.perf_counter()
    summary = audit_random(100_000, 2, 2, 20260817, "diagonal-condition-satisfying", tolerance=1e-9)
    dt = time.perf_counter() - t0
    ok = len(summary.violations) == 0 and summary.min_gap >= -1e-9 and dt < 10.0
    verdict(
        capsys, 6, "audit 1e5 condition-satisfying",
        ok, f"violations={len(summary.violations)}, min_gap={summary.min_gap:.3e}, dt={dt:.2f}s",
    )


def test_07_projective_channel_worked_example(capsys):
    state = embed_qutrit(QutritDiagonal(0.1, 0.1, 0.8))
    wa = diag_weight(0.75, 0.25)
    wb = diag_weight(1 / 3, 2 / 3)
    rho_out, rep = channel_then_check(basis_projector(4, (0, 2)), wa, wb, state)
    expected = np.array([1 / 9, 0.0, 8 / 9, 0.0])
    err = float(np.abs(np.diag(rho_out.matrix).real - expected).max())
    ok = err <= 1e-15 and abs(rep.gap) <= 1e-10
    verdict(capsys, 7, "projective channel worked example", ok, f"state_err={err:.3e}, gap={rep.gap:.3e}")


def test_08_sweep_grids_nonnegative_and_reproducible(capsys):
    t0 = time.perf_counter()
    prob_a = grid_to_csv(sweep_probabilities(97), ["run"])
    dt_prob = time.perf_counter() - t0
    prob_b = grid_to_csv(sweep_probabilities(97), ["run"])
    min_prob = float(np.nanmin(sweep_probabilities(97).values))

    results = {}
    for region in ("a", "b"):
        t0 = time.perf_counter()
        grid = sweep_weights(region, 97, p1=0.25, p2=0.125)
        csv_a = grid_to_csv(grid, ["run"])
        dt = time.perf_counter() - t0
        csv_b = grid_to_csv(sweep_weights(region, 97, p1=0.25, p2=0.125), ["run"])
        results[region] = (float(grid.values.min()), csv_a == csv_b, dt)

    ok = (
        min_prob >= -1e-9
        and prob_a == prob_b
        and dt_prob < 5.0
        and all(m >= -1e-9 and same and dt < 5.0 for m, same, dt in results.values())
    )
    verdict(
        capsys, 8, "figure sweeps",
        ok,
        f"min_prob={min_prob:.3e}, min_a={results['a'][0]:.3e}, "
        f"min_b={results['b'][0]:.3e}, reproducible={prob_a == prob_b}, dt={dt_prob:.2f}s",
    )


def test_09_unitary_covariance(capsys):
    rng = np.random.default_rng(606)
    worst = 0.0
    for k in range(200):
        dim = 2 + k % 3
        rho = random_density(dim, rng)
        phi = random_weight(dim, rng)
        u = haar_unitary(dim, rng)
        s = weighted_entropy(phi, rho)
        s_rot = weighted_entropy(
            WeightMatrix(u @ phi.matrix @ u.conj().T),
            DensityMatrix(u @ rho.matrix @ u.conj().T),
        )
        worst = max(worst, abs(s_rot - s))
    ok = worst <= 1e-10
    verdict(capsys, 9, "unitary covariance x200", ok, f"worst={worst:.3e}")
