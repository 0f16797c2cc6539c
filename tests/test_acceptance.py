"""End-to-end acceptance gate.

Each test covers one numbered criterion and emits a single
``ACCEPTANCE <n>: PASS|FAIL`` line on the real stdout (bypassing capture),
so the gate status is visible in any pytest run.
"""

import itertools
import math
import sys

import pytest

from cylvar import hamiltonian, optimizer
from cylvar.appendix_rep import TABLE_ROWS, apply_h, degeneracy_count, \
    map_labels, verify_table
from cylvar.hydrogen2d import RadialGrid, _lowest_eigenvalue, ground_energy_2d
from cylvar.quadrature import QuadratureSpec, cylinder_grid
from cylvar.records import write_csv
from cylvar.specfun import J01, kummer_m, landau_cylinder_energy
from cylvar.trialfn import SystemConfig, TrialParams, evaluate

import numpy as np
from scipy.special import k0, k1

SPEC = QuadratureSpec(96)

# Target table at B = 0: (rho0, E, alpha, nu)
B0_TABLE = [
    (0.8, 2.658, 1.396, 2.274),
    (1.0, 1.295, 1.307, 2.469),
    (1.2, 0.599, 1.243, 2.666),
    (1.4, 0.207, 1.195, 2.865),
    (1.6, -0.029, 1.158, 3.069),
    (1.8, -0.179, 1.129, 3.278),
    (2.0, -0.277, 1.106, 3.495),
    (2.5, -0.405, 1.065, 4.070),
    (3.0, -0.458, 1.040, 4.698),
    (3.5, -0.481, 1.024, 5.380),
    (4.0, -0.492, 1.014, 6.120),
    (4.5, -0.496, 1.008, 6.916),
    (5.0, -0.498, 1.004, 7.764),
]

# Free-parameter optimum at B = 0: rho0 -> (E, alpha, nu)
FREE_OPTIMA = {
    2.0: (-0.2767, 1.1058, 3.4951),
    4.0: (-0.4917, 1.0142, 6.1199),
}


_emit = print


@pytest.fixture(autouse=True)
def _gate_output(capsys):
    # route the one-line gate status past pytest's capture
    global _emit

    def emit(line):
        with capsys.disabled():
            print(line)
            sys.stdout.flush()

    _emit = emit
    yield
    _emit = print


def _gate(num: int, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    extra = f" [{'; '.join(failures)}]" if failures else (
        f" ({detail})" if detail else "")
    _emit(f"ACCEPTANCE {num}: {status}{extra}")
    assert not failures, f"criterion {num}: {failures}"


def _check(failures, ok, msg):
    if not ok:
        failures.append(msg)


def _optimum(B, rho0, fixed=None, coulomb_on=True):
    cfg = SystemConfig(B=B, rho0=rho0, coulomb_on=coulomb_on)
    return optimizer.minimize(optimizer.default_request(cfg, fixed=fixed), SPEC)


@pytest.fixture(scope="module")
def b0_records():
    grid = [SystemConfig(B=0.0, rho0=r) for r, *_ in B0_TABLE]
    return optimizer.scan(grid, SPEC)


@pytest.fixture(scope="module")
def free_optima():
    return {rho0: _optimum(0.0, rho0) for rho0 in (2.0, 4.0)}


def test_criterion_01_cutoff_exponent_table(free_optima):
    failures = []
    for nu, e_ref, a_ref in ((1.0, -0.1745, 0.7497), (2.0, -0.2613, 0.9387),
                             (3.0, -0.2757, 1.0612)):
        res = _optimum(0.0, 2.0, fixed={"nu": nu})
        _check(failures, abs(res.energy.total - e_ref) <= 1e-3,
               f"rho0=2 nu={nu}: E={res.energy.total:.4f} want {e_ref}")
        _check(failures, abs(res.params.alpha - a_ref) <= 0.01,
               f"rho0=2 nu={nu}: alpha={res.params.alpha:.4f} want {a_ref}")
    for rho0, (e_ref, a_ref, nu_ref) in FREE_OPTIMA.items():
        res = free_optima[rho0]
        _check(failures, abs(res.energy.total - e_ref) <= 1e-3,
               f"rho0={rho0} free: E={res.energy.total:.4f} want {e_ref}")
        _check(failures, abs(res.params.alpha - a_ref) <= 0.01,
               f"rho0={rho0} free: alpha={res.params.alpha:.4f} want {a_ref}")
        _check(failures, abs(res.params.nu - nu_ref) <= 0.05,
               f"rho0={rho0} free: nu={res.params.nu:.4f} want {nu_ref}")
    _gate(1, failures, "fixed and free cut-off exponents at rho0 = 2, 4")


def test_criterion_02_upper_bound_vs_references(free_optima):
    failures = []
    for rho0, ref, gap_tol in ((2.0, -0.279120, 0.009), (4.0, -0.491863, 5e-4)):
        e = free_optima[rho0].energy.total
        gap = (e - ref) / abs(ref)
        _check(failures, e >= ref,
               f"rho0={rho0}: E={e:.6f} dips below reference {ref}")
        _check(failures, gap <= gap_tol,
               f"rho0={rho0}: relative gap {gap:.2e} exceeds {gap_tol}")
    _gate(2, failures, "variational bound and gap vs reference energies")


def test_criterion_03_zero_field_grid(b0_records):
    failures = []
    for rec, (rho0, e_ref, a_ref, nu_ref) in zip(b0_records, B0_TABLE):
        _check(failures, abs(rec.E - e_ref) <= 2e-3,
               f"rho0={rho0}: E={rec.E:.4f} want {e_ref}")
        _check(failures, abs(rec.alpha - a_ref) <= 0.01,
               f"rho0={rho0}: alpha={rec.alpha:.4f} want {a_ref}")
        _check(failures, abs(rec.nu - nu_ref) <= 0.05,
               f"rho0={rho0}: nu={rec.nu:.4f} want {nu_ref}")
    _gate(3, failures, "13-row B=0 grid of (E, alpha, nu)")


def test_criterion_04_field_spot_checks():
    failures = []
    for B, rho0, e_ref in ((0.4, 0.8, 2.659), (0.8, 2.0, -0.223),
                           (1.0, 5.0, -0.330)):
        res = _optimum(B, rho0)
        _check(failures, abs(res.energy.total - e_ref) <= 2e-3,
               f"(B={B}, rho0={rho0}): E={res.energy.total:.4f} want {e_ref}")
        if (B, rho0) == (1.0, 5.0):
            _check(failures, abs(res.params.alpha - 1.043) <= 0.01,
                   f"(B=1, rho0=5): alpha={res.params.alpha:.4f} want 1.043")
    _gate(4, failures, "finite-field spot energies")


def test_criterion_05_reference_energy_consistency():
    failures = []
    for B in (0.4, 1.0):
        for rho0 in (2.0, 3.0, 5.0):
            res = _optimum(B, rho0, coulomb_on=False)
            e0 = landau_cylinder_energy(B, rho0)
            diff = abs(res.energy.total - e0)
            _check(failures, diff <= 5e-4,
                   f"(B={B}, rho0={rho0}): |Evar - E0| = {diff:.1e}")
    drum = J01**2 / 8.0
    diff = abs(landau_cylinder_energy(1e-5, 2.0) - drum)
    _check(failures, diff <= 1e-6, f"B->0 limit misses drum mode by {diff:.1e}")
    _gate(5, failures, "Coulomb-off optimum matches the Kummer-root E0")


def test_criterion_06_mean_radius():
    failures = []
    cfg = SystemConfig(B=0.0, rho0=math.inf)
    obs = hamiltonian.observables(TrialParams(alpha=1.0, gamma=0.0), cfg, SPEC)
    _check(failures, abs(obs.mean_rho - 3.0 * math.pi / 8.0) <= 1e-3,
           f"free atom: <rho>={obs.mean_rho:.5f} want 3pi/8")
    for B, rho0, ref in ((1.0, 2.0, 0.712), (0.6, 5.0, 1.004)):
        res = _optimum(B, rho0)
        obs = hamiltonian.observables(
            res.params, SystemConfig(B=B, rho0=rho0), SPEC)
        _check(failures, abs(obs.mean_rho - ref) <= 3e-3,
               f"(B={B}, rho0={rho0}): <rho>={obs.mean_rho:.4f} want {ref}")
    _gate(6, failures, "transverse size <rho> at three settings")


def test_criterion_07_shannon_entropy(shannon_entropy_dblquad):
    failures = []
    cfg = SystemConfig(B=0.0, rho0=math.inf)
    obs = hamiltonian.observables(TrialParams(alpha=1.0, gamma=0.0), cfg, SPEC)
    _check(failures, abs(obs.shannon_r - (3.0 + math.log(math.pi))) <= 1e-3,
           f"free atom: S={obs.shannon_r:.5f} want 3+ln(pi)")
    # The B=0 target is the entropy of the trial density at the optimum that
    # criterion 1 tabulates, integrated by dblquad outside the package.
    # Rounding (alpha, nu) to 4 decimals moves S by under 1e-4, well inside
    # the 5e-3 tolerance shared with the (B=1, rho0=5) entry.
    _, alpha2, nu2 = FREE_OPTIMA[2.0]
    s_table = shannon_entropy_dblquad(alpha2, nu2, 2.0)
    for B, rho0, ref in ((0.0, 2.0, s_table), (1.0, 5.0, 3.472)):
        res = _optimum(B, rho0)
        obs = hamiltonian.observables(
            res.params, SystemConfig(B=B, rho0=rho0), SPEC)
        _check(failures, abs(obs.shannon_r - ref) <= 5e-3,
               f"(B={B}, rho0={rho0}): S={obs.shannon_r:.4f} want {ref}")
    entropies = []
    for B in (0.0, 0.5, 1.0):
        res = _optimum(B, 5.0)
        obs = hamiltonian.observables(
            res.params, SystemConfig(B=B, rho0=5.0), SPEC)
        entropies.append(obs.shannon_r)
    _check(failures, entropies[0] > entropies[1] > entropies[2],
           f"entropy not decreasing in B at rho0=5: {entropies}")
    _gate(7, failures, "position-space Shannon entropy")


def test_criterion_08_dimensional_comparison(b0_records):
    failures = []
    grid = RadialGrid(800)
    e3 = next(r.E for r in b0_records if r.rho0 == 5.0)
    ratio = e3 / ground_energy_2d(0.0, 5.0, grid)
    _check(failures, 0.244 <= ratio <= 0.255,
           f"ratio(B=0, rho0=5) = {ratio:.4f} outside [0.244, 0.255]")
    lo = _optimum(0.0, 1.50).energy.total
    hi = _optimum(0.0, 1.65).energy.total
    _check(failures, lo > 0.0 > hi,
           f"no 3D sign change in [1.50, 1.65]: E(1.50)={lo:.4f}, "
           f"E(1.65)={hi:.4f}")
    drum = J01**2 / 2.0
    errs = [abs(_lowest_eigenvalue(0.0, 1.0, RadialGrid(n), False) - drum)
            for n in (100, 200, 400)]
    _check(failures,
           3.5 <= errs[0] / errs[1] <= 4.5 and 3.5 <= errs[1] / errs[2] <= 4.5,
           f"2D solver error ratios {errs[0]/errs[1]:.2f}, "
           f"{errs[1]/errs[2]:.2f} not ~4")
    _gate(8, failures, "3D/2D energy ratio, sign change, grid order")


def _tail_fit_window():
    """Ranges of (A, exponent) fitted to B0_TABLE's rows with rho0 >= 2.5
    when each 3-decimal E moves within its rounding error of +/-5e-4.

    The least-squares slope and intercept are linear in log(E + 1/2), which
    is monotone in each E, so the extremes lie at the corners of that box.
    """
    rows = [(rho0, e) for rho0, e, *_ in B0_TABLE if rho0 >= 2.5]
    fits = [hamiltonian.fit_large_rho0_tail(
                [(rho0, e + d) for (rho0, e), d in zip(rows, shifts)])
            for shifts in itertools.product((-5e-4, 5e-4), repeat=len(rows))]
    amps, expos = zip(*fits)
    return (min(amps), max(amps)), (min(expos), max(expos))


def test_criterion_09_large_radius_tail(b0_records):
    # The tail of the scanned energies must be the tail of the tabulated
    # ones, to within what the table's rounding leaves undetermined.
    (a_lo, a_hi), (x_lo, x_hi) = _tail_fit_window()
    pairs = [(r.rho0, r.E) for r in b0_records if r.rho0 >= 2.5]
    amp, expo = hamiltonian.fit_large_rho0_tail(pairs)
    failures = []
    _check(failures, a_lo <= amp <= a_hi,
           f"amplitude A = {amp:.3f} outside [{a_lo:.3f}, {a_hi:.3f}]")
    _check(failures, x_lo <= expo <= x_hi,
           f"exponent = {expo:.3f} outside [{x_lo:.3f}, {x_hi:.3f}]")
    # The window must still reject the -1/2 + 0.4/rho0^2 model.
    _check(failures, not (a_lo <= 0.4 <= a_hi or x_lo <= 2.0 <= x_hi),
           "window admits A = 0.4 or exponent = 2")
    _gate(9, failures, f"tail model A={amp:.3f}, exponent={expo:.3f}")


def test_criterion_10_algebraic_table():
    failures = []
    report = verify_table()
    _check(failures, len(report.rows) == 14 and report.ok,
           f"{len(report.failures)} of {len(report.rows)} rows "
           "exceed the residual tolerance")
    degs = [degeneracy_count(n) for n in range(1, 7)]
    _check(failures, degs == [n * n for n in range(1, 7)],
           f"degeneracies {degs} != n^2")
    n, ell, m, chi = TABLE_ROWS[5]
    bad = np.array(chi)
    bad[1, 0] *= 1.001
    labels = map_labels(n, ell, m)
    res = apply_h(bad, labels.energy(), labels.p, abs(m))
    _check(failures, np.max(np.abs(res)) > 1e-10,
           "mutated coefficient went undetected")
    _gate(10, failures, "14 rows verified, degeneracy n^2, mutation caught")


def test_criterion_11_property_suite(tmp_path):
    failures = []
    # The radial rule on the 1s density, whose z integrals are 2 rho K1(2 rho)
    # and, over r, 2 K0(2 rho); beyond rho = 40 it is below exp(-80).
    rho, w = cylinder_grid(40.0, SPEC)
    norm = float(np.sum(w * 2.0 * rho * k1(2.0 * rho)))
    _check(failures, abs(norm - math.pi) <= 1e-10,
           f"1s norm {norm!r} != pi")
    inv_r = float(np.sum(w * 2.0 * k0(2.0 * rho))) / norm
    _check(failures, abs(inv_r - 1.0) <= 1e-10, f"<1/r> = {inv_r!r} != 1")

    rng = np.random.default_rng(3)
    params = TrialParams(alpha=1.05, beta=0.12, nu=2.8)
    cfg = SystemConfig(B=0.7, rho0=2.5)
    rho = rng.uniform(0.1, 2.4, 300)
    z = rng.uniform(-2.0, 2.0, 300)
    s = evaluate(params, cfg, rho, z)
    h = 1e-5
    fd = (evaluate(params, cfg, rho + h, z).psi
          - evaluate(params, cfg, rho - h, z).psi) / (2 * h)
    _check(failures, np.max(np.abs(s.dpsi_drho - fd)) <= 1e-7,
           "analytic d/drho drifts from finite differences")
    fd = (evaluate(params, cfg, rho, z + h).psi
          - evaluate(params, cfg, rho, z - h).psi) / (2 * h)
    _check(failures, np.max(np.abs(s.dpsi_dz - fd)) <= 1e-7,
           "analytic d/dz drifts from finite differences")

    br = hamiltonian.energy(params, cfg, SPEC)
    parts = br.kinetic + br.coulomb + br.zeeman_quadratic
    _check(failures, abs(parts - br.total) <= 1e-12,
           "energy breakdown does not sum to the total")

    small = QuadratureSpec(48, 48)
    grid = [SystemConfig(B=0.0, rho0=r) for r in (2.0, 3.0)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(optimizer.scan(grid, small), p1)
    write_csv(optimizer.scan(grid, small), p2)
    _check(failures, p1.read_bytes() == p2.read_bytes(),
           "scan reruns are not byte-identical")

    worst = 0.0
    for a in np.linspace(-8.0, 8.0, 17):
        for zz in np.linspace(0.0, 15.0, 7):
            m0 = kummer_m(a - 1.0, 1.0, zz)
            m1 = kummer_m(a, 1.0, zz)
            m2 = kummer_m(a + 1.0, 1.0, zz)
            resid = (1.0 - a) * m0 + (2.0 * a - 1.0 + zz) * m1 - a * m2
            worst = max(worst, abs(resid) / max(abs(m0), abs(m1), abs(m2), 1.0))
    _check(failures, worst <= 1e-10,
           f"Kummer recurrence residual {worst:.1e} exceeds 1e-10")
    _gate(11, failures, "oracles, derivatives, additivity, determinism")
