"""Correctness checks of the workloads' outputs.

Each check returns ``None`` when the output is correct and a one-line
reason otherwise. Certificates are re-proved from their stored data
(box, ``P``, ``q_matrix``, ``zeta``) rather than trusted, and every one also
passes a small grid sweep of its box.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import multinoise as mn

#: Reference figures of ``multinoise reproduce-pendulum`` as printed in the
#: README (six significant digits). The designs sit on a frontier pinned by
#: the stopping rule, so these figures move in the fourth digit between
#: BLAS builds; REL_TOL allows that and nothing coarser.
PENDULUM_TABLE = {
    "open_loop": {"K": [[0.0, 0.0]], "rho_true_closed_loop": 1.31623,
                  "rho_closed_loop": 1.22361, "eta_1": None,
                  "worst_box_rho": None},
    "certainty_equivalent": {"K": [[-9.13947, -4.153]],
                             "rho_true_closed_loop": 1.01978,
                             "rho_closed_loop": 0.833873, "eta_1": None,
                             "worst_box_rho": None},
    "algorithm_1": {"K": [[-103.877, -19.8517]],
                    "rho_true_closed_loop": 0.222948,
                    "rho_closed_loop": 0.0602237, "eta_1": 6.99749,
                    "worst_box_rho": 0.841836},
    "algorithm_2": {"K": [[-104.542, -19.9504]],
                    "rho_true_closed_loop": 0.225233,
                    "rho_closed_loop": 0.0203356, "eta_1": 3.97148,
                    "worst_box_rho": 0.632369},
}
REL_TOL = 5e-3

#: Upper bound on the points of the small grid every certificate must pass.
SMALL_GRID_POINTS = 400

#: Monte Carlo agreement: independent replicas estimate the standard error,
#: and the deviation must stay within this many standard errors.
MC_REPLICAS = 20
MC_SIGMAS = 5.0


def pendulum_table(report: dict) -> str | None:
    """Compare the ``reproduce-pendulum`` JSON report with the README."""
    for column, rows in PENDULUM_TABLE.items():
        for key, want in rows.items():
            got = report[column][key]
            if want is None or got is None:
                if want is not got:
                    return f"{column}.{key}: {got} != {want}"
                continue
            want, got = np.asarray(want, float), np.asarray(got, float)
            if not np.allclose(got, want, rtol=REL_TOL, atol=0.0):
                return f"{column}.{key}: {got.tolist()} != {want.tolist()}"
    return None


def small_grid(A_cl, dirs, box) -> str | None:
    """Sweep a grid of at most SMALL_GRID_POINTS points over the box."""
    count = max(len(dirs), 1)
    samples = max(2, int(SMALL_GRID_POINTS ** (1.0 / count)))
    report = mn.grid_verify(A_cl, dirs, box, samples)
    if not report.all_stable:
        return (f"grid point {report.worst_mu.tolist()} has spectral radius "
                f"{report.worst_rho:.6g} >= 1")
    return None


def shared_form(A_cl, dirs, cert) -> str | None:
    """Re-prove a shared-quadratic-form certificate: the margin inequality
    holds at the stored box with the stored P and constant term."""
    box = cert.box
    if not mn.nlmi_feasible(A_cl, dirs, cert.q_matrix, cert.P, box.bounds,
                            box.bidirectional):
        return f"{cert.method.value}: inequality fails at the stored box"
    return small_grid(A_cl, dirs, box)


def single_direction(A_cl, D, alpha, q_eff, P, zeta, eta) -> str | None:
    """Re-prove a single-direction margin: the single-direction inequality
    holds at the auxiliary scalar zeta, and eta is its envelope."""
    D = np.asarray(D, dtype=float)
    coef = (math.sqrt(zeta * zeta + alpha) + zeta) / alpha
    cross = mn.psd_split(A_cl.T @ P @ D + D.T @ P @ A_cl).plus
    if not mn.is_psd(coef * q_eff + 2.0 * zeta * (D.T @ P @ D) - cross):
        return f"single-direction inequality fails at zeta={zeta:.6g}"
    envelope = alpha / (math.sqrt(zeta * zeta + alpha) + zeta)
    if not math.isclose(eta, envelope, rel_tol=1e-12):
        return f"margin {eta:.6g} is not the envelope {envelope:.6g}"
    box = mn.PerturbationBox(eta=[eta], psi=[], bidirectional=False)
    return small_grid(A_cl, [(D, alpha)], box)


def conservative(A_cl, dirs, cert) -> str | None:
    """Re-prove a conservative certificate: through the joint inequality for
    several directions, through the single-direction inequality for one."""
    if len(dirs) > 1:
        return shared_form(A_cl, dirs, cert)
    (D, alpha), = dirs
    return single_direction(A_cl, D, alpha, cert.q_matrix, cert.P,
                            float(cert.zeta[0]), float(cert.box.bounds[0]))


def aux_system(A_cl, dirs, box) -> str | None:
    """Re-prove a two-sided auxiliary-system box: the scaled system with the
    matched variances is mean-square stable at the stored box."""
    bounds = box.bounds
    s = float(bounds.sum())
    aux_dirs = [(D, float(b * (1.0 + s))) for (D, _), b in zip(dirs, bounds)]
    mss, radius = mn.is_mean_square_stable(math.sqrt(1.0 + s) * A_cl,
                                           aux_dirs)
    if not mss:
        return f"auxiliary system not mean-square stable (radius {radius:.9g})"
    return small_grid(A_cl, dirs, box)


def certificate(A_cl, dirs, cert) -> str | None:
    """Re-prove any margin certificate by its method."""
    method = cert.method.value
    if method in ("shared-uni", "shared-bi"):
        return shared_form(A_cl, dirs, cert)
    if method in ("cons-lin", "cons-simple"):
        return conservative(A_cl, dirs, cert)
    if method == "aux":
        return aux_system(A_cl, dirs, cert.box)
    return f"no re-proof for method {method}"


def moments(A_cl, dirs, hist, cfg, x0_cov) -> str | None:
    """Check a Monte Carlo second-moment history.

    The exact covariances must match an independent propagation through
    the lifted moment operator. The Monte Carlo estimate of the summed trace
    J = sum_t tr E[x_t x_t^T] must lie within MC_SIGMAS standard errors of
    the exact value, the standard error being estimated from MC_REPLICAS
    independent replicas that share the run's trial budget.
    """
    n = A_cl.shape[0]
    M = mn.moment_operator(A_cl, dirs).T
    sigma = np.asarray(x0_cov, dtype=float).reshape(-1, order="F")
    for t, S in enumerate(hist.exact):
        want = sigma.reshape((n, n), order="F")
        if not np.allclose(S, want, rtol=1e-9, atol=1e-12 * np.abs(want).max()):
            return f"exact covariance differs from the lifted recursion at t={t}"
        sigma = M @ sigma
    exact = float(np.trace(hist.exact, axis1=1, axis2=2).sum())
    est = float(np.trace(hist.empirical, axis1=1, axis2=2).sum())
    per_replica = cfg.trials // MC_REPLICAS
    reps = []
    for r in range(MC_REPLICAS):
        rcfg = mn.MonteCarloConfig(horizon=cfg.horizon, trials=per_replica,
                                   seed=cfg.seed + 1 + r,
                                   noise_law=cfg.noise_law)
        h = mn.simulate_second_moment(A_cl, dirs, rcfg, x0_cov)
        reps.append(float(np.trace(h.empirical, axis1=1, axis2=2).sum()))
    se = statistics.stdev(reps) * math.sqrt(per_replica / cfg.trials)
    if abs(est - exact) > MC_SIGMAS * se:
        return (f"{cfg.noise_law}: summed trace {est:.6g} vs exact "
                f"{exact:.6g}, {abs(est - exact) / se:.2f} standard errors")
    return None
