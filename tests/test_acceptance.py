"""Acceptance gate: ten numbered criteria, one test per criterion.

Each test prints "ACCEPTANCE <k>: PASS" (or FAIL) so the gate can be read
off the captured output, and carries its collected problems into the
assertion message.  All tolerances are pinned literals.  The final test
bounds the wall-clock budget of the whole module.
"""

import math
import time

import numpy as np
import pytest

import staticgeo.curvature_engine as ce
from staticgeo.catalog import build_type_ii, build_type_iii
from staticgeo.ode_solver import (
    OdeBackedProfile,
    WarpingODEParams,
    find_periodic,
    first_integral,
    integrate_warping,
    k0_threshold,
)
from staticgeo.profiles import PolynomialProfile
from staticgeo.static_verifier import (
    classify,
    harmonic_residual,
    identity_db,
    identity_dcw,
    static_residual,
    tier_for,
)
from staticgeo.warped_geometry import (
    FiberBlock,
    WarpedProductSpec,
    make_analytic_warping,
    perturbed_lapse,
)

from oracle_tools import (
    loop_cotton,
    loop_d_tensor,
    loop_div_ricci,
    loop_schouten,
    loop_weyl,
    reference_lapse,
    reference_spec,
)

_T0 = time.monotonic()

M1_NAMES = (
    "round_sphere", "flat", "example1", "example2",
    "example3", "example4", "example5",
)
TWO_BLOCK_NAMES = ("type_ii", "type_iii", "type_iv")

ORBIT_PERIOD_REGRESSION = 2.8383764512400584


def conclude(num: int, problems: list) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {num}: {status}")
    assert not problems, f"criterion {num}:\n" + "\n".join(problems)


def dense_ricci(spec, s):
    return ce.materialize_full(ce.ricci_spectrum(spec, s), spec)


def schouten_prime(spec, s):
    n = spec.n
    d = ce.eigenvalue_derivatives(spec, s, order=1)
    shift = d.scalar[1] / (2.0 * (n - 1.0))
    diag = ce.DiagonalTwoTensor(d.lambda_1[1] - shift, d.lambda_block[1] - shift)
    return ce.materialize_full(diag, spec)


def d_tensor_sup(entry) -> float:
    s = entry.spec.evaluation_grid()
    classes = ce.d_tensor_classes(entry.spec, entry.lapse, s)
    return float(np.max(np.abs(classes.value_block)))


def test_criterion_01_structural_constants():
    # Fiber eigenvalue R/(n-1); circle and interval eigenvalues R/(2(n-1)).
    problems = []
    for n in (5, 6, 8):
        for R in (8.0, -8.0, 12.5):
            e = build_type_ii(n=n, R=R) if R > 0 else build_type_iii(n=n, R=R)
            r = ce.ricci_spectrum(e.spec, e.spec.evaluation_grid())
            checks = (
                ("fiber", r.lambda_block[1], R / (n - 1.0)),
                ("circle", r.lambda_block[0], R / (2.0 * (n - 1.0))),
                ("interval", r.lambda_1, R / (2.0 * (n - 1.0))),
            )
            for what, got, want in checks:
                err = float(np.max(np.abs(got - want)))
                if err > 1e-10:
                    problems.append(
                        f"{e.name} n={n} R={R}: {what} eigenvalue off by {err:.3e}"
                    )
    conclude(1, problems)


def test_criterion_02_static_certification(catalog_entries):
    problems = []
    bump = PolynomialProfile((0.0, 0.0, 0.1))
    for e in catalog_entries:
        bound = tier_for(e.spec, e.lapse).residual
        sup = static_residual(e.spec, e.lapse).max_sup()
        if sup > bound:
            problems.append(f"{e.name}: static residual {sup:.3e} > {bound:.0e}")
        bumped = static_residual(e.spec, perturbed_lapse(e.lapse, bump))
        moved = bumped.channels["static_11"].sup
        if moved <= 0.05:
            problems.append(f"{e.name}: bumped static_11 only {moved:.3e}")
    conclude(2, problems)


def test_criterion_03_harmonic_certification(catalog_entries):
    problems = []
    for e in catalog_entries:
        report = harmonic_residual(e.spec)
        for name, ch in report.channels.items():
            if ch.sup > 1e-8:
                problems.append(f"{e.name}: {name} sup {ch.sup:.3e}")
    adhoc = WarpedProductSpec(
        blocks=(
            FiberBlock(
                2, make_analytic_warping("sin-scaled", (1.0, 1.0)), "space_form", 1.0
            ),
            FiberBlock(1, make_analytic_warping("linear", (2.0, 1.0))),
        ),
        domain=(0.3, 2.4),
    )
    spoiled = harmonic_residual(adhoc).max_sup()
    if spoiled < 1e-2:
        problems.append(f"ad hoc spec failed by only {spoiled:.3e}")
    conclude(3, problems)


def test_criterion_04_identity_suite(catalog_entries):
    problems = []
    for e in catalog_entries:
        dcw = identity_dcw(e.spec, e.lapse).max_sup()
        if dcw > 1e-8:
            problems.append(f"{e.name}: coupling identity residual {dcw:.3e}")
        db = identity_db(e.spec, e.lapse).max_sup()
        if db > 1e-6:
            problems.append(f"{e.name}: Bach identity residual {db:.3e}")
        if e.name in ("type_ii", "type_iii"):
            s = e.spec.evaluation_grid()
            w_sup = float(
                np.max(np.abs(ce.materialize_full(ce.weyl_classes(e.spec, s), e.spec)))
            )
            if w_sup < 1e-3:
                problems.append(f"{e.name}: conformal tensor nearly zero ({w_sup:.3e})")
            if d_tensor_sup(e) < 1e-3:
                problems.append(f"{e.name}: D tensor nearly zero")
    conclude(4, problems)


def test_criterion_05_dflat_dichotomy(entry_by_name):
    problems = []
    for name in M1_NAMES:
        e = entry_by_name[name]
        d_sup = d_tensor_sup(e)
        if d_sup > 1e-8:
            problems.append(f"{name}: D sup {d_sup:.3e} > 1e-8")
        s = e.spec.evaluation_grid()
        bach = ce.materialize_full(ce.bach_spectrum(e.spec, s), e.spec)
        b_sup = float(np.max(np.abs(bach)))
        if b_sup > 1e-7:
            problems.append(f"{name}: Bach sup {b_sup:.3e} > 1e-7")
    for name in ("type_ii", "type_iii"):
        d_sup = d_tensor_sup(entry_by_name[name])
        if d_sup < 1e-3:
            problems.append(f"{name}: D sup only {d_sup:.3e}, expected >= 1e-3")
    conclude(5, problems)


def test_criterion_06_two_block_properties(catalog_entries):
    # Catalog plus one hundred lapse rescalings: never more than two
    # distinct eigenvalues, and the two warp rates never overlap.
    problems = []
    rng = np.random.default_rng(2026)

    def check(entry, lapse, tag):
        got = classify(entry.spec, lapse)
        if got.distinct_count > 2:
            problems.append(f"{entry.name}{tag}: m = {got.distinct_count}")
        if got.label != entry.expected_label:
            problems.append(f"{entry.name}{tag}: label {got.label} ({got.detail})")
        if len(entry.spec.blocks) == 2 and got.xi_product_sup > 1e-8:
            problems.append(
                f"{entry.name}{tag}: xi product sup {got.xi_product_sup:.3e}"
            )

    for e in catalog_entries:
        check(e, e.lapse, "")
        for v in range(10):
            c = float(rng.uniform(0.5, 2.0)) * (1.0 if v % 2 else -1.0)
            check(e, e.lapse.rescaled(c), f" (rescale {c:+.3f})")
    conclude(6, problems)


def test_criterion_07_ode_conservation():
    problems = []
    cases = (
        WarpingODEParams.single_fiber(5, 20.0, 1.0, 1.303438047363767, 0.0, (0.0, 1.0)),
        WarpingODEParams.warped_factor(
            6, 5.0, 3, 1.0, 2.0 + math.sqrt(2.0), 0.0, (0.0, 1.2)
        ),
    )
    for params in cases:
        w = integrate_warping(params)
        lo, hi = params.domain
        s = np.linspace(lo, hi, 257)
        k = first_integral(params, w.value(s), w.derivative(s, 1)).value
        drift = float(np.max(np.abs(k - k[0]))) / (hi - lo)
        if drift > 1e-9:
            problems.append(f"power {params.power}: drift {drift:.3e} per unit length")

    def oscillator_error(step):
        params = WarpingODEParams(2, 4.0, 0.0, 1.25, -0.5, (0.0, 2.0), step)
        prof = OdeBackedProfile(params)
        s = np.linspace(0.0, 2.0, 41)
        exact = 1.25 * np.cos(2.0 * s) - 0.25 * np.sin(2.0 * s)
        return float(np.max(np.abs(prof.derivative(s, 0) - exact)))

    ratio = oscillator_error(0.02) / oscillator_error(0.01)
    if ratio < 8.0:
        problems.append(f"step halving only improved {ratio:.2f}x")
    conclude(7, problems)


def test_criterion_08_periodic_family():
    problems = []
    threshold = k0_threshold(5, 20.0, 1.0)
    if abs(threshold - 5.0 / 3.0) > 1e-15:
        problems.append(f"threshold {threshold!r} is not 5/3")
    params = WarpingODEParams.single_fiber(5, 20.0, 1.0, 1.0, 0.0, (0.0, 1.0))
    for k in (1.0, 5.0 / 3.0):
        if find_periodic(params, k) is not None:
            problems.append(f"unexpected orbit at k = {k}")
    sol = find_periodic(params, 2.0)
    if sol is None:
        problems.append("no orbit at k = 2")
    elif abs(sol.period - ORBIT_PERIOD_REGRESSION) > 1e-10:
        problems.append(f"period {sol.period!r} drifted from the regression value")
    conclude(8, problems)


def test_criterion_09_oracle_equivalence():
    problems = []
    s = np.array([0.37, 0.9, 1.41])
    f = reference_lapse()
    for n in (4, 5):
        spec = reference_spec(n)
        ric = dense_ricci(spec, s)
        scal = ce.scalar_profile(spec, s)
        riem = ce.materialize_full(ce.riemann_classes(spec, s), spec)
        A = ce.materialize_full(ce.schouten_spectrum(spec, s), spec)
        Ap = schouten_prime(spec, s)
        W = ce.materialize_full(ce.weyl_classes(spec, s), spec)
        C = ce.materialize_full(ce.cotton_classes(spec, s), spec)
        D = ce.materialize_full(ce.d_tensor_classes(spec, f, s), spec)
        G = ce.frame_connection(spec, s)
        fp = np.asarray(f.derivative(s, 1), dtype=float)
        for i in range(len(s)):
            pairs = [
                ("schouten", A[i], loop_schouten(ric[i], scal[i], n)),
                ("weyl", W[i], loop_weyl(riem[i], A[i], n)),
                ("cotton", C[i], loop_cotton(A[i], Ap[i], G[i])),
            ]
            grad_f = np.zeros(n)
            grad_f[0] = fp[i]
            pairs.append(("d-tensor", D[i], loop_d_tensor(ric[i], scal[i], grad_f, n)))
            for what, got, want in pairs:
                err = float(np.max(np.abs(got - want)))
                if err > 1e-10:
                    problems.append(f"n={n} s={s[i]}: {what} off by {err:.3e}")
        via_div = ce.materialize_full(ce.cotton_from_weyl_divergence(spec, s), spec)
        route_gap = float(np.max(np.abs(C - via_div)))
        if route_gap > 1e-8:
            problems.append(f"n={n}: divergence route off by {route_gap:.3e}")
    conclude(9, problems)


def test_criterion_10_bianchi_trace_invariants(catalog_entries):
    problems = []
    delta = 1e-5
    for e in catalog_entries:
        spec = e.spec
        grid = spec.evaluation_grid()
        riem = ce.materialize_full(ce.riemann_classes(spec, grid), spec)
        cyc = (
            riem
            + np.transpose(riem, (0, 1, 3, 4, 2))
            + np.transpose(riem, (0, 1, 4, 2, 3))
        )
        if np.any(cyc != 0.0):
            problems.append(f"{e.name}: first Bianchi not exact")
        W = ce.materialize_full(ce.weyl_classes(spec, grid), spec)
        traces = max(
            float(np.max(np.abs(np.einsum("...ikjk->...ij", W)))),
            float(np.max(np.abs(np.einsum("...kikj->...ij", W)))),
            float(np.max(np.abs(np.einsum("...kkij->...ij", W)))),
        )
        if traces > 1e-10:
            problems.append(f"{e.name}: conformal trace {traces:.3e}")
        # Contracted second Bianchi, div Ric = dR/2, with the radial
        # derivative taken by central differences.
        m = len(grid)
        points = grid[[2, m // 4, m // 2, 3 * m // 4, m - 3]]
        G = ce.frame_connection(spec, points)
        ric = dense_ricci(spec, points)
        up, dn = dense_ricci(spec, points + delta), dense_ricci(spec, points - delta)
        ric_prime = (up - dn) / (2.0 * delta)
        scal_prime = (
            ce.scalar_profile(spec, points + delta)
            - ce.scalar_profile(spec, points - delta)
        ) / (2.0 * delta)
        for i in range(len(points)):
            div = loop_div_ricci(ric[i], ric_prime[i], G[i])
            target = np.zeros(spec.n)
            target[0] = scal_prime[i] / 2.0
            gap = float(np.max(np.abs(div - target)))
            if gap > 1e-6:
                problems.append(
                    f"{e.name}: contracted Bianchi gap {gap:.3e} at s={points[i]:.3f}"
                )
    conclude(10, problems)


def test_total_runtime_under_budget():
    elapsed = time.monotonic() - _T0
    print(f"ACCEPTANCE runtime: {elapsed:.1f}s")
    assert elapsed < 60.0
