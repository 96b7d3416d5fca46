"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance below is pinned; sampling generators keep instances a
tolerance-grade distance from decision boundaries, where no finite
budget could certify anything.
"""

import json
import math
import time

import numpy as np
import pytest

from matstab import cli
from matstab import dstability as ds
from matstab import lyapunov as ly
from matstab import polynomials as pl
from matstab import special_forms as sf
from matstab import spectra as sp

from conftest import (random_diagonally_stable, random_hurwitz, random_m_matrix,
                      random_ndd, random_schur, random_schur_diag_stable,
                      random_sdd_positive_diag, random_tridiagonal_p,
                      random_triangular_positive_diag, random_unstable)



def report(num, ok, detail, t0, limit=None):
    elapsed = time.perf_counter() - t0
    line = (f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} "
            f"[{elapsed:6.1f} s] {detail}")
    print(line)
    assert ok, line
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit} s"


def spd(m):
    return np.linalg.eigvalsh(0.5 * (m + m.T))[0] > 0


def test_criterion_01_lyapunov_iff():
    RNG = np.random.default_rng(7140 + 1)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(500):
        n = int(RNG.integers(2, 7))
        a = random_hurwitz(RNG, n)
        h = ly.solve_lyapunov(a, -np.eye(n))
        res = np.linalg.norm(h @ a + a.T @ h + np.eye(n))
        bound = 1e-8 * (np.linalg.norm(a) * np.linalg.norm(h)
                        + math.sqrt(n))
        if not (spd(h) and res <= bound):
            bad += 1
    for k in range(500):
        n = int(RNG.integers(2, 7))
        a = random_unstable(RNG, n, allow_boundary=(k % 50 == 0))
        try:
            h = ly.solve_lyapunov(a, -np.eye(n))
        except (ly.OperatorSingularError, ly.IllConditionedError):
            continue  # singular operator counts as the expected failure
        if spd(h):
            bad += 1
    report(1, bad == 0, f"Lyapunov iff on 1000 matrices, {bad} violations",
           t0, limit=30)


def test_criterion_02_stein_iff():
    RNG = np.random.default_rng(7140 + 2)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(500):
        n = int(RNG.integers(2, 7))
        a = random_schur(RNG, n)
        h = ly.solve_lyapunov(a, -np.eye(n), sp.Disk())
        if not spd(h):
            bad += 1
    for _ in range(500):
        n = int(RNG.integers(2, 7))
        a = RNG.normal(size=(n, n))
        rho = abs(np.linalg.eigvals(a)).max()
        a *= RNG.uniform(1.0, 2.0) / rho
        try:
            h = ly.solve_lyapunov(a, -np.eye(n), sp.Disk())
        except (ly.OperatorSingularError, ly.IllConditionedError):
            continue
        if spd(h):
            bad += 1
    report(2, bad == 0, f"Stein iff on 1000 matrices, {bad} violations",
           t0, limit=30)


def test_criterion_03_secant_exactness():
    RNG = np.random.default_rng(7140 + 3)
    t0 = time.perf_counter()
    missed = falsely_certified = proved = refuted = 0
    for n in range(3, 9):
        bound = (1.0 / math.cos(math.pi / n)) ** n
        for _ in range(50):
            alpha = np.exp(RNG.uniform(np.log(0.5), np.log(2.0), n))
            while True:
                u = RNG.uniform(np.log(1 / 16), np.log(16))
                if abs(u) >= np.log(1.1):
                    break  # stay 10% off the decision boundary
            beta = np.exp(RNG.uniform(np.log(0.5), np.log(2.0), n))
            beta *= (bound * np.exp(u) / (beta.prod() / alpha.prod())) ** (1 / n)
            form = sf.CyclicForm(tuple(alpha), tuple(beta))
            verdict = sf.secant_criterion(form)
            search = ly.DiagonalSearch(form.matrix(), sp.HalfPlaneLeft(),
                                       5000).run()
            if verdict.proved:
                proved += 1
                if not (search.proved
                        and ly.verify_certificate(form.matrix(),
                                                  search.witness) > 0):
                    missed += 1
            else:
                refuted += 1
                if search.proved:
                    falsely_certified += 1
    ok = missed == 0 and falsely_certified == 0
    report(3, ok, f"secant exactness: {proved} proved all certified, "
                  f"{refuted} refuted none certified", t0, limit=120)


def test_criterion_04_kharitonov_soundness():
    RNG = np.random.default_rng(7140 + 4)
    t0 = time.perf_counter()
    proved = refuted = unknown = bad = 0
    for k in range(100):
        deg = int(RNG.integers(1, 6))
        if k % 2 == 0:
            base = np.real(np.poly(-RNG.uniform(0.2, 3.0, deg)))
        else:
            base = RNG.normal(size=deg + 1)
            base[0] = abs(base[0]) + 0.2
        width = RNG.uniform(0.0, 0.15, deg + 1) * (np.abs(base) + 0.05)
        lo, hi = base - width, base + width
        if lo[0] <= 0:
            lo[0] = 0.05
            hi[0] = max(hi[0], 0.1)
        box = pl.IntervalPoly(lo, hi)
        v = pl.kharitonov_stable(box)
        if v.proved:
            proved += 1
            for _ in range(2000):
                member = box.sample(RNG)
                if np.roots(member).real.max() >= 1e-9:
                    bad += 1
                    break
        elif v.refuted:
            refuted += 1
            roots = np.roots(v.witness["polynomial"])
            if roots.real.max() < -1e-9:
                bad += 1
        else:
            unknown += 1
    ok = bad == 0 and unknown == 0 and proved > 0 and refuted > 0
    report(4, ok, f"kharitonov: {proved} proved boxes sound, "
                  f"{refuted} refutations root-confirmed, {bad} bad", t0,
           limit=60)


def test_criterion_05_johnson_sufficient_classes():
    RNG = np.random.default_rng(7140 + 5)
    t0 = time.perf_counter()
    gens = [("m-matrix", random_m_matrix),
            ("sdd-positive-diagonal", random_sdd_positive_diag),
            ("triangular-positive-diagonal", random_triangular_positive_diag),
            ("tridiagonal-p", random_tridiagonal_p)]
    refutations = 0
    for name, gen in gens:
        for k in range(200):
            n = int(RNG.integers(2, 6))
            member = gen(RNG, n)
            v = ds.falsify(-member, ds.PositiveDiagonal(), ds.Multiply(),
                           sp.HalfPlaneLeft(), samples=10000,
                           seed=int(RNG.integers(0, 2 ** 31)), batch=2048)
            if v.refuted:
                refutations += 1
    report(5, refutations == 0,
           f"800 members of 4 sufficient classes, {refutations} refutations "
           f"in 10^4-sample falsification each", t0, limit=180)


def test_criterion_06_necessity_logging():
    RNG = np.random.default_rng(7140 + 6)
    t0 = time.perf_counter()
    fails_p0, passes_p0, unclassified = 0, 0, 0
    found = 0
    attempts = 0
    while found < 50 and attempts < 4000:
        attempts += 1
        n = int(RNG.integers(2, 6))
        a = random_hurwitz(RNG, n)
        v = ds.falsify(a, ds.PositiveDiagonal(), ds.Multiply(),
                       sp.HalfPlaneLeft(), samples=1500,
                       seed=int(RNG.integers(0, 2 ** 31)))
        if not v.refuted:
            continue
        found += 1
        nec = ds.necessary_p0plus(a)
        if nec.refuted:
            fails_p0 += 1
        elif nec.reason == "necessary-p0plus-passed":
            passes_p0 += 1  # permitted: the P0+ condition is not sufficient
        else:
            unclassified += 1
    ok = found >= 50 and unclassified == 0 \
        and fails_p0 + passes_p0 == found
    report(6, ok, f"necessity log consistent on {found} refuted matrices "
                  f"({fails_p0} fail P0+, {passes_p0} pass P0+ yet refuted)",
           t0)


def test_criterion_07_li_wang_equivalence():
    RNG = np.random.default_rng(7140 + 7)
    t0 = time.perf_counter()
    checked = disagreements = 0
    while checked < 500:
        n = int(RNG.integers(2, 6))
        a = RNG.normal(size=(n, n))
        lam = np.linalg.eigvals(a)
        if abs(lam.real).min() < 1e-6:
            continue
        checked += 1
        truth = lam.real.max() < -1e-8
        if ds.li_wang_stable(a).proved != truth:
            disagreements += 1
    report(7, disagreements == 0,
           f"li-wang equivalence on {checked} matrices, "
           f"{disagreements} disagreements", t0)


def test_criterion_08_certificate_transformations():
    RNG = np.random.default_rng(7140 + 8)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(200):
        n = int(RNG.integers(2, 6))
        a, d = random_diagonally_stable(RNG, n)
        margin0 = ly.verify_certificate(
            a, ly.Certificate("diagonal-lyapunov", d, 1e-12,
                              sp.HalfPlaneLeft()))
        dinv = np.diag(1.0 / np.diag(d))
        cert_t = ly.Certificate("diagonal-lyapunov", dinv, 1e-12,
                                sp.HalfPlaneLeft())
        cert_i = ly.Certificate("diagonal-lyapunov", d, 1e-12,
                                sp.HalfPlaneLeft())
        try:
            m1 = ly.verify_certificate(a.T, cert_t)
            m2 = ly.verify_certificate(np.linalg.inv(a), cert_i)
        except ly.CertificateError:
            bad += 1
            continue
        if not (margin0 > 0 and m1 > 0 and m2 > 0):
            bad += 1
    report(8, bad == 0, f"transpose/inverse certificate maps on 200 "
                        f"certified matrices, {bad} failures", t0)


def test_criterion_09_lmi_emi_reductions():
    RNG = np.random.default_rng(7140 + 9)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(RNG.integers(2, 5))
        a = RNG.normal(size=(n, n))
        h = RNG.normal(size=(n, n))
        h = 0.5 * (h + h.T)
        w1 = ly.emi_operator([[0.0]], [[1.0]], [[0.0]], a, h)
        w2 = ly.emi_operator([[-1.0]], [[0.0]], [[1.0]], a, h)
        worst = max(worst,
                    abs(w1 - (h @ a + a.T @ h)).max(),
                    abs(w2 - (a.T @ h @ a - h)).max())
    report(9, worst <= 1e-12,
           f"half-plane-as-LMI and disk-as-EMI reductions, worst "
           f"deviation {worst:.2e}", t0)


def test_criterion_10_second_order_companions():
    RNG = np.random.default_rng(7140 + 10)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(200):
        n = int(RNG.integers(2, 5))
        a = random_ndd(RNG, n)
        b = np.diag(-RNG.uniform(0.1, 2.0, n))
        assert sf.companion_ndd_d_stable(a, b).proved
        c = sf.build_companion(a, b).c
        if not sp.region_stable(c, sp.HalfPlaneLeft()).proved:
            bad += 1
            continue
        v = ds.falsify(c, ds.PositiveDiagonal(), ds.Multiply(),
                       sp.HalfPlaneLeft(), samples=10000,
                       seed=int(RNG.integers(0, 2 ** 31)), batch=2048)
        if v.refuted:
            bad += 1
    report(10, bad == 0, f"200 companion systems stable and never "
                         f"falsified, {bad} failures", t0, limit=120)


def test_criterion_11_vertex_necessity():
    RNG = np.random.default_rng(7140 + 11)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(100):
        n = int(RNG.integers(2, 11))
        a, d = random_schur_diag_stable(RNG, n)
        assert spd(d - a.T @ d @ a)  # Stein certificate by construction
        if not ds.vertex_schur_check(a, ds.VertexDiagonal())[0].proved:
            bad += 1
    report(11, bad == 0, f"100 Schur-certified matrices pass the "
                         f"exhaustive vertex check, {bad} failures", t0)


def test_criterion_12_gershgorin():
    RNG = np.random.default_rng(7140 + 12)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(200):
        n = int(RNG.integers(2, 7))
        a = RNG.normal(size=(n, n)) * RNG.uniform(0.5, 3.0)
        disks, _ = sp.gershgorin(a)
        for z in sp.eigenvalues(a):
            if not any(abs(z - c) <= r + 1e-9 for c, r in disks):
                bad += 1
    for _ in range(50):
        n = int(RNG.integers(2, 7))
        a = random_ndd(RNG, n)  # strictly dominant, negative diagonal
        _, v = sp.gershgorin(a)
        if not v.proved:
            bad += 1
    report(12, bad == 0, f"gershgorin localization on 200 matrices plus "
                         f"50 dominant cases, {bad} failures", t0)


def test_criterion_13_simulation_cross_check():
    RNG = np.random.default_rng(7140 + 13)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(100):
        n = int(RNG.integers(2, 6))
        a, d = random_diagonally_stable(RNG, n)
        a = a - 0.3 * np.eye(n)  # keep the abscissa comfortably negative
        horizon = sp.decay_horizon(a, target=1e-8)
        step = min(0.02, 0.4 / (1.0 + np.linalg.norm(a, 2)))
        if sp.simulate_decay(a, horizon, step) >= 1e-6:
            bad += 1
    refuted_checked = 0
    while refuted_checked < 20:
        n = int(RNG.integers(2, 5))
        a = random_hurwitz(RNG, n)
        v = ds.falsify(a, ds.PositiveDiagonal(), ds.Multiply(),
                       sp.HalfPlaneLeft(), samples=2000,
                       seed=int(RNG.integers(0, 2 ** 31)))
        if not v.refuted:
            continue
        refuted_checked += 1
        m = v.witness.realized
        growth = np.linalg.eigvals(m).real.max()
        horizon = min(60.0, max(5.0, 5.0 / growth))
        step = min(0.01, 0.4 / (1.0 + np.linalg.norm(m, 2)))
        if not sp.simulate_decay(m, horizon, step) > 1.0:
            bad += 1
    report(13, bad == 0, f"decay on 100 certified systems and growth on "
                         f"{refuted_checked} witnesses, {bad} failures", t0)


def test_criterion_14_cli_determinism_and_replay():
    RNG = np.random.default_rng(7140 + 14)
    t0 = time.perf_counter()
    a = [[1.0, -4.0], [1.0, -2.0]]
    kw = dict(samples=3000, budget=1000, seed=424242)
    deterministic = True
    for exhaustive in (False, True):
        r1, r2 = (cli.run(cli.AnalysisRequest(matrix=np.asarray(a),
                                              exhaustive=exhaustive, **kw))
                  for _ in range(2))
        b1, b2 = cli.emit(r1, "json"), cli.emit(r2, "json")
        deterministic = deterministic and b1 == b2

    # necessary-p0plus decides the default run; the exhaustive run (b1)
    # also holds the falsify witness
    payload = json.loads(b1)
    fal = next(c for c in payload["checks"] if c["check"] == "falsify")
    g = np.asarray(fal["witness"]["g"])
    z = complex(fal["witness"]["eigenvalue"]["re"],
                fal["witness"]["eigenvalue"]["im"])
    lam = np.linalg.eigvals(ds.Multiply().apply(g, np.asarray(a)))
    replay = min(abs(lam - z)) <= 1e-9 * (1 + abs(z))
    report(14, deterministic and replay,
           f"byte-identical reports: {deterministic}; witness replay to "
           f"1e-9: {replay}", t0)
