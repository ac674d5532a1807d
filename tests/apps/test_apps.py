"""Integration tests for every benchmark application.

Each app is checked two ways: cross-backend bit-equality (TRAP/NumPy vs
Phase 1, STRAP/NumPy vs the per-point clones) and, where a textbook
algorithm exists, semantic agreement with an independent reference
implementation.
"""

import numpy as np
import pytest

from benchmarks.bench_util import run_macro_shadow
from repro import run_phase1
from repro.apps import available_apps, build
from repro.apps.apop import reference_apop
from repro.apps.lcs import lcs_length, reference_lcs
from repro.apps.psa import alignment_score, reference_psa
from repro.apps.rna import reference_rna

ALL_APPS = available_apps()


class TestRegistry:
    def test_all_paper_benchmarks_present(self):
        for name in ("heat2d", "heat2dp", "heat4d", "life", "wave3d", "lbm",
                     "rna", "psa", "lcs", "apop", "pt7", "pt27"):
            assert name in ALL_APPS

    def test_unknown_app_rejected(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError, match="unknown app"):
            build("warp_drive")

    def test_unknown_scale_rejected(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError, match="scale"):
            build("heat2d", "galactic")


@pytest.mark.parametrize("name", ALL_APPS)
def test_trap_equals_loops_bitwise(name):
    """The central cross-check: TRAP + vectorized kernels produce exactly
    the result of Phase 1, the checked loop-order interpreter."""
    app1 = build(name, "tiny")
    app1.run(algorithm="trap", mode="split_pointer")
    r1 = app1.result()
    app2 = build(name, "tiny")
    run_phase1(app2.stencil, app2.steps, app2.kernel)
    r2 = app2.result()
    assert np.array_equal(r1, r2)


@pytest.mark.parametrize("name", ["heat2dp", "life", "wave3d", "lcs", "apop"])
def test_strap_also_agrees(name):
    app1 = build(name, "tiny")
    app1.run(algorithm="strap", mode="split_pointer")
    app2 = build(name, "tiny")
    run_macro_shadow(app2.stencil, app2.steps, app2.kernel)
    assert np.array_equal(app1.result(), app2.result())


class TestSemantics:
    def test_rna_matches_interval_dp(self):
        app = build("rna", "tiny")
        app.run()
        S = app.result()
        seq = app.stencil.const_arrays["seq"].values.astype(int)
        ref = reference_rna(seq)
        iu = np.triu_indices(len(seq), k=1)
        assert np.array_equal(S[iu], ref[iu])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lcs_matches_textbook(self, seed):
        from repro.apps.lcs import build_lcs

        app = build_lcs(18, seed=seed)
        app.run()
        assert lcs_length(app) == reference_lcs(app.meta["a"], app.meta["b"])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_psa_matches_gotoh(self, seed):
        from repro.apps.psa import build_psa

        app = build_psa(14, seed=seed)
        app.run()
        got = alignment_score(app)
        want = reference_psa(app.meta["a"], app.meta["b"])
        assert got == pytest.approx(want, abs=1e-9)

    def test_psa_identical_sequences_score_perfect(self):
        from repro.apps.dputil import doubled
        from repro.apps.psa import build_psa
        import repro.apps.psa as psa_mod

        app = build_psa(10, seed=5)
        a = app.meta["a"]
        # Rebuild with b == a via the reference: perfect match score.
        assert reference_psa(a, a) == 2.0 * len(a)

    def test_apop_matches_direct_induction(self):
        app = build("apop", "tiny")
        app.run()
        ref = reference_apop(build("apop", "tiny"), app.steps)
        assert np.allclose(app.result(), ref, rtol=1e-13)

    def test_apop_value_dominates_payoff(self):
        app = build("apop", "tiny")
        app.run()
        pay = app.stencil.const_arrays["payoff"].values
        assert np.all(app.result() >= pay - 1e-12)

    def test_life_conserves_nothing_but_stays_binary(self):
        app = build("life", "tiny")
        app.run()
        r = app.result()
        assert set(np.unique(r)).issubset({0.0, 1.0})

    def test_life_blinker_oscillates(self):
        from repro.apps.life import build_life, life_kernel, life_shape
        from repro.language.array import PochoirArray
        from repro.language.boundary import PeriodicBoundary
        from repro.language.stencil import Stencil

        n = 12
        grid = np.zeros((n, n))
        grid[5, 4:7] = 1.0  # horizontal blinker
        u = PochoirArray("u", (n, n)).register_boundary(PeriodicBoundary())
        st_ = Stencil(2, life_shape())
        st_.register_array(u)
        u.set_initial(grid)
        st_.run(2, life_kernel(u))
        assert np.array_equal(u.snapshot(2), grid)  # period 2

    def test_heat_diffusion_smooths(self):
        app = build("heat2dp", "tiny")
        before_var = np.var(app.stencil.arrays["u"].snapshot(0))
        app.run()
        after_var = np.var(app.result())
        assert after_var < before_var  # diffusion reduces variance

    def test_wave_energy_reasonable(self):
        app = build("wave3d", "tiny")
        app.run()
        assert np.all(np.isfinite(app.result()))

    def test_lbm_conserves_mass(self):
        """BGK collisions conserve density; periodic streaming moves it."""
        app = build("lbm", "tiny")
        rho0 = sum(
            app.stencil.arrays[f"f{i}"].snapshot(0).sum() for i in range(9)
        )
        app.run()
        cursor = app.stencil.cursor
        rho1 = sum(
            app.stencil.arrays[f"f{i}"].snapshot(cursor).sum() for i in range(9)
        )
        assert rho1 == pytest.approx(rho0, rel=1e-12)

    def test_pt7_matches_manual_convolution(self):
        app = build("pt7", "tiny")
        u0 = app.stencil.arrays["u"].snapshot(0)
        app.run()
        # One manual step (zero ghost): alpha*u + beta*sum(face neighbors)
        alpha, beta = 0.4, 0.1
        v = u0.copy()
        for _ in range(app.steps):
            padded = np.pad(v, 1)
            s = (
                padded[2:, 1:-1, 1:-1] + padded[:-2, 1:-1, 1:-1]
                + padded[1:-1, 2:, 1:-1] + padded[1:-1, :-2, 1:-1]
                + padded[1:-1, 1:-1, 2:] + padded[1:-1, 1:-1, :-2]
            )
            v = alpha * v + beta * s
        assert np.allclose(app.result(), v, rtol=1e-13)
