import numpy as np
import pytest

from glmixer.data import build_panel, logit
from glmixer.design import ModelSpec, design_rows
from glmixer.errors import ValidationError
from glmixer.simulate import SimConfig, simulate_panel

from oracles import simulate_panel_by_rows


class TestSimulatePanel:
    def test_shapes_and_truth(self):
        panel, truth = simulate_panel(SimConfig(m=5, n_i=8, seed=2))
        assert panel.m == 5 and panel.n == 40
        assert len(truth["u"]) == 5 and len(truth["beta"]) == 7
        assert truth["tau"] == 25.0 and truth["phi"] == 4.0

    def test_deterministic(self):
        cfg = SimConfig(m=3, n_i=6, seed=11)
        a, ta = simulate_panel(cfg)
        b, tb = simulate_panel(cfg)
        assert a == b and ta == tb

    def test_seed_matters(self):
        a, _ = simulate_panel(SimConfig(m=3, n_i=6, seed=1))
        b, _ = simulate_panel(SimConfig(m=3, n_i=6, seed=2))
        assert a != b

    def test_model2_has_no_c5q0(self):
        panel, truth = simulate_panel(SimConfig(m=3, n_i=6, variant=2))
        assert panel.c5q0 == [None] * 18
        assert len(truth["beta"]) == 6

    def test_completeness_in_open_interval(self):
        panel, _ = simulate_panel(SimConfig(m=10, n_i=15, seed=5, tau=2.0))
        assert all(0.0 < c < 1.0 for c in panel.completeness)

    def test_noise_free_reconstruction(self):
        # with huge precisions, logit(c) must equal the linear predictor
        cfg = SimConfig(m=3, n_i=6, seed=4, tau=1e12, phi=1e12)
        panel, truth = simulate_panel(cfg)
        spec = ModelSpec.from_dict(truth["spec"])
        beta = np.asarray(truth["beta"])
        X, _, _ = design_rows(panel, spec)
        for x, c in zip(X, panel.completeness):
            theta = float(x @ beta)
            if abs(theta) < 13.0:  # inside the clipping band
                assert logit(c) == pytest.approx(theta, abs=1e-4)

    @pytest.mark.parametrize("cfg", [dict(m=40, n_i=9, seed=6),
                                     dict(m=7, n_i=5, seed=3, variant=2, sex="female"),
                                     dict(m=12, n_i=8, seed=4, reffect_prior="student-t")])
    def test_equals_row_by_row_simulator(self, cfg):
        # the columnar simulator takes x'beta for all rows at once; every
        # cell must keep the bits of the per-row simulator's `row @ beta`
        config = SimConfig(**cfg)
        panel, truth = simulate_panel(config)
        rows, u = simulate_panel_by_rows(config)
        assert panel == build_panel(*zip(*rows))
        assert truth["u"] == u.tolist()

    def test_units_sorted_by_id(self):
        panel, _ = simulate_panel(SimConfig(m=1001, n_i=1, seed=1))
        assert list(panel.unit_ids) == sorted(f"U{i:03d}" for i in range(1001))
        assert panel.unit_ids[100:102] == ("U100", "U1000")

    def test_reffect_families_differ(self):
        base = dict(m=6, n_i=8, seed=9)
        u_gamma = simulate_panel(SimConfig(**base, reffect_prior="gamma"))[1]["u"]
        u_hs = simulate_panel(SimConfig(**base, reffect_prior="horseshoe"))[1]["u"]
        assert u_gamma != u_hs

    def test_bad_beta_length(self):
        with pytest.raises(ValidationError):
            simulate_panel(SimConfig(m=3, n_i=6, beta=(1.0, 2.0)))

    @pytest.mark.parametrize("bad", [dict(m=0), dict(m=-2), dict(n_i=0),
                                     dict(tau=0.0), dict(tau=float("nan")),
                                     dict(phi=-1.0), dict(phi=float("inf")),
                                     dict(beta=(0.5, 0.15, -0.008, -3.0, -0.45, 0.9, float("nan")))])
    def test_bad_config(self, bad):
        with pytest.raises(ValidationError):
            SimConfig(**bad)
