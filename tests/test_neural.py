import json

import numpy as np
import pytest

from fgmopt import neural, problems
from fgmopt.errors import DimensionMismatch, TrainingDiverged, ZeroVariance
from fgmopt.neural import (
    Adam,
    DenseLayer,
    DenseNet,
    OperatorNet,
    StressSurrogate,
    TrainStage,
    history_to_csv,
    load_model,
    make_dense,
    r2_score,
    save_model,
)
from fgmopt.rng import make_rng


ACT_FORMULA = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh, "identity": lambda z: z}


def mse_grads(net, x, y):
    """DenseNet.backward's gradients of the batch-mean squared error of ``net`` on (x, y)."""
    pred, seen = net.forward_cached(x)
    return net.backward(seen, 2.0 * (pred - y) / pred.size)


def preactivation_grads(net, x, d_out):
    """Backprop that keeps each layer's pre-activation z, evaluated out of place, and
    takes the derivatives from z: relu (z > 0), tanh 1 - tanh(z)**2, identity 1."""
    deriv = {"relu": lambda z: (z > 0.0).astype(float),
             "tanh": lambda z: 1.0 - np.tanh(z) ** 2,
             "identity": lambda z: np.ones_like(z)}
    inputs, preacts, h = [], [], x
    for layer in net.layers:
        inputs.append(h)
        preacts.append(h @ layer.weights + layer.bias)
        h = ACT_FORMULA[layer.activation](preacts[-1])
    grads, delta = [], d_out
    for i in range(len(net.layers) - 1, -1, -1):
        delta = delta * deriv[net.layers[i].activation](preacts[i])
        grads[:0] = [inputs[i].T @ delta, delta.sum(axis=0)]
        delta = delta @ net.layers[i].weights.T
    return grads


def fit_stress(net, x, y, split, stages, rng):
    """StressSurrogate.fit of ``net`` (unit output scale) on features ``x``, split
    between the x and y profiles at the middle column; returns the history."""
    half = net.input_dim // 2
    model = StressSurrogate(net, 1.0, half, net.input_dim - half)
    return model.fit(x[:, :half], x[:, half:], y, split, stages, rng)


def small_operator(rng, nx_nodes, ny_nodes, L, H, latent, branch_hidden, trunk_hidden,
                   temperature_scale=500.0):
    """An OperatorNet of the given sizes; branch then trunk from one rng, as ``build`` draws."""
    rng = make_rng(rng)
    branch = make_dense(rng, [nx_nodes + ny_nodes, *branch_hidden, latent], "relu")
    trunk = make_dense(rng, [2, *trunk_hidden, latent], "tanh")
    return OperatorNet(branch, trunk, temperature_scale, L, H)


class TestForward:
    def test_zero_weights_bias_identity(self):
        b = np.array([1.0, -2.0])
        net = DenseNet([DenseLayer(np.zeros((3, 2)), b, "identity")])
        np.testing.assert_array_equal(net.forward(np.ones((1, 3))), [b])

    def test_single_relu_layer(self):
        net = DenseNet([DenseLayer(np.eye(2), np.zeros(2), "relu")])
        np.testing.assert_array_equal(net.forward(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])

    def test_identity_composition(self):
        net = DenseNet([
            DenseLayer(np.eye(4), np.zeros(4), "identity"),
            DenseLayer(np.eye(4), np.zeros(4), "identity"),
        ])
        rng = make_rng(1)
        x = rng.normal(size=(1000, 4))
        np.testing.assert_allclose(net.forward(x), x, atol=1e-15)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_in_place_pass_is_the_out_of_place_formula(self, activation):
        # bias and activation written in place give the bits of act(h @ W + b) layer by
        # layer, for one row and for a batch, and leave the input alone
        net = make_dense(3, [6, 9, 5, 2], activation)
        rng = make_rng(4)
        for x in (rng.normal(size=(1, 6)), rng.normal(size=(11, 6))):
            before = x.copy()
            h = x
            for layer in net.layers:
                h = ACT_FORMULA[layer.activation](h @ layer.weights + layer.bias)
            assert net.forward(x).tobytes() == h.tobytes()
            assert np.array_equal(x, before)

    def test_forward_cached_sees_each_layer_input_and_the_output(self):
        # seen = [x, layer 0's output, ..., the network output], each its own array,
        # every one the out-of-place act(h @ W + b) of the entry before it
        net = make_dense(5, [4, 8, 6, 1], "relu")
        x = make_rng(6).normal(size=(20, 4))
        before = x.copy()
        out, seen = net.forward_cached(x)
        assert len(seen) == len(net.layers) + 1
        assert seen[0] is x and np.array_equal(x, before)
        assert seen[-1] is out and out.tobytes() == net.forward(x).tobytes()
        for layer, h, y in zip(net.layers, seen, seen[1:]):
            z = h @ layer.weights + layer.bias
            assert y.tobytes() == ACT_FORMULA[layer.activation](z).tobytes()
        assert (x @ net.layers[0].weights < 0.0).any()  # the relu did cut something
        assert len({id(h) for h in seen}) == len(seen)

    def test_dimension_mismatch(self):
        net = make_dense(0, [3, 5, 1], "relu")
        with pytest.raises(DimensionMismatch):
            net.forward(np.ones((1, 4)))
        with pytest.raises(DimensionMismatch):  # a vector is not a batch of one row
            net.forward(np.ones(3))
        with pytest.raises(DimensionMismatch):
            DenseNet([
                DenseLayer(np.zeros((3, 4)), np.zeros(4), "relu"),
                DenseLayer(np.zeros((5, 1)), np.zeros(1), "identity"),
            ])


class TestBackprop:
    def test_gradients_match_finite_differences(self):
        rng = make_rng(7)
        net = make_dense(rng, [5, 10, 6, 1], "tanh")
        x = rng.normal(size=(12, 5))
        y = rng.normal(size=(12, 1))
        grads = mse_grads(net, x, y)
        params = net.parameters()
        assert [g.shape for g in grads] == [p.shape for p in params]
        h = 1e-5
        checked = 0
        for p, g in zip(params, grads):
            idx = list(np.ndindex(p.shape))
            for k in rng.choice(len(idx), size=min(40, len(idx)), replace=False):
                i = idx[int(k)]
                old = p[i]
                p[i] = old + h
                lp = float(np.mean((net.forward(x) - y) ** 2))
                p[i] = old - h
                lm = float(np.mean((net.forward(x) - y) ** 2))
                p[i] = old
                fd = (lp - lm) / (2 * h)
                assert abs(fd - g[i]) <= 1e-5 * max(abs(fd), abs(g[i]), 1e-6)
                checked += 1
        assert checked >= 100

    def test_zero_residual_zero_gradients(self):
        rng = make_rng(3)
        net = make_dense(rng, [3, 5, 2], "relu")
        x = rng.normal(size=(6, 3))
        y = net.forward(x)
        grads = mse_grads(net, x, y)
        assert len(grads) == 4
        for g in grads:
            assert np.abs(g).max() == 0.0

    def test_residual_scaling_linearity(self):
        # doubling the residuals doubles every gradient
        rng = make_rng(4)
        net = make_dense(rng, [3, 4, 1], "relu")
        x = rng.normal(size=(5, 3))
        _, seen = net.forward_cached(x)
        r = rng.normal(size=(5, 1))
        for g1, g2 in zip(net.backward(seen, r), net.backward(seen, 2 * r)):
            np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_derivative_from_the_output_is_the_preactivation_formula(self, activation):
        # y > 0 and 1 - y**2 from the layer output give the bits of (z > 0) and
        # 1 - tanh(z)**2 from the kept pre-activation, through every layer; the zero
        # row puts the first layer's pre-activations exactly at 0 (zero biases)
        rng = make_rng(17)
        net = make_dense(rng, [5, 12, 7, 3], activation)
        x = np.vstack([rng.normal(size=(9, 5)), np.zeros((1, 5))])
        pred, seen = net.forward_cached(x)
        d_out = 2.0 * (pred - rng.normal(size=pred.shape)) / pred.size
        got = net.backward(seen, d_out)
        want = preactivation_grads(net, x, d_out)
        assert len(got) == len(want) == 6
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


class TestAdam:
    def test_zero_gradient_no_update(self):
        p = np.ones(4)
        opt = Adam([p])
        opt.step([np.zeros(4)], lr=0.1)
        np.testing.assert_array_equal(p, np.ones(4))

    def test_constant_gradient_step_approaches_lr(self):
        p = np.zeros(1)
        opt = Adam([p])
        g = np.array([3.7])
        prev = p.copy()
        for _ in range(500):
            prev = p.copy()
            opt.step([g.copy()], lr=0.01)
        assert abs(abs(p[0] - prev[0]) - 0.01) < 1e-5

    def test_two_runs_bit_identical(self):
        def run():
            rng = make_rng(11)
            net = make_dense(rng, [3, 6, 1], "relu")
            x = make_rng(12).normal(size=(64, 3))
            y = (x[:, :1] * 2 - x[:, 1:2]) ** 2
            fit_stress(net, x, y, (np.arange(64), np.arange(5)),
                       [TrainStage(1e-3, 5, 8)], make_rng(13))
            return np.concatenate([p.ravel() for p in net.parameters()])

        a, b = run(), run()
        assert np.array_equal(a, b)


class TestTraining:
    def test_linear_target_reaches_high_r2(self):
        rng = make_rng(21)
        x = rng.uniform(-1, 1, size=(400, 6))
        w = rng.normal(size=(6, 1))
        y = x @ w + 0.5
        net = make_dense(rng, [6, 32, 1], "relu")
        hist = fit_stress(net, x, y, (np.arange(320), np.arange(320, 400)),
                          [TrainStage(5e-3, 150, 32)], rng)
        assert hist[-1]["train_r2"] > 0.999

    def test_history_records_and_csv(self, tmp_path):
        rng = make_rng(22)
        x = rng.normal(size=(50, 3))
        y = x[:, :1]
        net = make_dense(rng, [3, 8, 1], "tanh")
        hist = fit_stress(net, x, y, (np.arange(40), np.arange(40, 50)),
                          [TrainStage(1e-3, 2, 16), TrainStage(1e-4, 3, 8)], rng)
        assert len(hist) == 5
        assert hist[0]["stage"] == 0 and hist[-1]["stage"] == 1
        assert hist[-1]["epoch"] == 5
        path = tmp_path / "hist.csv"
        history_to_csv(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("stage,epoch,learning_rate")
        assert len(lines) == 6

    def test_divergence_detection(self):
        # Adam steps are bounded by the learning rate, so blow-up is injected
        # directly; the per-epoch finiteness guard must catch it
        rng = make_rng(23)
        net = make_dense(rng, [2, 4, 1], "identity")
        x = rng.normal(size=(32, 2))
        y = rng.normal(size=(32, 1))
        net.layers[0].weights[0, 0] = np.nan
        with pytest.raises(TrainingDiverged):
            fit_stress(net, x, y, (np.arange(32), np.arange(2)), [TrainStage(1e-3, 1, 8)], rng)


class TestR2:
    def test_perfect_and_mean_predictor(self):
        t = np.array([1.0, 2.0, 3.0, 7.0])
        assert r2_score(t, t) == pytest.approx(1.0)
        assert r2_score(np.full(4, t.mean()), t) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed(self):
        pred = np.array([2.0, 4.0, 6.0])
        targ = np.array([1.0, 5.0, 6.0])
        ss_res = 1.0 + 1.0 + 0.0
        ss_tot = 9.0 + 1.0 + 4.0
        assert r2_score(pred, targ) == pytest.approx(1 - ss_res / ss_tot, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            r2_score(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        with pytest.raises(ZeroVariance):
            r2_score(np.array([1.0]), np.array([1.0]))

    def test_epoch_metrics_skip_an_undefined_r2_on_either_side(self):
        # a one-value train side raised ZeroVariance, so one train sample stopped a fit
        one, two = np.array([1.0]), np.array([1.0, 3.0])
        assert neural._epoch_metrics(one + 1, one, two, two) == {
            "train_mse": 1.0, "test_mse": 0.0, "test_r2": 1.0}
        assert neural._epoch_metrics(two, two, one + 1, one) == {
            "train_mse": 0.0, "train_r2": 1.0, "test_mse": 1.0}
        assert neural._epoch_metrics(one, one, one[:0], one[:0]) == {"train_mse": 0.0}


class TestStressSurrogate:
    def test_zeroed_head_predicts_zero(self):
        model = StressSurrogate.build(0, 5, 5, output_scale=1e6)
        model.net.layers[-1].weights[:] = 0.0
        model.net.layers[-1].bias[:] = 0.0
        rng = make_rng(1)
        out = model.predict(rng.uniform(0, 1, (7, 5)), rng.uniform(0, 1, (7, 5)))
        np.testing.assert_array_equal(out, np.zeros(7))

    def test_scale_applied(self):
        model = StressSurrogate.build(0, 3, 3, output_scale=1e6)
        px = np.zeros((1, 3))
        raw = model.net.forward(np.zeros((1, 6)))[0, 0]
        assert model.predict(px, px)[0] == pytest.approx(raw * 1e6)

    def test_step_gradients_are_the_batch_mse_gradients(self, monkeypatch):
        # fit's step on a batch of training samples against DenseNet.backward of their MSE
        rng = make_rng(8)
        model = StressSurrogate.build(rng, 3, 4, output_scale=1e6)
        px, py = rng.uniform(0, 1, (9, 3)), rng.uniform(0, 1, (9, 4))
        sigma = rng.uniform(1e6, 5e6, 9)
        tr = np.array([8, 1, 4, 6, 0, 3])
        captured = {}

        def capture(params, n_samples, batch_grads, epoch_metrics, stages, rng):
            captured.update(n_samples=n_samples, batch_grads=batch_grads)
            return []

        monkeypatch.setattr(neural, "_train_staged", capture)
        model.fit(px, py, sigma, (tr, np.array([2, 5, 7])), [TrainStage(1e-3, 1, 4)], rng)
        assert captured["n_samples"] == tr.size
        idx = np.array([4, 0, 2])  # places in the training split: samples 0, 8 and 4
        rows = tr[idx]
        x = np.concatenate([px, py], axis=1)
        want = mse_grads(model.net, x[rows], sigma[rows, None] / 1e6)
        got = captured["batch_grads"](idx)
        assert len(got) == len(want) == 8
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_one_profile_pair_gives_one_feature_row(self):
        rng = make_rng(2)
        px, py = rng.uniform(0, 1, 4), rng.uniform(0, 1, 6)
        row = StressSurrogate.features(px, py)
        assert row.shape == (1, 10)
        assert np.array_equal(row, StressSurrogate.features(px[None], py[None]))
        assert np.array_equal(row[0], np.concatenate([px, py]))

    def test_round_trip_bit_exact(self, tmp_path):
        model = StressSurrogate.build(9, 4, 6, output_scale=1e7)
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, StressSurrogate)
        for a, b in zip(model.net.parameters(), back.net.parameters()):
            assert np.array_equal(a, b)
        assert back.output_scale == 1e7


class TestOperatorNet:
    def test_build_draws_the_shipped_sizes(self):
        # latent 250, branch (200,), trunk (200, 200, 200), scale 500; branch drawn first
        model = OperatorNet.build(3, 21, 21, L=0.15, H=0.06)
        assert [l.weights.shape for l in model.branch.layers] == [(42, 200), (200, 250)]
        assert [l.weights.shape for l in model.trunk.layers] == [
            (2, 200), (200, 200), (200, 200), (200, 250)]
        assert model.temperature_scale == 500.0
        want = small_operator(3, 21, 21, 0.15, 0.06, 250, (200,), (200, 200, 200))
        assert model.to_dict() == want.to_dict()

    def test_dot_product_head(self):
        model = small_operator(0, 3, 3, L=1.0, H=1.0, temperature_scale=2.0,
                                  latent=1, branch_hidden=(4,), trunk_hidden=(4,))
        # force branch output to [2] and trunk output to [3]
        model.branch.layers[-1].weights[:] = 0.0
        model.branch.layers[-1].bias[:] = 2.0
        model.trunk.layers[-1].weights[:] = 0.0
        model.trunk.layers[-1].bias[:] = 3.0
        out = model.predict(np.zeros(3), np.zeros(3), [(0.5, 0.5)])
        assert out[0] == pytest.approx(2.0 * 3.0 * 2.0)

    def test_zero_branch_gives_zero_everywhere(self):
        model = small_operator(1, 4, 4, L=2.0, H=1.0, latent=8,
                                  branch_hidden=(8,), trunk_hidden=(8,))
        model.branch.layers[-1].weights[:] = 0.0
        model.branch.layers[-1].bias[:] = 0.0
        rng = make_rng(2)
        pts = np.column_stack([rng.uniform(0, 2.0, 50), rng.uniform(0, 1.0, 50)])
        out = model.predict(rng.uniform(0, 1, 4), rng.uniform(0, 1, 4), pts)
        np.testing.assert_array_equal(out, np.zeros(50))

    def test_sample_batch_gradients_match_per_pair_oracle(self, monkeypatch):
        # fit's step on a batch of training samples against the per-pair formula
        # run once for every (sample, point) pair of those samples
        model = small_operator(5, 5, 5, L=2.0, H=1.0, latent=16,
                                  branch_hidden=(16,), trunk_hidden=(16, 16))
        rng = make_rng(6)
        px, py = rng.uniform(0, 1, (9, 5)), rng.uniform(0, 1, (9, 5))
        pts = np.column_stack([rng.uniform(0, 2.0, 30), rng.uniform(0, 1.0, 30)])
        temps = rng.uniform(-300.0, 300.0, (9, 30))
        tr = np.array([8, 1, 4, 6, 0, 3])
        captured = {}

        def capture(params, n_samples, batch_grads, epoch_metrics, stages, rng):
            captured.update(n_samples=n_samples, batch_grads=batch_grads)
            return []

        monkeypatch.setattr(neural, "_train_staged", capture)
        model.fit(px, py, temps, pts, (tr, np.array([2, 5, 7])), [TrainStage(1e-3, 1, 4)], rng)
        assert captured["n_samples"] == tr.size
        idx = np.array([4, 0, 2])  # places in the training split: samples 0, 8 and 4
        got = captured["batch_grads"](idx)

        s_idx, p_idx = np.repeat(tr[idx], 30), np.tile(np.arange(30), 3)
        feats = np.concatenate([px, py], axis=1)
        targets = temps / model.temperature_scale
        fb, b_seen = model.branch.forward_cached(feats[s_idx])
        gt, t_seen = model.trunk.forward_cached((pts / [2.0, 1.0])[p_idx])
        resid = (np.einsum("nc,nc->n", fb, gt) - targets[s_idx, p_idx]) * (2.0 / s_idx.size)
        want = (model.branch.backward(b_seen, resid[:, None] * gt)
                + model.trunk.backward(t_seen, resid[:, None] * fb))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())

    def test_each_step_runs_the_trunk_once_on_every_point(self):
        # 10 training samples in batches of 4 for 2 epochs: ceil(10 / 4) = 3 steps an
        # epoch, each one trunk pass over all 11 points (never a batch of point pairs)
        # and its backward, then the epoch metrics' one pass
        rng = make_rng(15)
        px, py = rng.uniform(0, 1, (12, 3)), rng.uniform(0, 1, (12, 3))
        pts = np.column_stack([rng.uniform(0, 1, 11), rng.uniform(0, 1, 11)])
        model = small_operator(16, 3, 3, L=1.0, H=1.0, temperature_scale=10.0,
                                  latent=4, branch_hidden=(8,), trunk_hidden=(8,))
        calls, forward_cached, backward = [], model.trunk.forward_cached, model.trunk.backward

        def counting_forward(x):
            calls.append(x.shape)
            return forward_cached(x)

        def counting_backward(seen, d_out):
            calls.append("backward")
            return backward(seen, d_out)

        model.trunk.forward_cached = counting_forward
        model.trunk.backward = counting_backward
        model.fit(px, py, rng.uniform(0, 10, (12, 11)), pts, (np.arange(10), np.arange(10, 12)),
                  [TrainStage(1e-3, 2, 4)], rng)
        assert calls == ([(11, 2), "backward"] * 3 + [(11, 2)]) * 2

    def test_cached_trunk_equals_uncached(self):
        model = small_operator(11, 4, 4, L=2.0, H=1.0, latent=8,
                                  branch_hidden=(8,), trunk_hidden=(8, 8))
        rng = make_rng(12)
        pts = np.column_stack([rng.uniform(0, 2.0, 21), rng.uniform(0, 1.0, 21)])
        uncached = model.trunk.forward(np.column_stack([pts[:, 0] / 2.0, pts[:, 1]]))
        for _ in range(3):  # the first call fills the cache, the others read it
            px, py = rng.uniform(0, 1, 4), rng.uniform(0, 1, 4)
            f = model.branch.forward(np.concatenate([px, py])[None])[0]
            np.testing.assert_array_equal(model.predict(px, py, pts),
                                          (uncached @ f) * model.temperature_scale)
        other = pts * 0.5  # a new point set of the same shape replaces the entry
        np.testing.assert_array_equal(model.predict(px, py, other),
                                      OperatorNet.from_dict(model.to_dict()).predict(px, py, other))

    def test_fit_between_calls_changes_the_result(self):
        rng = make_rng(13)
        px, py = rng.uniform(0, 1, (8, 3)), rng.uniform(0, 1, (8, 3))
        pts = np.array([(0.2, 0.3), (0.7, 0.9), (0.5, 0.1)])
        model = small_operator(14, 3, 3, L=1.0, H=1.0, temperature_scale=10.0,
                                  latent=4, branch_hidden=(8,), trunk_hidden=(8,))
        before = model.predict(px[0], py[0], pts)
        model.fit(px, py, rng.uniform(0, 10, (8, 3)), pts, (np.arange(6), np.arange(6, 8)),
                  [TrainStage(1e-2, 2, 4)], rng)
        after = model.predict(px[0], py[0], pts)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(
            after, OperatorNet.from_dict(model.to_dict()).predict(px[0], py[0], pts))

    def test_linear_in_branch_output(self):
        model = small_operator(5, 3, 3, L=1.0, H=1.0, latent=4,
                                  branch_hidden=(4,), trunk_hidden=(4,))
        pts = [(0.3, 0.6)]
        base = model.predict(np.zeros(3), np.zeros(3), pts)[0]
        model.branch.layers[-1].weights *= 3.0
        model.branch.layers[-1].bias *= 3.0
        assert model.predict(np.zeros(3), np.zeros(3), pts)[0] == pytest.approx(3 * base, rel=1e-12)

    def test_training_learns_smooth_operator(self):
        # targets: T(p)(x,y) = (p-weighted value) * smooth spatial mode
        # in batches of 8 samples, each over all 25 points
        rng = make_rng(6)
        n, d, npts = 150, 4, 25
        px = rng.uniform(0, 1, (n, d))
        py = rng.uniform(0, 1, (n, d))
        xs = np.linspace(0, 1, 5)
        pts = np.array([(x, y) for x in xs for y in xs])
        amp = px.sum(axis=1, keepdims=True) - py.sum(axis=1, keepdims=True)
        mode = np.sin(np.pi * pts[:, 0]) * np.cos(0.5 * np.pi * pts[:, 1])
        temps = 100.0 * amp * mode[None, :]
        model = small_operator(7, d, d, L=1.0, H=1.0, temperature_scale=100.0,
                                  latent=16, branch_hidden=(32,), trunk_hidden=(32, 32))
        tr = np.arange(120)
        te = np.arange(120, 150)
        hist = model.fit(px, py, temps, pts, (tr, te),
                         [TrainStage(3e-3, 40, 8), TrainStage(1e-3, 60, 8)], rng)
        assert hist[-1]["test_r2"] > 0.97

    def test_single_value_test_split_skips_test_r2(self):
        # like StressSurrogate.fit: test_mse is recorded, the undefined test_r2 is not
        rng = make_rng(9)
        px = rng.uniform(0, 1, (10, 3))
        py = rng.uniform(0, 1, (10, 3))
        temps = 50.0 * px[:, :1]
        model = small_operator(10, 3, 3, L=1.0, H=1.0, temperature_scale=50.0,
                                  latent=4, branch_hidden=(8,), trunk_hidden=(8,))
        hist = model.fit(px, py, temps, [(0.5, 0.5)], (np.arange(9), np.array([9])),
                         [TrainStage(1e-3, 2, 4)], rng)
        assert len(hist) == 2
        for row in hist:
            assert np.isfinite(row["test_mse"]) and np.isfinite(row["train_r2"])
            assert "test_r2" not in row

    def test_round_trip_bit_exact(self, tmp_path):
        model = small_operator(8, 4, 4, L=0.15, H=0.06, latent=8,
                                  branch_hidden=(8,), trunk_hidden=(8,))
        save_model(model, tmp_path / "op.json")
        back = load_model(tmp_path / "op.json")
        assert isinstance(back, OperatorNet)
        for a, b in zip(model.branch.parameters() + model.trunk.parameters(),
                        back.branch.parameters() + back.trunk.parameters()):
            assert np.array_equal(a, b)
        assert back.L == 0.15 and back.H == 0.06


def _small_models():
    return [StressSurrogate.build(9, 4, 6, output_scale=1e7),
            small_operator(8, 4, 6, L=0.15, H=0.06, latent=8, branch_hidden=(8,),
                              trunk_hidden=(8,))]


def _predict(model, px, py):
    if isinstance(model, StressSurrogate):
        return model.predict(px, py)
    pts = [(0.01, 0.02), (0.1, 0.05), (0.15, 0.0)]
    return np.array([model.predict(x, y, pts) for x, y in zip(px, py)])


class TestModelFile:
    @pytest.mark.parametrize("model", _small_models(), ids=["stress", "operator"])
    def test_predict_bit_identical_after_load(self, model, tmp_path):
        rng = make_rng(30)
        px, py = rng.uniform(0, 1, (9, 4)), rng.uniform(0, 1, (9, 6))
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert type(back) is type(model)
        assert np.array_equal(_predict(back, px, py), _predict(model, px, py))

    @pytest.mark.parametrize("model, keys", zip(_small_models(), [
        {"net", "output_scale", "nx_nodes", "ny_nodes"},
        {"branch", "trunk", "temperature_scale", "L", "H"}]), ids=["stress", "operator"])
    def test_file_holds_the_declared_kind_networks_and_numbers(self, model, keys):
        d = model.to_dict()
        assert set(d) == {"kind", "fingerprint", *keys}
        assert keys == {*model.NETS, *(name for name, _ in model.NUMBERS)}
        assert d["kind"] == model.KIND

    @pytest.mark.parametrize("model", _small_models(), ids=["stress", "operator"])
    def test_save_load_save_is_byte_identical(self, model, tmp_path):
        save_model(model, tmp_path / "a.json")
        save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_loaded_arrays_are_writable_and_trainable(self, tmp_path):
        model = StressSurrogate.build(3, 4, 6, output_scale=1.0)
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        for p in back.net.parameters():
            assert p.flags.writeable and p.flags.c_contiguous and p.dtype == np.float64
        before = [p.copy() for p in back.net.parameters()]
        rng = make_rng(31)
        back.fit(rng.uniform(0, 1, (10, 4)), rng.uniform(0, 1, (10, 6)), rng.uniform(0, 1, 10),
                 (np.arange(8), np.arange(8, 10)), [TrainStage(1e-2, 2, 4)], rng)
        assert all(not np.array_equal(a, b) for a, b in zip(before, back.net.parameters()))

    def test_special_values_round_trip_exactly(self, tmp_path):
        model = StressSurrogate.build(4, 2, 2, output_scale=1.0)
        w = model.net.layers[0].weights
        w.flat[:5] = [-0.0, 5e-324, 1e300, -1e300, np.nextafter(1.0, 2.0)]
        save_model(model, tmp_path / "m.json")
        got = load_model(tmp_path / "m.json").net.layers[0].weights
        assert got.tobytes() == w.tobytes()  # bitwise: keeps the sign of -0.0
        assert np.signbit(got.flat[0]) and got.flat[1] == 5e-324

    @pytest.mark.parametrize("model", _small_models(), ids=["stress", "operator"])
    def test_list_format_file_is_rejected_by_name(self, model, tmp_path):
        d = model.to_dict()
        for key in ("net", "branch", "trunk"):
            if key in d:  # the JSON number lists written before the base64 format
                d[key]["weights"] = [l.weights.tolist() for l in getattr(model, key).layers]
                d[key]["biases"] = [l.bias.tolist() for l in getattr(model, key).layers]
        (tmp_path / "old.json").write_text(json.dumps(d, sort_keys=True))
        with pytest.raises(ValueError, match="old list format.*retrain"):
            load_model(tmp_path / "old.json")

    def test_operator_file_stays_near_eleven_bytes_per_parameter(self, tmp_path):
        # base64 float64 is about 10.7 bytes a parameter; decimal text is about 21
        cfg = problems.problem2()
        model = OperatorNet.build(0, cfg.nx + 1, cfg.ny + 1, L=cfg.L, H=cfg.H)
        n_params = sum(p.size for p in model.branch.parameters() + model.trunk.parameters())
        save_model(model, tmp_path / "op.json")
        assert (tmp_path / "op.json").stat().st_size <= 11 * n_params + 4096
