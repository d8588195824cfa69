import json

import numpy as np
import pytest

from fgmopt import neural, problems
from fgmopt.errors import DimensionMismatch, EmptyDataset, TrainingDiverged, ZeroVariance
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


def small_operator(rng, nx_nodes, ny_nodes, rank, branch_hidden=(8,), temperature_scale=500.0,
                   L=1.0, H=1.0):
    """An OperatorNet whose branch [nx + ny, *branch_hidden, rank] is drawn from ``rng`` as
    ``build`` draws it, then a basis of random rows and mean, so a test that fits nothing
    still sees every part of the head."""
    rng = make_rng(rng)
    branch = make_dense(rng, [nx_nodes + ny_nodes, *branch_hidden, rank], "relu")
    n = nx_nodes * ny_nodes
    basis = DenseNet([DenseLayer(rng.normal(size=(rank, n)), rng.normal(size=n), "identity")])
    return OperatorNet(branch, basis, temperature_scale, L, H)


class _FirstStep(Exception):
    """Raised in place of the first Adam step, so the model keeps the parameters it took."""


def first_step(monkeypatch, model, fit):
    """Run ``fit()`` up to its first Adam step and stop it there; returns the parameters
    that step would update, its gradients, and the sample indices of its minibatch, read
    back from the feature rows of the first forward pass ``fit`` runs."""
    captured = {}
    forward_cached = DenseNet.forward_cached

    def forward(net, x):
        captured.setdefault("x", np.array(x))
        return forward_cached(net, x)

    def step(opt, grads, lr):
        captured.update(params=opt.params, grads=grads)
        raise _FirstStep

    monkeypatch.setattr(DenseNet, "forward_cached", forward)
    monkeypatch.setattr(Adam, "step", step)
    with pytest.raises(_FirstStep):
        fit()
    monkeypatch.undo()
    return captured["params"], captured["grads"], captured["x"]


def grid_mse(model, x, targets):
    """The operator's training loss: the mean squared error over every node of the grids."""
    return float(np.mean((model.basis.forward(model.branch.forward(x)) - targets) ** 2))


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
        # each kind, fit twice from one seed, writes the same model file
        def run(kind):
            x = make_rng(12).normal(size=(64, 4))
            if kind == "stress":
                model = StressSurrogate(make_dense(make_rng(11), [4, 6, 1], "relu"), 1.0, 2, 2)
                y = (x[:, :1] * 2 - x[:, 1:2]) ** 2
            else:
                model = small_operator(11, 2, 2, rank=3, temperature_scale=1.0)
                y = np.sin(x[:, :1] + x[:, 2:3]) * np.array([1.0, 2.0, 3.0, 4.0])
            model.fit(x[:, :2], x[:, 2:], y, (np.arange(64), np.arange(5)),
                      [TrainStage(1e-3, 5, 8)], make_rng(13))
            return json.dumps(model.to_dict(), sort_keys=True)

        for kind in ("stress", "operator"):
            assert run(kind) == run(kind)


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
        # fit's first step, on a minibatch of training samples, against DenseNet.backward of
        # their MSE
        rng = make_rng(8)
        model = StressSurrogate.build(rng, 3, 4, output_scale=1e6)
        px, py = rng.uniform(0, 1, (9, 3)), rng.uniform(0, 1, (9, 4))
        sigma = rng.uniform(1e6, 5e6, 9)
        tr = np.array([8, 1, 4, 6, 0, 3])
        params, got, batch = first_step(monkeypatch, model, lambda: model.fit(
            px, py, sigma, (tr, np.array([2, 5, 7])), [TrainStage(1e-3, 1, 4)], rng))
        assert list(map(id, params)) == list(map(id, model.net.parameters()))
        x = np.concatenate([px, py], axis=1)
        rows = [int(np.flatnonzero((x == row).all(axis=1))[0]) for row in batch]
        assert len(rows) == 4 and len(set(rows)) == 4 and set(rows) <= set(tr)
        want = mse_grads(model.net, x[rows], sigma[rows, None] / 1e6)
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
        # a branch (42, 200, POD_RANK) drawn from the rng, a zero basis of 441 nodes, scale 500
        model = OperatorNet.build(3, 21, 21, L=0.15, H=0.06)
        assert [l.weights.shape for l in model.branch.layers] == [(42, 200),
                                                                  (200, neural.POD_RANK)]
        assert model.branch.to_dict() == make_dense(3, [42, 200, neural.POD_RANK],
                                                    "relu").to_dict()
        (layer,) = model.basis.layers
        assert layer.weights.shape == (neural.POD_RANK, 441) and layer.activation == "identity"
        assert not layer.weights.any() and not layer.bias.any()
        assert model.temperature_scale == 500.0 and (model.L, model.H) == (0.15, 0.06)

    def test_dot_product_head(self):
        # each row is the mean plus the branch coefficients times the basis rows, times the
        # scale; one profile pair gives one row
        model = small_operator(0, 3, 3, rank=2, temperature_scale=2.0)
        rng = make_rng(1)
        px, py = rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (5, 3))
        layer = model.basis.layers[0]
        want = (layer.bias + model.branch.forward(np.concatenate([px, py], axis=1))
                @ layer.weights) * 2.0
        np.testing.assert_array_equal(model.predict(px, py), want)
        np.testing.assert_allclose(model.predict(px[1], py[1]), want[1:2], rtol=1e-14)

    def test_zero_branch_gives_zero_everywhere(self):
        # a zero branch output leaves the mean; with a zero mean the grid is zero
        model = small_operator(1, 4, 4, rank=3)
        model.branch.layers[-1].weights[:] = 0.0
        model.branch.layers[-1].bias[:] = 0.0
        rng = make_rng(2)
        px, py = rng.uniform(0, 1, (7, 4)), rng.uniform(0, 1, (7, 4))
        mean = model.basis.layers[0].bias
        np.testing.assert_array_equal(model.predict(px, py), np.tile(mean * 500.0, (7, 1)))
        mean[:] = 0.0
        np.testing.assert_array_equal(model.predict(px, py), np.zeros((7, 16)))

    def test_linear_in_branch_output(self):
        model = small_operator(5, 3, 3, rank=4)
        model.basis.layers[0].bias[:] = 0.0  # without the mean, linear in the coefficients
        base = model.predict(np.zeros(3), np.zeros(3))
        model.branch.layers[-1].weights *= 3.0
        model.branch.layers[-1].bias *= 3.0
        np.testing.assert_allclose(model.predict(np.zeros(3), np.zeros(3)), 3 * base, rtol=1e-12)

    @staticmethod
    def fit(model, n, n_train, seed, stages=(TrainStage(1e-3, 1, 8),), temps=None):
        """``model`` fit on n random samples, the first n_train of them the training split;
        returns (profiles_x, profiles_y, grids, history)."""
        rng = make_rng(seed)
        nx = model.branch.input_dim // 2
        px = rng.uniform(0, 1, (n, nx))
        py = rng.uniform(0, 1, (n, model.branch.input_dim - nx))
        if temps is None:
            temps = rng.uniform(0.0, 300.0, (n, model.basis.output_dim))
        history = model.fit(px, py, temps, (np.arange(n_train), np.arange(n_train, n)),
                            list(stages), rng)
        return px, py, temps, history

    def test_basis_is_the_mean_and_the_leading_orthonormal_modes(self):
        # 24 training grids span 23 modes, more than the rank 6: every row is a mode
        model = small_operator(20, 3, 4, rank=6)
        _, _, temps, _ = self.fit(model, 30, 24, seed=21)
        layer = model.basis.layers[0]
        np.testing.assert_allclose(layer.weights @ layer.weights.T, np.eye(6), atol=1e-12)
        grids = temps[:24] / 500.0
        np.testing.assert_allclose(layer.bias, grids.mean(axis=0), rtol=1e-13)
        # the rows hold the energy of the 6 largest singular values: they are the leading modes
        centred = grids - layer.bias
        sv = np.linalg.svd(centred, compute_uv=False)
        assert np.sum((centred @ layer.weights.T) ** 2) == pytest.approx(np.sum(sv[:6] ** 2),
                                                                          rel=1e-12)

    def test_test_rows_leave_the_fit_unchanged(self):
        # the basis is built from the training grids only: a test grid changes no bit
        fitted = []
        for bump in (0.0, 1e3):
            model = small_operator(22, 3, 3, rank=4)
            temps = make_rng(23).uniform(0.0, 300.0, (12, 9))
            temps[10] += bump
            self.fit(model, 12, 9, seed=24, stages=(TrainStage(1e-2, 3, 4),), temps=temps)
            fitted.append(json.dumps(model.to_dict(), sort_keys=True))
        assert fitted[0] == fitted[1]

    def test_basis_reproduces_every_training_grid_when_the_rank_allows(self):
        # 5 training grids span n_train - 1 = 4 modes, below the rank 6: the rows past
        # them stay zero, and the mean plus the projection gives each grid back
        model = small_operator(25, 3, 3, rank=6, temperature_scale=1.0)
        temps = make_rng(26).uniform(0.0, 1.0, (7, 9))
        self.fit(model, 7, 5, seed=26, temps=temps)
        layer = model.basis.layers[0]
        assert not layer.weights[4:].any() and layer.weights[:4].any()
        mean, modes = layer.bias, layer.weights
        np.testing.assert_allclose(mean + ((temps[:5] - mean) @ modes.T) @ modes, temps[:5],
                                   rtol=0, atol=1e-12)
        assert model.fingerprint["modes"] == 4

    def test_branch_gradients_match_finite_differences(self, monkeypatch):
        # fit's first step, on a minibatch of training samples, against central differences
        # of the grid MSE of those samples, over every branch parameter the basis feeds
        model = small_operator(27, 3, 3, rank=3, branch_hidden=(6,), temperature_scale=100.0)
        rng = make_rng(28)
        px, py = rng.uniform(0, 1, (12, 3)), rng.uniform(0, 1, (12, 3))
        temps = rng.uniform(0.0, 300.0, (12, 9))
        params, got, batch = first_step(monkeypatch, model, lambda: model.fit(
            px, py, temps, (np.arange(9), np.arange(9, 12)), [TrainStage(1e-3, 1, 8)], rng))
        features = np.concatenate([px, py], axis=1)
        # the branch's own arrays, and no basis array, are trained
        assert list(map(id, params)) == list(map(id, model.branch.parameters()))
        rows = [int(np.flatnonzero((features == row).all(axis=1))[0]) for row in batch]
        assert len(rows) == 8 and len(set(rows)) == 8 and max(rows) < 9
        x, targets = features[rows], temps[rows] / 100.0
        h = 1e-6
        for p, g in zip(model.branch.parameters(), got):
            assert g.shape == p.shape
            for i in np.ndindex(p.shape):
                old = p[i]
                p[i] = old + h
                lp = grid_mse(model, x, targets)
                p[i] = old - h
                lm = grid_mse(model, x, targets)
                p[i] = old
                fd = (lp - lm) / (2 * h)
                assert abs(fd - g[i]) <= 1e-6 * max(abs(fd), abs(g[i]), 1e-4)

    def test_one_training_sample_fits_and_predicts_the_mean(self):
        model = small_operator(29, 3, 3, rank=4)
        px, py, temps, history = self.fit(model, 2, 1, seed=30)
        assert not model.basis.layers[0].weights.any() and model.fingerprint["modes"] == 0
        assert all(np.isfinite(row["train_mse"]) for row in history)
        np.testing.assert_allclose(model.predict(px, py), np.tile(temps[0], (2, 1)), rtol=1e-14)

    def test_a_basis_that_fit_cannot_write_is_rejected(self):
        # a model file is outside input: the basis must be one identity layer of the
        # branch's output width
        branch = make_dense(0, [6, 4, 3], "relu")
        for basis in (make_dense(1, [3, 5, 9], "relu"),  # two layers
                      DenseNet([DenseLayer(np.zeros((3, 9)), np.zeros(9), "tanh")]),
                      DenseNet([DenseLayer(np.zeros((4, 9)), np.zeros(9), "identity")])):
            with pytest.raises(DimensionMismatch, match="a basis is one identity layer"):
                OperatorNet(branch, basis, 500.0, 1.0, 1.0)

    def test_fit_between_calls_changes_the_result(self):
        model = small_operator(14, 3, 3, rank=4, temperature_scale=10.0)
        before = model.predict(np.full(3, 0.5), np.full(3, 0.5))
        self.fit(model, 8, 6, seed=13, stages=(TrainStage(1e-2, 2, 4),))
        after = model.predict(np.full(3, 0.5), np.full(3, 0.5))
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(
            after, OperatorNet.from_dict(model.to_dict()).predict(np.full(3, 0.5), np.full(3, 0.5)))

    def test_training_learns_smooth_operator(self):
        # targets: T(p)(x,y) = (p-weighted value) * smooth spatial mode on a 4 x 4 grid,
        # in batches of 8 samples, each over all 16 nodes
        rng = make_rng(6)
        n, d = 150, 4
        px = rng.uniform(0, 1, (n, d))
        py = rng.uniform(0, 1, (n, d))
        xs = np.linspace(0, 1, d)
        pts = np.array([(x, y) for x in xs for y in xs])
        amp = px.sum(axis=1, keepdims=True) - py.sum(axis=1, keepdims=True)
        mode = np.sin(np.pi * pts[:, 0]) * np.cos(0.5 * np.pi * pts[:, 1])
        temps = 100.0 * amp * mode[None, :]
        model = small_operator(7, d, d, rank=4, branch_hidden=(32,), temperature_scale=100.0)
        hist = model.fit(px, py, temps, (np.arange(120), np.arange(120, 150)),
                         [TrainStage(3e-3, 40, 8), TrainStage(1e-3, 60, 8)], rng)
        assert hist[-1]["test_r2"] > 0.97

    def test_single_value_test_split_skips_test_r2(self):
        # the one loop records test_mse; a test split of one sample whose grid is one value
        # has no test_r2
        rng = make_rng(9)
        px = rng.uniform(0, 1, (10, 3))
        py = rng.uniform(0, 1, (10, 3))
        temps = np.repeat(50.0 * px[:, :1], 9, axis=1)
        temps[:9] += rng.uniform(0, 1, (9, 9))
        model = small_operator(10, 3, 3, rank=4, temperature_scale=50.0)
        hist = model.fit(px, py, temps, (np.arange(9), np.array([9])),
                         [TrainStage(1e-3, 2, 4)], rng)
        assert len(hist) == 2
        for row in hist:
            assert np.isfinite(row["test_mse"]) and np.isfinite(row["train_r2"])
            assert "test_r2" not in row

    def test_round_trip_bit_exact(self, tmp_path):
        model = small_operator(8, 4, 4, rank=8, L=0.15, H=0.06)
        save_model(model, tmp_path / "op.json")
        back = load_model(tmp_path / "op.json")
        assert isinstance(back, OperatorNet)
        for a, b in zip(model.branch.parameters() + model.basis.parameters(),
                        back.branch.parameters() + back.basis.parameters()):
            assert np.array_equal(a, b)
        assert back.L == 0.15 and back.H == 0.06


def _small_models():
    return [StressSurrogate.build(9, 4, 6, output_scale=1e7),
            small_operator(8, 4, 6, rank=8, L=0.15, H=0.06)]


class TestModelFile:
    @pytest.mark.parametrize("model", _small_models(), ids=["stress", "operator"])
    def test_predict_bit_identical_after_load(self, model, tmp_path):
        rng = make_rng(30)
        px, py = rng.uniform(0, 1, (9, 4)), rng.uniform(0, 1, (9, 6))
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert type(back) is type(model)
        assert np.array_equal(back.predict(px, py), model.predict(px, py))

    @pytest.mark.parametrize("model, keys", zip(_small_models(), [
        {"net", "output_scale", "nx_nodes", "ny_nodes"},
        {"branch", "basis", "temperature_scale", "L", "H"}]), ids=["stress", "operator"])
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
        for key in ("net", "branch", "basis"):
            if key in d:  # the JSON number lists written before the base64 format
                d[key]["weights"] = [l.weights.tolist() for l in getattr(model, key).layers]
                d[key]["biases"] = [l.bias.tolist() for l in getattr(model, key).layers]
        (tmp_path / "old.json").write_text(json.dumps(d, sort_keys=True))
        with pytest.raises(ValueError, match="old list format.*retrain"):
            load_model(tmp_path / "old.json")

    def test_operator_net_file_is_refused_with_a_retrain_message(self, tmp_path):
        # the branch/trunk kind, whose trunk network stood where the fixed basis is
        path = tmp_path / "old_op.json"
        path.write_text(json.dumps({**_small_models()[1].to_dict(), "kind": "operator_net"}))
        with pytest.raises(ValueError, match=f"^{path}: an operator_net model is no longer "
                                             "read; retrain it with train-temp$"):
            load_model(path)

    def test_operator_file_stays_near_eleven_bytes_per_parameter(self, tmp_path):
        # base64 float64 is about 10.7 bytes a parameter; decimal text is about 21
        cfg = problems.problem2()
        model = OperatorNet.build(0, cfg.nx + 1, cfg.ny + 1, L=cfg.L, H=cfg.H)
        n_params = sum(p.size for p in model.branch.parameters() + model.basis.parameters())
        save_model(model, tmp_path / "op.json")
        assert (tmp_path / "op.json").stat().st_size <= 11 * n_params + 4096

    @pytest.mark.parametrize("model", _small_models(), ids=["stress", "operator"])
    @pytest.mark.parametrize("scale", [0.0, -500.0, float("nan"), float("inf")])
    def test_scale_that_is_not_finite_and_positive_is_refused_by_name(self, model, scale,
                                                                      tmp_path):
        # a scale of 0 or < 0 predicted 0 or -0 everywhere, and NaN or inf predicted NaN
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**model.to_dict(), model.SCALE: scale}))
        with pytest.raises(ValueError, match=f"^{path}: {model.SCALE} must be a finite number "
                                             f"> 0, got {scale!r}$"):
            load_model(path)


@pytest.mark.parametrize("which", [0, 1], ids=["stress", "operator"])
def test_empty_training_split_raises_and_leaves_the_model(which):
    # both kinds train through one loop, which checks the split once, before the operator's
    # basis is set: networks, numbers and fingerprint are the ones before the call
    model = _small_models()[which]
    before = json.dumps(model.to_dict(), sort_keys=True)
    rng = make_rng(32)
    px, py = rng.uniform(0, 1, (3, 4)), rng.uniform(0, 1, (3, 6))
    with pytest.raises(EmptyDataset, match="empty training set"):
        model.fit(px, py, model.predict(px, py) + 1.0, (np.arange(0), np.arange(3)),
                  [TrainStage(1e-3, 1, 2)], rng)
    assert json.dumps(model.to_dict(), sort_keys=True) == before
