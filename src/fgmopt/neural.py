"""From-scratch feed-forward networks and the two surrogate models.

Everything is plain numpy float64: explicit forward/backward passes, exact
MSE gradients, Adam updates, and a staged learning-rate schedule (list of
(learning rate, epochs, batch size) stages executed in order, shuffling each
epoch with a seeded generator).  ``DenseNet`` runs one in-place layer loop;
training keeps each layer's input, and backprop takes each activation's
derivative from the layer's output, so no pre-activation is kept.  Both
models' ``fit`` take the same step shape over ``_train_staged``: a closure
that runs the forward pass on one minibatch, forms the mean-squared-error
residual and returns ``DenseNet.backward``'s gradients in ``parameters()``
order, and a closure that computes the epoch metrics.  For both models the
batch size counts samples; the operator's loss for a batch covers every point
of its samples' aligned temperature grids.  Training is deterministic given (seed, dataset
order, stages).

Two model classes sit on top of the raw ``DenseNet``:

* ``StressSurrogate`` maps the concatenated axis profiles to the peak
  effective stress (network output times ``output_scale``);
* ``OperatorNet`` is a branch/trunk pair sharing a latent dimension of 250;
  the temperature at a point is the dot product of branch(profiles) and
  trunk(x/L, y/H), times ``temperature_scale`` (500).

Model files are JSON, one format for both models (``_Model``): the class's
declared ``KIND``, each of its ``NETS`` (``DenseNet.to_dict``), each of its
``NUMBERS`` and the fingerprint of its fit.  Each weight and bias array is stored as
``{"shape": [...], "f8": "<base64>"}``: its shape and its little-endian
float64 bytes in base64, so a save/load round trip is bit-exact (-0.0,
subnormals and infinities included) and costs a copy, not float formatting.
Files whose arrays are JSON number lists, the format before this one, are
rejected with a ValueError; such models must be retrained.
"""

from __future__ import annotations

import base64
import contextlib
import json
import pathlib
from dataclasses import dataclass

import numpy as np

from . import version_fingerprint
from .errors import (DimensionMismatch, EmptyDataset, TrainingDiverged, ZeroVariance, is_number,
                     naming)
from .rng import make_rng

_ACT = {  # (activation applied in place to h, its derivative from the output y = act(z))
    "relu": (lambda h: np.maximum(h, 0.0, out=h), lambda y: y > 0.0),
    "tanh": (lambda h: np.tanh(h, out=h), lambda y: 1.0 - y**2),
    "identity": (lambda h: h, lambda y: 1.0),
}


@dataclass
class DenseLayer:
    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str

    def __post_init__(self):
        if self.activation not in _ACT:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != self.weights.shape[1:]:
            raise ValueError("a layer needs 2-D weights and a bias of their output width, got "
                             f"shapes {self.weights.shape} and {self.bias.shape}")


class DenseNet:
    """Sequence of affine layers with elementwise activations."""

    def __init__(self, layers: list[DenseLayer]):
        if not layers:
            raise ValueError("need at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.weights.shape[1] != b.weights.shape[0]:
                raise DimensionMismatch("consecutive layer dimensions do not chain")
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass of an (n, input_dim) array; the output is (n, output_dim)."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass returning ``(output, seen)``; ``seen[i]`` is layer i's input
        and ``seen[-1]`` the output.  Each matmul makes a new array that takes its
        bias and activation in place, so ``x`` is left alone."""
        h = np.asarray(x, dtype=float)
        if h.ndim != 2 or h.shape[1] != self.input_dim:
            raise DimensionMismatch(
                f"expected an (n, {self.input_dim}) input, got shape {h.shape}")
        seen = [h]
        for layer in self.layers:
            h = h @ layer.weights
            h += layer.bias
            _ACT[layer.activation][0](h)
            seen.append(h)
        return h, seen

    def backward(self, seen, d_out: np.ndarray) -> list[np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(output), in ``parameters()``
        order: [dW_0, db_0, dW_1, db_1, ...].  ``seen`` is ``forward_cached``'s;
        each activation's derivative comes from its layer's output ``seen[i + 1]``."""
        grads = [None] * (2 * len(self.layers))
        delta = d_out
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            delta = delta * _ACT[layer.activation][1](seen[i + 1])
            grads[2 * i], grads[2 * i + 1] = seen[i].T @ delta, delta.sum(axis=0)
            if i:
                delta = delta @ layer.weights.T
        return grads

    def parameters(self):
        return [p for layer in self.layers for p in (layer.weights, layer.bias)]

    def to_dict(self) -> dict:
        return {
            "kind": "dense",
            "activations": [l.activation for l in self.layers],
            "weights": [_encode_array(l.weights) for l in self.layers],
            "biases": [_encode_array(l.bias) for l in self.layers],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DenseNet":
        """The network of ``to_dict``'s object; raises ValueError unless ``d`` is an
        object with lists of weights, biases and activations of one length."""
        if not isinstance(d, dict):
            raise ValueError(f"a network must be a JSON object, got {type(d).__name__}")
        sizes = [len(x) if isinstance(x, list) else None
                 for x in (d["weights"], d["biases"], d["activations"])]
        if None in sizes or len(set(sizes)) != 1:
            raise ValueError("a network needs lists of weights, biases and activations of one "
                             f"length, got lengths {sizes}")
        layers = [
            DenseLayer(_decode_array(w), _decode_array(b), act)
            for w, b, act in zip(d["weights"], d["biases"], d["activations"])
        ]
        return cls(layers)


def _encode_array(a: np.ndarray) -> dict:
    """Shape plus little-endian float64 bytes in base64 (exact)."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "f8": base64.b64encode(raw).decode("ascii")}


def _decode_array(d) -> np.ndarray:
    """Inverse of ``_encode_array``; the result is a writable native float64 copy."""
    if not isinstance(d, dict):
        raise ValueError("model weights are stored in the old list format; "
                         "retrain the model to save it in the current format")
    shape = d["shape"]
    if not (isinstance(shape, list) and all(is_number(n) and isinstance(n, int) and n >= 0
                                            for n in shape) and isinstance(d["f8"], str)):
        raise ValueError(f"an array needs a shape list of sizes and an f8 string, got shape "
                         f"{shape!r} and f8 of type {type(d['f8']).__name__}")
    flat = np.frombuffer(base64.b64decode(d["f8"], validate=True), dtype="<f8")
    return flat.reshape(shape).astype(float)  # astype copies: Adam updates in place


def make_dense(rng, dims: list[int], hidden_activation: str) -> DenseNet:
    """He-style uniform fan-in initialization, seeded; the output layer is linear."""
    rng = make_rng(rng)
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        limit = np.sqrt(6.0 / d_in)
        act = "identity" if i == len(dims) - 2 else hidden_activation
        layers.append(DenseLayer(rng.uniform(-limit, limit, (d_in, d_out)), np.zeros(d_out), act))
    return DenseNet(layers)


def r2_score(predictions, targets) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot."""
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(targets, dtype=float).ravel()
    if p.size != t.size:
        raise DimensionMismatch("predictions and targets differ in length")
    if t.size < 2:
        raise ZeroVariance("need at least 2 samples")
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise ZeroVariance("targets have zero variance")
    return 1.0 - float(np.sum((p - t) ** 2)) / ss_tot


@dataclass(frozen=True)
class TrainStage:
    learning_rate: float
    epochs: int
    batch_size: int

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("invalid training stage")


class Adam:
    """Standard Adam over a parameter list."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads, lr: float):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _check_finite(params):
    for p in params:
        if not np.all(np.isfinite(p)):
            raise TrainingDiverged("parameter became NaN/Inf during training")


def _epoch_metrics(pred_tr, y_tr, pred_te, y_te) -> dict:
    """MSE and R^2 on each side of the split that has values; an undefined R^2 (fewer
    than 2 values, or zero variance) is skipped on either side."""
    row = {}
    for side, pred, y in (("train", pred_tr, y_tr), ("test", pred_te, y_te)):
        if len(y):
            row[f"{side}_mse"] = float(np.mean((pred - y) ** 2))
            with contextlib.suppress(ZeroVariance):
                row[f"{side}_r2"] = r2_score(pred, y)
    return row


def _train_staged(params, n_samples: int, batch_grads, epoch_metrics, stages, rng):
    """The staged schedule shared by both models; returns one history row per epoch.

    Each epoch shuffles ``range(n_samples)``, takes one Adam step per minibatch
    of ``batch_size`` training samples with the gradient list
    ``batch_grads(indices)``, ordered as ``params``, and then records
    ``epoch_metrics()``.  ``params`` are updated in place.
    """
    rng = make_rng(rng)
    if n_samples == 0:
        raise EmptyDataset("empty training set")
    opt = Adam(params)
    history = []
    for si, stage in enumerate(stages):
        for _ in range(stage.epochs):
            order = rng.permutation(n_samples)
            for start in range(0, n_samples, stage.batch_size):
                opt.step(batch_grads(order[start : start + stage.batch_size]), stage.learning_rate)
            _check_finite(params)
            history.append({"stage": si, "epoch": len(history) + 1,
                            "learning_rate": stage.learning_rate, **epoch_metrics()})
    return history


def _fit_fingerprint(model: str, stages, split, **extra) -> dict:
    tr, te = split
    return version_fingerprint(model=model, stages=[vars(s).copy() for s in stages],
                               n_train=int(len(tr)), n_test=int(len(te)), **extra)


def history_to_csv(history, path):
    import csv

    cols = ["stage", "epoch", "learning_rate", "train_mse", "test_mse", "train_r2", "test_r2"]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols)
        w.writeheader()
        for row in history:
            w.writerow({c: row.get(c, "") for c in cols})


class _Model:
    """The model file both surrogates share.  A subclass declares its ``KIND``, its
    ``DenseNet`` attributes ``NETS`` and its numeric attributes ``NUMBERS`` as (name,
    integer?) pairs, and its constructor takes the networks, then the numbers, then
    the fingerprint, so one ``to_dict`` and one ``from_dict`` serve every kind."""

    KIND: str
    NETS: tuple[str, ...]
    NUMBERS: tuple[tuple[str, bool], ...]

    def __init__(self, fingerprint: dict | None):
        self.fingerprint = fingerprint or version_fingerprint()

    @staticmethod
    def features(profiles_x, profiles_y) -> np.ndarray:
        """Rows [profile_x, profile_y]: one row for a pair of 1D profiles."""
        if np.ndim(profiles_x) == np.ndim(profiles_y) == 1:
            return np.concatenate((profiles_x, profiles_y))[None]
        return np.concatenate([np.atleast_2d(profiles_x), np.atleast_2d(profiles_y)], axis=1)

    def to_dict(self) -> dict:
        return {"kind": self.KIND, "fingerprint": self.fingerprint,
                **{name: getattr(self, name).to_dict() for name in self.NETS},
                **{name: getattr(self, name) for name, _ in self.NUMBERS}}

    @classmethod
    def from_dict(cls, d: dict):
        """The model of ``to_dict``'s object; raises ValueError naming the first network,
        then the first number, that is malformed (a number must be a JSON number, an
        integer where declared)."""
        nets = [DenseNet.from_dict(d[name]) for name in cls.NETS]
        for key, integer in cls.NUMBERS:
            if not (is_number(d[key]) and (isinstance(d[key], int) or not integer)):
                raise ValueError(f"{key} must be {'an integer' if integer else 'a number'}, "
                                 f"got {d[key]!r}")
        return cls(*nets, *(d[key] for key, _ in cls.NUMBERS), d.get("fingerprint"))


# ---------------------------------------------------------------------------
# stress surrogate
# ---------------------------------------------------------------------------

class StressSurrogate(_Model):
    """Peak-effective-stress regressor over concatenated axis profiles."""

    KIND, NETS = "stress_surrogate", ("net",)
    NUMBERS = (("output_scale", False), ("nx_nodes", True), ("ny_nodes", True))

    def __init__(self, net: DenseNet, output_scale: float, nx_nodes: int, ny_nodes: int,
                 fingerprint: dict | None = None):
        if net.input_dim != nx_nodes + ny_nodes:
            raise DimensionMismatch("network input does not match the profile node counts")
        if net.output_dim != 1:
            raise DimensionMismatch(f"a stress network outputs one value, this one {net.output_dim}")
        self.net = net
        self.output_scale = float(output_scale)
        self.nx_nodes = nx_nodes
        self.ny_nodes = ny_nodes
        super().__init__(fingerprint)

    @classmethod
    def build(cls, rng, nx_nodes: int, ny_nodes: int, output_scale: float) -> "StressSurrogate":
        net = make_dense(rng, [nx_nodes + ny_nodes, 256, 128, 64, 1], "relu")
        return cls(net, output_scale, nx_nodes, ny_nodes)

    def predict(self, profiles_x, profiles_y) -> np.ndarray:
        """Predicted peak effective stress in Pa; raw network output may be
        any real number, consumers must not assume non-negativity."""
        x = self.features(profiles_x, profiles_y)
        return self.net.forward(x)[:, 0] * self.output_scale

    def fit(self, profiles_x, profiles_y, sigma_max, split, stages, rng):
        """Train on scaled targets; ``split`` is (train_idx, test_idx).

        Each step takes the mean squared error of the network output against
        ``sigma_max / output_scale`` over its batch of training samples.
        """
        x = self.features(profiles_x, profiles_y)
        y = (np.asarray(sigma_max, dtype=float) / self.output_scale).reshape(len(x), 1)
        tr, te = split

        def batch_grads(idx):
            rows = tr[idx]
            pred, seen = self.net.forward_cached(x[rows])
            return self.net.backward(seen, 2.0 * (pred - y[rows]) / rows.size)

        def epoch_metrics():
            pred_te = self.net.forward(x[te]) if len(te) else None
            return _epoch_metrics(self.net.forward(x[tr]), y[tr], pred_te, y[te])

        history = _train_staged(self.net.parameters(), len(tr), batch_grads, epoch_metrics,
                                stages, rng)
        self.fingerprint = _fit_fingerprint(self.KIND, stages, split)
        return history


# ---------------------------------------------------------------------------
# branch/trunk operator network
# ---------------------------------------------------------------------------

class OperatorNet(_Model):
    """Temperature-field operator: dot(branch(profiles), trunk(x/L, y/H)).

    Branch and trunk share the latent output dimension; there is no output
    bias, matching the plain dot-product head.  The trunk depends only on the
    points, so its output for the last point set is kept (keyed on the
    points' shape and bytes) until the next ``fit``.
    """

    KIND, NETS = "operator_net", ("branch", "trunk")
    NUMBERS = (("temperature_scale", False), ("L", False), ("H", False))

    def __init__(self, branch: DenseNet, trunk: DenseNet, temperature_scale: float,
                 L: float, H: float, fingerprint: dict | None = None):
        if branch.output_dim != trunk.output_dim:
            raise DimensionMismatch("branch and trunk latent dimensions differ")
        self.branch = branch
        self.trunk = trunk
        self.temperature_scale = float(temperature_scale)
        self.L, self.H = float(L), float(H)
        super().__init__(fingerprint)
        self._trunk_cache = None  # (points key, trunk output) of the last point set

    @classmethod
    def build(cls, rng, nx_nodes: int, ny_nodes: int, L: float, H: float) -> "OperatorNet":
        """Branch then trunk, drawn in that order from ``rng``; latent 250, scale 500."""
        rng = make_rng(rng)
        branch = make_dense(rng, [nx_nodes + ny_nodes, 200, 250], "relu")
        trunk = make_dense(rng, [2, 200, 200, 200, 250], "tanh")
        return cls(branch, trunk, 500.0, L, H)

    def _norm_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.column_stack([pts[:, 0] / self.L, pts[:, 1] / self.H])

    def _trunk_at(self, points) -> np.ndarray:
        """Trunk output (p, c) at ``points``, from the cache when they repeat."""
        pts = np.asarray(points, dtype=float)
        key = (pts.shape, pts.tobytes())
        if self._trunk_cache is None or self._trunk_cache[0] != key:
            self._trunk_cache = (key, self.trunk.forward(self._norm_points(pts)))
        return self._trunk_cache[1]

    def predict(self, profile_x, profile_y, points) -> np.ndarray:
        """Temperatures of ONE profile at many points (branch reused)."""
        f = self.branch.forward(self.features(profile_x, profile_y))  # (1, c)
        return (self._trunk_at(points) @ f[0]) * self.temperature_scale

    def fit(self, profiles_x, profiles_y, temp_grids, points, split, stages, rng):
        """Train on whole samples over the aligned point set; batches count samples.

        ``temp_grids`` is (n_samples, n_points) aligned with ``points``;
        ``split`` is (train sample indices, test sample indices).  Each step
        runs the branch on the batch's B samples and the trunk once on all P
        points, and takes the mean squared error over the (B, P) table
        ``branch @ trunk.T``: the per-pair MSE over every point of those samples.
        """
        self._trunk_cache = None
        feats = self.features(profiles_x, profiles_y)
        targets = np.asarray(temp_grids, dtype=float) / self.temperature_scale
        pts = self._norm_points(points)
        tr, te = split

        def batch_grads(idx):
            rows = tr[idx]
            fb, b_seen = self.branch.forward_cached(feats[rows])
            gt, t_seen = self.trunk.forward_cached(pts)
            resid = fb @ gt.T - targets[rows]
            resid *= 2.0 / resid.size
            return (self.branch.backward(b_seen, resid @ gt)
                    + self.trunk.backward(t_seen, resid.T @ fb))

        def epoch_metrics():
            g = self.trunk.forward(pts).T
            pred_te = self.branch.forward(feats[te]) @ g if len(te) else None
            return _epoch_metrics(self.branch.forward(feats[tr]) @ g, targets[tr],
                                  pred_te, targets[te])

        params = self.branch.parameters() + self.trunk.parameters()
        history = _train_staged(params, len(tr), batch_grads, epoch_metrics, stages, rng)
        self.fingerprint = _fit_fingerprint(self.KIND, stages, split, n_points=len(pts))
        return history


def save_model(model, path):
    """Write ``model.to_dict()`` as sorted-key JSON; every weight and bias array
    is its shape plus its little-endian float64 bytes in base64, so
    ``load_model`` restores it bit for bit."""
    pathlib.Path(path).write_text(json.dumps(model.to_dict(), sort_keys=True))


def load_model(path):
    """The model ``save_model`` wrote to ``path``; a file that holds no valid model raises
    ValueError (a package error keeps its type) naming it, through ``errors.naming``."""
    with naming(path):
        d = json.loads(pathlib.Path(path).read_text())
        if not isinstance(d, dict):
            raise ValueError(f"a model file must hold a JSON object, got {type(d).__name__}")
        for kind in (StressSurrogate, OperatorNet):
            if d["kind"] == kind.KIND:  # ==, not a dict lookup: a kind may be unhashable JSON
                return kind.from_dict(d)
        raise ValueError(f"unknown model kind {d['kind']!r}")


# the operator's shipped schedule; each problem's stress schedule is in problems.PROBLEMS
OPERATOR_STAGES = (  # batches of 4 samples, each over every grid point
    TrainStage(1e-3, 40, 4),
    TrainStage(1e-4, 20, 4),
)
