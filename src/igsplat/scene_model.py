"""Anchor-based scene representation.

Anchors are learnable parent points. Each anchor decodes into a fixed group
of five child splats through small per-attribute MLP heads driven by the
anchor's appearance embedding; all five children share their parent's 6-dim
instance feature bitwise, so semantics are stored once per anchor while
appearance varies per child.

Splats carry a single isotropic world-space radius instead of a full
covariance; the decoder heads are view-independent so decoding is a pure,
deterministic function of (anchors, decoder).

A training step runs each head once: the decoded ``SplatSet`` keeps every
head's hidden layer and output activation, and ``decode_backward`` reads
them instead of running the heads again. It returns gradients only for the
tensors its upstream gradients reach, keyed by tensor name, so a caller
sums what each loss chain returns.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .binio import Reader, pack_f32, pack_u32, read_file, write_atomic
from .errors import DataError, FormatError, UsageError

CHILDREN_PER_ANCHOR = 5
FEATURE_DIM = 6
HIDDEN_WIDTH = 16
DEFAULT_EMBEDDING_DIM = 16

CHECKPOINT_MAGIC = b"IGCK"
CHECKPOINT_VERSION = 1

# Head order is part of the checkpoint layout; do not reorder.
HEAD_ORDER = ("offset", "color", "opacity", "scale")
HEAD_OUTPUT_DIMS = {
    "offset": CHILDREN_PER_ANCHOR * 3,
    "color": CHILDREN_PER_ANCHOR * 3,
    "opacity": CHILDREN_PER_ANCHOR,
    "scale": CHILDREN_PER_ANCHOR,
}


@dataclass
class ModelConfig:
    """Scene-model hyperparameters. ``None`` ranges are derived from the seed
    cloud: offset_range = 2x median nearest-neighbor spacing, base_scale =
    that spacing itself, so defaults track scene density."""

    embedding_dim: int = DEFAULT_EMBEDDING_DIM
    offset_range: float | None = None
    base_scale: float | None = None

    def __post_init__(self):
        if self.embedding_dim < 1:
            raise DataError(f"embedding_dim must be at least 1, got {self.embedding_dim}")


@dataclass
class AnchorSet:
    positions: np.ndarray  # (n, 3) world coordinates
    embeddings: np.ndarray  # (n, d_e) appearance codes
    features: np.ndarray  # (n, 6) shared instance features
    train_positions: bool = True

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        n = self.positions.shape[0]
        if n < 1:
            raise DataError("empty point cloud")
        if self.positions.shape != (n, 3):
            raise DataError(f"positions must be (n, 3), got {self.positions.shape}")
        if not np.isfinite(self.positions).all():
            raise DataError("anchor positions must be finite")
        if self.embeddings.shape[0] != n or self.embeddings.ndim != 2:
            raise DataError("embeddings must be (n, d_e)")
        if self.features.shape != (n, FEATURE_DIM):
            raise DataError(f"features must be (n, {FEATURE_DIM}), got {self.features.shape}")
        if not (np.isfinite(self.embeddings).all() and np.isfinite(self.features).all()):
            raise DataError("anchor embeddings and features must be finite")

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass
class HeadParams:
    """One 2-layer affine network: relu(e @ w1 + b1) @ w2 + b2."""

    w1: np.ndarray  # (d_e, HIDDEN_WIDTH)
    b1: np.ndarray  # (HIDDEN_WIDTH,)
    w2: np.ndarray  # (HIDDEN_WIDTH, out)
    b2: np.ndarray  # (out,)

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


@dataclass
class DecoderParams:
    """Per-attribute decoder heads plus the two scalar ranges they use.

    offset head output is squashed by tanh and scaled by ``offset_range``;
    color and opacity pass through a sigmoid; scale is exponentiated and
    multiplied by ``base_scale``.
    """

    offset_range: float
    base_scale: float
    offset: HeadParams
    color: HeadParams
    opacity: HeadParams
    scale: HeadParams

    def __post_init__(self):
        if not np.isfinite([self.offset_range, self.base_scale]).all():
            raise DataError("offset_range and base_scale must be finite")
        for name in HEAD_ORDER:
            for tensor_name, tensor in self.head(name).tensors().items():
                if not np.isfinite(tensor).all():
                    raise DataError(f"decoder {name}.{tensor_name} must be finite")
        if self.offset_range <= 0 or self.base_scale <= 0:
            raise UsageError("offset_range and base_scale must be positive")

    @property
    def embedding_dim(self) -> int:
        return self.offset.w1.shape[0]

    def head(self, name: str) -> HeadParams:
        return getattr(self, name)


@dataclass
class SplatSet:
    """Decoded child Gaussians: exactly 5 per anchor, features shared with
    the parent anchor bitwise.

    ``activations`` maps each head name to the (hidden layer, activation)
    pair of the decode that made the set, the activation being tanh, sigmoid
    or exp of the head's raw output, one row per anchor; ``decode_backward``
    reads them. ``colors`` and ``opacities`` are views of the sigmoids. A
    hand-built set carries none."""

    centers: np.ndarray  # (n, 3)
    colors: np.ndarray  # (n, 3) in [0, 1]
    opacities: np.ndarray  # (n,) in (0, 1)
    scales: np.ndarray  # (n,) > 0, isotropic world-space radius
    features: np.ndarray  # (n, 6)
    parent: np.ndarray  # (n,) indices into the AnchorSet
    activations: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return self.centers.shape[0]


def median_spacing(points: np.ndarray) -> float:
    """Median nearest-neighbor distance of a point set (1.0 for n < 2)."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] < 2:
        return 1.0
    tree = cKDTree(points)
    dists, _ = tree.query(points, k=2)
    return float(np.median(dists[:, 1]))


def resolve_model_config(config: ModelConfig, seed_points: np.ndarray) -> tuple[int, float, float]:
    """Fill derived defaults: returns (embedding_dim, offset_range, base_scale)."""
    spacing = None
    if config.offset_range is None or config.base_scale is None:
        spacing = median_spacing(seed_points)
    offset_range = config.offset_range if config.offset_range is not None else 2.0 * spacing
    base_scale = config.base_scale if config.base_scale is not None else spacing
    return config.embedding_dim, float(offset_range), float(base_scale)


def init_anchors(seed_points: np.ndarray, config: ModelConfig, rng_seed: int) -> AnchorSet:
    """One anchor per seed point; embeddings ~ U[-0.05, 0.05), features ~ U[0, 1).

    Deterministic given ``rng_seed``: embeddings are drawn before features.
    """
    seed_points = np.asarray(seed_points, dtype=np.float64)
    if seed_points.size == 0:
        raise DataError("empty point cloud")
    if seed_points.ndim != 2 or seed_points.shape[1] != 3:
        raise DataError(f"seed points must be (n, 3), got {seed_points.shape}")
    if not np.isfinite(seed_points).all():
        raise DataError("seed points must be finite")
    n = seed_points.shape[0]
    rng = np.random.default_rng(rng_seed)
    embeddings = rng.uniform(-0.05, 0.05, size=(n, config.embedding_dim))
    features = rng.uniform(0.0, 1.0, size=(n, FEATURE_DIM))
    return AnchorSet(positions=seed_points.copy(), embeddings=embeddings, features=features)


def init_decoder(embedding_dim: int, offset_range: float, base_scale: float, rng_seed: int) -> DecoderParams:
    """Small random init: weights ~ U[-0.2, 0.2), first-layer biases ~
    U[-0.3, 0.3) (keeps relu units diverse), output biases zero. At init the
    decoded splats sit near their anchors with opacity ~ 0.5 and scale ~
    base_scale."""
    rng = np.random.default_rng(rng_seed)
    heads = {}
    for name in HEAD_ORDER:
        out = HEAD_OUTPUT_DIMS[name]
        heads[name] = HeadParams(
            w1=rng.uniform(-0.2, 0.2, size=(embedding_dim, HIDDEN_WIDTH)),
            b1=rng.uniform(-0.3, 0.3, size=HIDDEN_WIDTH),
            w2=rng.uniform(-0.2, 0.2, size=(HIDDEN_WIDTH, out)),
            b2=np.zeros(out),
        )
    return DecoderParams(offset_range=offset_range, base_scale=base_scale, **heads)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _head_forward(embeddings: np.ndarray, head: HeadParams):
    hidden = np.maximum(embeddings @ head.w1 + head.b1, 0.0)
    return hidden, hidden @ head.w2 + head.b2


def decode_gaussians(anchors: AnchorSet, decoder: DecoderParams) -> SplatSet:
    """Decode 5 child splats per anchor. Pure function: identical inputs give
    bitwise-identical outputs. The set keeps each head's hidden layer and
    activation for ``decode_backward``."""
    if decoder.embedding_dim != anchors.embedding_dim:
        raise UsageError(
            f"decoder expects embedding dim {decoder.embedding_dim}, "
            f"anchors carry {anchors.embedding_dim}"
        )
    n = anchors.count
    activations = {}
    for name, activation in (("offset", np.tanh), ("color", _sigmoid), ("opacity", _sigmoid),
                             ("scale", np.exp)):
        hidden, raw = _head_forward(anchors.embeddings, decoder.head(name))
        activations[name] = (hidden, activation(raw))

    offsets = activations["offset"][1].reshape(n, CHILDREN_PER_ANCHOR, 3) * decoder.offset_range
    centers = (anchors.positions[:, None, :] + offsets).reshape(-1, 3)
    colors = activations["color"][1].reshape(-1, 3)
    opacities = activations["opacity"][1].reshape(-1)
    scales = (activations["scale"][1] * decoder.base_scale).reshape(-1)
    features = np.repeat(anchors.features, CHILDREN_PER_ANCHOR, axis=0)
    parent = np.repeat(np.arange(n, dtype=np.int64), CHILDREN_PER_ANCHOR)
    return SplatSet(centers, colors, opacities, scales, features, parent, activations)


def parameters(anchors: AnchorSet, decoder: DecoderParams) -> dict[str, np.ndarray]:
    """Every trained tensor, by the name ``decode_backward`` gives its
    gradient: positions, embeddings, features and decoder.<head>.<tensor>."""
    params = {"positions": anchors.positions, "embeddings": anchors.embeddings,
              "features": anchors.features}
    for name in HEAD_ORDER:
        for tensor_name, tensor in decoder.head(name).tensors().items():
            params[f"decoder.{name}.{tensor_name}"] = tensor
    return params


def decode_backward(
    anchors: AnchorSet,
    decoder: DecoderParams,
    splats: SplatSet,
    d_centers: np.ndarray | None = None,
    d_colors: np.ndarray | None = None,
    d_opacities: np.ndarray | None = None,
    d_scales: np.ndarray | None = None,
    d_features: np.ndarray | None = None,
    embeddings: bool = True,
) -> dict[str, np.ndarray]:
    """Analytic gradients of the decode that made ``splats`` w.r.t. anchors
    and decoder weights, keyed as in ``parameters``.

    Reads the hidden layers and activations ``splats`` carries from
    ``decode_gaussians(anchors, decoder)``, so no head runs again. Only
    the tensors an upstream gradient reaches come back: positions from
    ``d_centers``, features from ``d_features``, a head's four tensors from
    its attribute's gradient, and embeddings from any head reached unless
    ``embeddings`` is unset, which skips their (n, d_e) products; an
    omitted (None) gradient reaches nothing. Child feature gradients sum
    into the parent anchor's feature gradient; child center gradients sum
    into the anchor position gradient.
    """
    n = anchors.count
    if not splats.activations:
        raise UsageError("decode_backward needs a splat set from decode_gaussians; "
                         "this one carries no decode activations")
    if any(a.shape[0] != n for pair in splats.activations.values() for a in pair):
        raise UsageError(f"the splat set's decode activations do not have one row per anchor ({n})")
    e = anchors.embeddings
    grads = {}
    if d_centers is not None:
        grads["positions"] = d_centers.reshape(n, CHILDREN_PER_ANCHOR, 3).sum(axis=1)
    if d_features is not None:
        grads["features"] = d_features.reshape(n, CHILDREN_PER_ANCHOR, FEATURE_DIM).sum(axis=1)

    grad_e = np.zeros((n, anchors.embedding_dim)) if embeddings else None
    upstream = {"offset": d_centers, "color": d_colors, "opacity": d_opacities, "scale": d_scales}
    for name in HEAD_ORDER:
        if upstream[name] is None:
            continue
        head = decoder.head(name)
        hidden, act = splats.activations[name]
        d_raw = upstream[name].reshape(act.shape)
        if name == "offset":
            d_raw = d_raw * decoder.offset_range * (1.0 - act * act)
        elif name == "scale":  # d(base * exp(raw)) = base * exp(raw)
            d_raw = d_raw * act * decoder.base_scale
        else:  # color, opacity: sigmoid
            d_raw = d_raw * act * (1.0 - act)
        d_pre = np.where(hidden > 0.0, d_raw @ head.w2.T, 0.0)
        grads[f"decoder.{name}.w1"] = e.T @ d_pre
        grads[f"decoder.{name}.b1"] = d_pre.sum(axis=0)
        grads[f"decoder.{name}.w2"] = hidden.T @ d_raw
        grads[f"decoder.{name}.b2"] = d_raw.sum(axis=0)
        if embeddings:
            grad_e += d_pre @ head.w1.T
            grads["embeddings"] = grad_e
    return grads


def checkpoint_bytes(anchors: AnchorSet, decoder: DecoderParams) -> bytes:
    """Serialize to the IGCK layout.

    Header: magic 'IGCK', u32 version, u32 n, u32 d_e. Payload (all f32 LE,
    row-major): offset_range, base_scale, positions (n*3), embeddings (n*d_e),
    features (n*6), then per head in offset/color/opacity/scale order:
    w1 (d_e*16), b1 (16), w2 (16*out), b2 (out) with out = 15/15/5/5.
    """
    if decoder.embedding_dim != anchors.embedding_dim:
        raise UsageError("anchor/decoder embedding dims differ")
    parts = [
        CHECKPOINT_MAGIC,
        pack_u32(CHECKPOINT_VERSION, anchors.count, anchors.embedding_dim),
        pack_f32(np.array([decoder.offset_range, decoder.base_scale])),
        pack_f32(anchors.positions),
        pack_f32(anchors.embeddings),
        pack_f32(anchors.features),
    ]
    for name in HEAD_ORDER:
        head = decoder.head(name)
        parts.extend([pack_f32(head.w1), pack_f32(head.b1), pack_f32(head.w2), pack_f32(head.b2)])
    return b"".join(parts)


def save_checkpoint(path: str, anchors: AnchorSet, decoder: DecoderParams) -> None:
    write_atomic(path, checkpoint_bytes(anchors, decoder))


def _checkpoint_from_reader(r: Reader) -> tuple[AnchorSet, DecoderParams]:
    r.expect_magic(CHECKPOINT_MAGIC)
    r.expect_version(CHECKPOINT_VERSION)
    n = r.u32()
    d_e = r.u32()
    if n < 1 or d_e < 1:
        raise FormatError("checkpoint header has zero anchors or embedding dim")
    scalars = r.f32_array(2)
    positions = r.f32_array(n * 3, (n, 3))
    embeddings = r.f32_array(n * d_e, (n, d_e))
    features = r.f32_array(n * FEATURE_DIM, (n, FEATURE_DIM))
    heads = {}
    for name in HEAD_ORDER:
        out = HEAD_OUTPUT_DIMS[name]
        heads[name] = HeadParams(
            w1=r.f32_array(d_e * HIDDEN_WIDTH, (d_e, HIDDEN_WIDTH)),
            b1=r.f32_array(HIDDEN_WIDTH),
            w2=r.f32_array(HIDDEN_WIDTH * out, (HIDDEN_WIDTH, out)),
            b2=r.f32_array(out),
        )
    r.done()
    anchors = AnchorSet(positions=positions, embeddings=embeddings, features=features)
    decoder = DecoderParams(offset_range=float(scalars[0]), base_scale=float(scalars[1]), **heads)
    return anchors, decoder


def load_checkpoint(path: str) -> tuple[AnchorSet, DecoderParams]:
    return _checkpoint_from_reader(read_file(path))
