"""Progressive appearance/feature training over a view set.

The schedule has three phases:

* appearance (step < t1): the reconstruction loss updates embeddings, all
  decoder heads, and anchor positions; instance features stay untouched.
* independent (t1 <= step < t2): additionally, the mask-driven feature
  losses update the instance features only -- their gradients into geometry
  and appearance are severed.
* joint (step >= t2): feature losses may also move geometry (anchor
  positions, the offset and opacity heads); the color head keeps receiving
  only reconstruction gradients, and embeddings are never driven by feature
  losses.

An "appearance_frozen" schedule mode replaces the last two phases with
feature-only training (appearance stays at its t1 state), which is the
non-progressive baseline used for ablations.

Updates use adaptive moment estimation with per-tensor moment buffers and
step counts; one view is drawn uniformly (seeded) per step, so a fixed seed
reproduces checkpoints bit for bit.
"""
from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .binio import write_atomic_text
from .errors import ContributionBudgetError, NumericalError, UsageError
from .losses import (
    LossReport,
    MaskView,
    loss_contrast_truncated,
    loss_rgb,
    loss_smooth,
    spread_mean_gradient,
)
from .renderer import Camera, render, render_backward
from .scene_model import (
    AnchorSet,
    DecoderParams,
    decode_backward,
    decode_gaussians,
    parameters,
    save_checkpoint,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

DEFAULT_LEARNING_RATES = {
    "features": 1e-2,
    "embeddings": 2e-3,
    "decoder": 2e-3,
    "positions": 2e-4,
}

PROGRESSIVE = "progressive"
APPEARANCE_FROZEN = "appearance_frozen"


class Phase(enum.Enum):
    APPEARANCE = "appearance"
    INDEPENDENT = "independent"
    JOINT = "joint"


@dataclass
class Schedule:
    total_steps: int
    t1: int
    t2: int
    lambda_smooth: float = 1.0
    lambda_contrast: float = 0.1
    tau: float = 0.4
    learning_rates: dict = field(default_factory=lambda: dict(DEFAULT_LEARNING_RATES))
    # optional per-phase overrides, e.g. {"joint": {"features": 2e-2}};
    # rates stay constant within a phase
    phase_learning_rates: dict = field(default_factory=dict)
    mode: str = PROGRESSIVE

    def __post_init__(self):
        if self.total_steps < 0:
            raise UsageError("total_steps must be non-negative")
        if self.mode not in (PROGRESSIVE, APPEARANCE_FROZEN):
            raise UsageError(f"unknown schedule mode {self.mode!r}")
        if self.total_steps == 0:
            return  # degenerate no-op schedule; phases never queried
        if not (0 < self.t1 < self.t2 <= self.total_steps):
            raise UsageError(
                f"phase boundaries must satisfy 0 < t1 < t2 <= total, "
                f"got t1={self.t1}, t2={self.t2}, total={self.total_steps}"
            )

    @classmethod
    def default(cls, total_steps: int, **kwargs) -> "Schedule":
        return cls(
            total_steps=total_steps,
            t1=total_steps // 3,
            t2=2 * total_steps // 3,
            **kwargs,
        )

    def rates_for(self, phase: "Phase") -> dict:
        rates = dict(self.learning_rates)
        rates.update(self.phase_learning_rates.get(phase.value, {}))
        return rates


def phase_of_step(step: int, schedule: Schedule) -> Phase:
    if not 0 <= step < schedule.total_steps:
        raise UsageError(f"step {step} outside [0, {schedule.total_steps})")
    if step < schedule.t1:
        return Phase.APPEARANCE
    if step < schedule.t2:
        return Phase.INDEPENDENT
    return Phase.JOINT


@dataclass
class TrainView:
    camera: Camera
    target: np.ndarray  # (H, W, 3)
    masks: MaskView


@dataclass
class TrainState:
    rng: np.random.Generator
    step: int = 0
    moments: dict = field(default_factory=dict)  # name -> [m, v, t]
    loss_log: list = field(default_factory=list)

    @classmethod
    def create(cls, seed: int) -> "TrainState":
        return cls(rng=np.random.default_rng(seed))


def adam_update(param: np.ndarray, grad: np.ndarray, slot: list, lr: float) -> None:
    """One adaptive-moment step, in place. ``slot`` is the mutable
    [first moment, second moment, step count] buffer for this tensor.

    The moments update in their arrays, m = b1 m + (1 - b1) g and
    v = b2 v + (1 - b2) g g, and param -= lr m_hat / (sqrt(v_hat) + eps)
    with m_hat = m / (1 - b1^t) and v_hat = v / (1 - b2^t): the
    element-wise operations of that formula written out, in its order,
    so the same bits. A call allocates two arrays of the parameter's
    size, the step's numerator and denominator.
    """
    m, v = slot[0], slot[1]
    work = np.multiply(grad, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += work
    np.multiply(grad, 1.0 - ADAM_BETA2, out=work)
    work *= grad
    v *= ADAM_BETA2
    v += work
    slot[2] += 1
    np.divide(v, 1.0 - ADAM_BETA2 ** slot[2], out=work)
    np.sqrt(work, out=work)
    work += ADAM_EPS
    step = np.divide(m, 1.0 - ADAM_BETA1 ** slot[2])
    step *= lr
    step /= work
    param -= step


def _slot(state: TrainState, name: str, shape) -> list:
    if name not in state.moments:
        state.moments[name] = [np.zeros(shape), np.zeros(shape), 0]
    return state.moments[name]


def _apply(state: TrainState, name: str, param: np.ndarray, grad: np.ndarray, lr: float) -> None:
    adam_update(param, grad, _slot(state, name, param.shape), lr)


def _dump_abort(out_dir: str | None, **payload) -> str:
    """Write ``payload`` to abort_dump.json in ``out_dir``, if one is given;
    the note naming the file for the error message, else ''."""
    if out_dir is None:
        return ""
    path = os.path.join(out_dir, "abort_dump.json")
    write_atomic_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return f" (dump: {path})"


def train_step(
    anchors: AnchorSet,
    decoder: DecoderParams,
    views: list[TrainView],
    schedule: Schedule,
    state: TrainState,
    dump_dir: str | None = None,
) -> LossReport:
    """One optimization step on a uniformly drawn view.

    Mutates ``anchors``, ``decoder``, and ``state``; returns the losses of
    the step. Aborts with a diagnostic dump if the view makes more
    contributions than the renderer's budget or any loss turns non-finite.
    """
    step = state.step
    phase = phase_of_step(step, schedule)
    view_index = int(state.rng.integers(len(views)))
    view = views[view_index]
    lrs = schedule.rates_for(phase)

    splats = decode_gaussians(anchors, decoder)
    try:
        out = render(splats, view.camera)
    except ContributionBudgetError as exc:
        where = _dump_abort(dump_dir, step=step, phase=phase.value, view=view_index,
                            contributions=exc.contributions, budget=exc.budget)
        raise ContributionBudgetError(f"{exc} at step {step}{where}", exc.contributions,
                                      exc.budget) from exc

    l_rgb, g_rgb = loss_rgb(out.color, view.target)
    l_smooth, g_smooth_img, means, counts, present = loss_smooth(out.feature, view.masks)
    l_contrast, g_means_present, degenerate = loss_contrast_truncated(
        means[present], schedule.tau
    )
    report = LossReport(
        l_rgb=l_rgb,
        l_smooth=l_smooth,
        l_contrast=l_contrast,
        mask_means=means,
        degenerate_pairs=degenerate,
    )
    if not np.isfinite([l_rgb, l_smooth, l_contrast]).all():
        where = _dump_abort(dump_dir, step=step, phase=phase.value, view=view_index,
                            l_rgb=float(l_rgb), l_smooth=float(l_smooth),
                            l_contrast=float(l_contrast), degenerate_pairs=degenerate)
        raise NumericalError(f"non-finite loss at step {step}{where}")

    rgb_active = schedule.mode == PROGRESSIVE or phase is Phase.APPEARANCE
    feature_active = phase is not Phase.APPEARANCE
    joint_active = schedule.mode == PROGRESSIVE and phase is Phase.JOINT

    # Feature gradient: smoothness pulls pixels toward their (stop-gradient)
    # mask mean; the contrastive term flows through the means into the image.
    g_feat_img = None
    if feature_active:
        g_feat_img = schedule.lambda_smooth * g_smooth_img
        if g_means_present.size:
            g_means = np.zeros_like(means)
            g_means[present] = schedule.lambda_contrast * g_means_present
            g_feat_img = g_feat_img + spread_mean_gradient(view.masks, g_means, counts)

    # One backward pass, two chains: color gradients reach embeddings, every
    # decoder head, and anchor positions; feature gradients reach the
    # features, and geometry only in the joint phase.
    sg, sgf = render_backward(
        out,
        grad_color=g_rgb if rgb_active else None,
        grad_feature=g_feat_img,
        feature_geometry=joint_active,
    )
    chains = []
    if rgb_active:
        chains.append(decode_backward(anchors, decoder, splats, d_centers=sg.centers,
                                      d_colors=sg.colors, d_opacities=sg.opacities,
                                      d_scales=sg.scales))
    if feature_active:
        geometry = {"d_centers": sgf.centers, "d_opacities": sgf.opacities} if joint_active else {}
        # embeddings follow reconstruction only, so this chain skips their gradient
        chains.append(decode_backward(anchors, decoder, splats, d_features=sgf.features,
                                      embeddings=False, **geometry))

    # Single adaptive-moment update per tensor, on the sum of what each chain
    # reached, the color chain's gradient first.
    grads = {}
    for chain in chains:
        for name, grad in chain.items():
            grads[name] = grads[name] + grad if name in grads else grad
    params = parameters(anchors, decoder)
    for name, grad in grads.items():
        if name != "positions" or anchors.train_positions:
            _apply(state, name, params[name], grad, lrs[name.split(".")[0]])

    state.step += 1
    state.loss_log.append((step, phase.value, l_rgb, l_smooth, l_contrast))
    return report


def train(
    anchors: AnchorSet,
    decoder: DecoderParams,
    views: list[TrainView],
    schedule: Schedule,
    seed: int,
    out_dir: str | None = None,
) -> TrainState:
    """Run the full schedule; writes checkpoint.igck and loss_log.csv when
    ``out_dir`` is given. Deterministic for fixed inputs and seed."""
    if not views and schedule.total_steps > 0:
        raise UsageError("training needs at least one view")
    state = TrainState.create(seed)
    for _ in range(schedule.total_steps):
        train_step(anchors, decoder, views, schedule, state, dump_dir=out_dir)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "checkpoint.igck"), anchors, decoder)
        write_loss_log(os.path.join(out_dir, "loss_log.csv"), state)
    return state


def write_loss_log(path: str, state: TrainState) -> None:
    rows = ["step,phase,l_rgb,l_smooth,l_contrast"]
    for step, phase, l_rgb, l_smooth, l_contrast in state.loss_log:
        rows.append(f"{step},{phase},{l_rgb!r},{l_smooth!r},{l_contrast!r}")
    write_atomic_text(path, "\n".join(rows) + "\n")
