import json

import numpy as np
import pytest

from igsplat import scene_model, trainer
from igsplat.errors import NumericalError, UsageError
from igsplat.losses import loss_contrast_truncated, loss_smooth
from igsplat.renderer import render, render_backward
from igsplat.scene_model import (
    ModelConfig,
    checkpoint_bytes,
    decode_gaussians,
    init_anchors,
    init_decoder,
    resolve_model_config,
)
from igsplat.trainer import (
    Phase,
    Schedule,
    TrainState,
    TrainView,
    adam_update,
    phase_of_step,
    train,
    train_step,
)

from helpers import parameter_digest


def default_schedule(**kwargs):
    return Schedule.default(30000, **kwargs)


def test_phase_boundaries_follow_thirds():
    sched = default_schedule()
    assert sched.t1 == 10000 and sched.t2 == 20000
    assert phase_of_step(0, sched) is Phase.APPEARANCE
    assert phase_of_step(9999, sched) is Phase.APPEARANCE
    assert phase_of_step(10000, sched) is Phase.INDEPENDENT
    assert phase_of_step(19999, sched) is Phase.INDEPENDENT
    assert phase_of_step(20000, sched) is Phase.JOINT
    assert phase_of_step(29999, sched) is Phase.JOINT


def test_phase_partition_covers_every_step():
    sched = Schedule(total_steps=90, t1=30, t2=60)
    phases = [phase_of_step(s, sched) for s in range(90)]
    assert phases.count(Phase.APPEARANCE) == 30
    assert phases.count(Phase.INDEPENDENT) == 30
    assert phases.count(Phase.JOINT) == 30


def test_phase_of_step_range_errors():
    sched = Schedule(total_steps=90, t1=30, t2=60)
    with pytest.raises(UsageError):
        phase_of_step(-1, sched)
    with pytest.raises(UsageError):
        phase_of_step(90, sched)


def test_schedule_validation():
    with pytest.raises(UsageError):
        Schedule(total_steps=10, t1=0, t2=5)
    with pytest.raises(UsageError):
        Schedule(total_steps=10, t1=6, t2=5)
    with pytest.raises(UsageError):
        Schedule(total_steps=10, t1=2, t2=11)
    with pytest.raises(UsageError):
        Schedule(total_steps=10, t1=3, t2=7, mode="sideways")
    Schedule(total_steps=0, t1=0, t2=0)  # degenerate no-op schedule allowed


def test_per_phase_learning_rate_override():
    sched = Schedule(total_steps=90, t1=30, t2=60,
                     phase_learning_rates={"joint": {"features": 0.5}})
    assert sched.rates_for(Phase.INDEPENDENT)["features"] == pytest.approx(1e-2)
    assert sched.rates_for(Phase.JOINT)["features"] == 0.5


def setup_training(tiny_scene, **sched_kwargs):
    model = ModelConfig(base_scale=0.06)
    d_e, rho, s0 = resolve_model_config(model, tiny_scene["points"])
    anchors = init_anchors(tiny_scene["points"], model, 7)
    decoder = init_decoder(d_e, rho, s0, 8)
    anchors.train_positions = False
    sched = Schedule(total_steps=60, t1=20, t2=40, **sched_kwargs)
    return anchors, decoder, sched


def test_appearance_phase_leaves_features_untouched(tiny_scene):
    anchors, decoder, sched = setup_training(tiny_scene)
    state = TrainState.create(0)
    before = anchors.features.tobytes()
    embeddings_before = anchors.embeddings.tobytes()
    for _ in range(sched.t1):
        train_step(anchors, decoder, tiny_scene["views"], sched, state)
    assert anchors.features.tobytes() == before  # bitwise across the phase
    assert anchors.embeddings.tobytes() != embeddings_before


def test_independent_phase_severs_feature_losses_from_color_head(tiny_scene):
    anchors, decoder, sched = setup_training(tiny_scene)
    state = TrainState.create(0)
    state.step = sched.t1  # jump straight into the independent phase
    # make the reconstruction gradient vanish: target := current render
    splats = decode_gaussians(anchors, decoder)
    views = [
        TrainView(v.camera, render(splats, v.camera).color, v.masks)
        for v in tiny_scene["views"]
    ]
    color_before = checkpoint_head_bytes(decoder, "color")
    opacity_before = checkpoint_head_bytes(decoder, "opacity")
    features_before = anchors.features.tobytes()
    train_step(anchors, decoder, views, sched, state)
    assert checkpoint_head_bytes(decoder, "color") == color_before
    assert checkpoint_head_bytes(decoder, "opacity") == opacity_before
    assert anchors.features.tobytes() != features_before


def checkpoint_head_bytes(decoder, name):
    head = decoder.head(name)
    return b"".join(t.tobytes() for t in (head.w1, head.b1, head.w2, head.b2))


def test_joint_phase_moves_offset_and_opacity_heads_not_color(tiny_scene):
    anchors, decoder, sched = setup_training(tiny_scene)
    state = TrainState.create(0)
    state.step = sched.t2  # joint phase
    splats = decode_gaussians(anchors, decoder)
    views = [
        TrainView(v.camera, render(splats, v.camera).color, v.masks)
        for v in tiny_scene["views"]
    ]
    color_before = checkpoint_head_bytes(decoder, "color")
    offset_before = checkpoint_head_bytes(decoder, "offset")
    opacity_before = checkpoint_head_bytes(decoder, "opacity")
    scale_before = checkpoint_head_bytes(decoder, "scale")
    embeddings_before = anchors.embeddings.tobytes()
    train_step(anchors, decoder, views, sched, state)
    # zero rgb gradients, so color/scale heads and embeddings stay put while
    # feature losses still drive the offset and opacity heads
    assert checkpoint_head_bytes(decoder, "color") == color_before
    assert checkpoint_head_bytes(decoder, "scale") == scale_before
    assert checkpoint_head_bytes(decoder, "offset") != offset_before
    assert checkpoint_head_bytes(decoder, "opacity") != opacity_before
    assert anchors.embeddings.tobytes() == embeddings_before


@pytest.mark.parametrize("mode", ["progressive", "appearance_frozen"])
def test_one_render_backward_per_step(tiny_scene, monkeypatch, mode):
    calls = []

    def counting_backward(out, grad_color=None, grad_feature=None, feature_geometry=False):
        calls.append((grad_color is not None, grad_feature is not None, feature_geometry))
        return render_backward(out, grad_color, grad_feature, feature_geometry)

    monkeypatch.setattr(trainer, "render_backward", counting_backward)
    anchors, decoder, _ = setup_training(tiny_scene)
    sched = Schedule(total_steps=6, t1=2, t2=4, mode=mode)
    state = train(anchors, decoder, tiny_scene["views"], sched, seed=0)
    assert len(calls) == len(state.loss_log) == 6
    phases = [row[1] for row in state.loss_log]
    assert phases == ["appearance"] * 2 + ["independent"] * 2 + ["joint"] * 2
    for phase, (has_color, has_feature, feature_geometry) in zip(phases, calls):
        assert has_color == (mode == "progressive" or phase == "appearance")
        assert has_feature == (phase != "appearance")
        assert feature_geometry == (mode == "progressive" and phase == "joint")


@pytest.mark.parametrize("mode", ["progressive", "appearance_frozen"])
def test_four_head_forwards_per_step(tiny_scene, monkeypatch, mode):
    # the step's decode runs each head once; its backwards read the activations
    calls = []
    head_forward = scene_model._head_forward

    def counting_forward(embeddings, head):
        calls.append(head)
        return head_forward(embeddings, head)

    monkeypatch.setattr(scene_model, "_head_forward", counting_forward)
    anchors, decoder, _ = setup_training(tiny_scene)
    sched = Schedule(total_steps=6, t1=2, t2=4, mode=mode)
    state = TrainState.create(0)
    for step in range(6):
        calls.clear()
        train_step(anchors, decoder, tiny_scene["views"], sched, state)
        assert len(calls) == 4, (step, len(calls))


def test_training_is_deterministic(tiny_scene):
    # the float32 checkpoint and the float64 parameters, which it rounds
    outputs = []
    for _ in range(2):
        anchors, decoder, sched = setup_training(tiny_scene)
        train(anchors, decoder, tiny_scene["views"], sched, seed=13)
        outputs.append((checkpoint_bytes(anchors, decoder), parameter_digest(anchors, decoder)))
    assert outputs[0] == outputs[1]


def test_zero_step_training_keeps_initialization(tiny_scene, tmp_path):
    anchors, decoder, _ = setup_training(tiny_scene)
    before = checkpoint_bytes(anchors, decoder)
    sched = Schedule(total_steps=0, t1=0, t2=0)
    train(anchors, decoder, tiny_scene["views"], sched, seed=0, out_dir=str(tmp_path))
    assert checkpoint_bytes(anchors, decoder) == before
    assert (tmp_path / "checkpoint.igck").read_bytes() == before


def test_training_reduces_rgb_loss(tiny_scene):
    anchors, decoder, sched = setup_training(tiny_scene)
    state = train(anchors, decoder, tiny_scene["views"], sched, seed=3)
    first = state.loss_log[0][2]
    last_phase_losses = [row[2] for row in state.loss_log[-10:]]
    assert np.mean(last_phase_losses) < first


def test_truncation_inactive_at_init_matches_unbounded(tiny_scene):
    # freshly initialized mask-mean features sit within tau of each other,
    # so the truncated and unbounded losses coincide on the first step
    anchors, decoder, _ = setup_training(tiny_scene)
    splats = decode_gaussians(anchors, decoder)
    view = tiny_scene["views"][0]
    out = render(splats, view.camera)
    _, _, means, _, present = loss_smooth(out.feature, view.masks)
    d2 = ((means[present][:, None] - means[present][None, :]) ** 2).sum(-1)
    assert d2.max() < 0.4
    truncated, _, _ = loss_contrast_truncated(means[present], 0.4)
    unbounded, _, _ = loss_contrast_truncated(means[present], np.inf)
    assert truncated == unbounded


def test_adam_single_step_closed_form():
    rng = np.random.default_rng(0)
    param = rng.normal(size=(4, 3))
    grad = rng.normal(size=(4, 3))
    expected = param - 0.01 * grad / (np.abs(grad) + 1e-8)  # bias-corrected t=1
    slot = [np.zeros_like(param), np.zeros_like(param), 0]
    adam_update(param, grad, slot, lr=0.01)
    assert np.allclose(param, expected, atol=1e-7)


def test_adam_two_steps_match_reference():
    param = np.array([1.0])
    g1, g2 = np.array([0.3]), np.array([-0.2])
    slot = [np.zeros(1), np.zeros(1), 0]
    adam_update(param, g1, slot, lr=0.1)
    adam_update(param, g2, slot, lr=0.1)

    # independent reference implementation
    m = v = 0.0
    p = 1.0
    for t, g in enumerate([0.3, -0.2], start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        p -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert param[0] == pytest.approx(p, abs=1e-12)


def test_adam_in_place_keeps_the_formula_bits():
    # the in-place update against the formula written out with fresh
    # arrays: the parameter and both moments byte for byte, 50 steps on
    # four shapes, gradients over nine orders of magnitude
    rng = np.random.default_rng(3)
    b1, b2, eps, lr = trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPS, 1e-2
    for shape in ((7,), (5, 3), (64, 6), (2, 16, 5)):
        param = rng.normal(size=shape)
        want, m, v = param.copy(), np.zeros(shape), np.zeros(shape)
        slot = [np.zeros(shape), np.zeros(shape), 0]
        for t in range(1, 51):
            grad = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
            adam_update(param, grad, slot, lr)
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + (1.0 - b2) * grad * grad
            want -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            assert slot[2] == t
            for got, ref in ((param, want), (slot[0], m), (slot[1], v)):
                assert got.tobytes() == ref.tobytes(), (shape, t)


def test_non_finite_loss_aborts_with_dump(tiny_scene, tmp_path):
    anchors, decoder, sched = setup_training(tiny_scene)
    state = TrainState.create(0)
    views = [TrainView(v.camera, np.full_like(v.target, np.nan), v.masks)
             for v in tiny_scene["views"]]
    with pytest.raises(NumericalError, match="non-finite"):
        train_step(anchors, decoder, views, sched, state, dump_dir=str(tmp_path))
    dump = json.loads((tmp_path / "abort_dump.json").read_text())
    assert dump["step"] == 0 and dump["phase"] == "appearance"


def test_train_writes_loss_log(tiny_scene, tmp_path):
    anchors, decoder, sched = setup_training(tiny_scene)
    train(anchors, decoder, tiny_scene["views"], sched, seed=1, out_dir=str(tmp_path))
    lines = (tmp_path / "loss_log.csv").read_text().strip().splitlines()
    assert lines[0] == "step,phase,l_rgb,l_smooth,l_contrast"
    assert len(lines) == 61
    assert lines[1].startswith("0,appearance,")
    assert lines[21].startswith("20,independent,")
    assert lines[41].startswith("40,joint,")
