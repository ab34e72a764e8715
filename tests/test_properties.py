"""Property tests: reward totality, the token codec and the checkpoint codec."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspo_lab import harness
from rspo_lab.denoiser import init_params
from rspo_lab.harness import params_from_bytes, params_to_bytes
from rspo_lab.tasks import (
    LAB_CHARS,
    decode_tokens,
    encode_text,
    gen_arith,
    gen_countdown,
    gen_sudoku4,
    reward,
    sudoku4_partial_credit,
)

INSTANCES = [gen(np.random.default_rng(0)) for gen in (gen_arith, gen_countdown, gen_sudoku4)]
#: every grader with an instance it grades: ``reward`` per task, then partial credit
GRADERS = [(reward, inst) for inst in INSTANCES] + [(sudoku4_partial_credit, INSTANCES[2])]


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), st.text(alphabet="0123456789 ", min_size=16)),
       which=st.sampled_from(range(len(GRADERS))))
def test_reward_is_total(text, which):
    grade, inst = GRADERS[which]
    r = grade(inst, text)
    assert math.isfinite(r) and 0.0 <= r <= 1.0


@settings(deadline=None)
@given(run=st.integers(4301, 20000), lead=st.sampled_from(["", "x", "0"]))
def test_long_digit_runs_score(run, lead):
    inst = INSTANCES[0]
    answer = str(inst.payload["answer"])
    assert reward(inst, lead + "1" * run) == 0.0
    assert reward(inst, "0" * run + answer + "?") == 1.0


@given(text=st.text(alphabet=LAB_CHARS))
def test_encode_decode_round_trip(text):
    assert decode_tokens(encode_text(text)) == text


@st.composite
def models(draw):
    return init_params(draw(st.integers(1, 6)), window=draw(st.integers(1, 3)),
                       hidden=draw(st.integers(1, 5)), embed_dim=draw(st.integers(1, 4)),
                       n_positions=draw(st.integers(1, 8)), seed=draw(st.integers(0, 2**32)),
                       scale=draw(st.floats(1e-3, 10.0)))


@given(params=models())
def test_params_bytes_round_trip(params):
    blob = params_to_bytes(params)
    loaded, end = params_from_bytes(blob)
    assert end == len(blob)
    assert np.array_equal(loaded.theta, params.theta)
    assert params_to_bytes(loaded) == blob


@settings(deadline=None)
@given(params=models(), step=st.integers(0, 2**40), data=st.data())
def test_every_checkpoint_truncation_rejected(tmp_path_factory, params, step, data):
    state = harness.TrainState(params=params, ref_params=params.copy(),
                               m=np.zeros_like(params.theta), v=np.ones_like(params.theta),
                               step=step)
    path = tmp_path_factory.getbasetemp() / "checkpoint.bin"
    harness.save_checkpoint(path, state, harness.RunConfig())
    blob = path.read_bytes()
    assert harness.load_checkpoint(path).step == step
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(ValueError):
        harness.load_checkpoint(path)
