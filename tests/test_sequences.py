import re

import numpy as np
import pytest

from rspo_lab.sequences import MASKED_TOKEN, Sequence, left_pad


class TestValidation:
    def test_empty_completion_rejected(self):
        for completion in ([], np.zeros((2, 0), dtype=np.int64), 3):
            with pytest.raises(ValueError, match="at least one token"):
                Sequence([1], completion)

    def test_scalar_prompt_rejected(self):
        # an empty prompt is [], and a 0-d one has no width to read
        with pytest.raises(ValueError, match="^prompt "):
            Sequence(5, [1, 2])

    def test_leading_axes_mismatch_rejected(self):
        with pytest.raises(ValueError, match="leading axes"):
            Sequence([[1], [2]], [[1, 2], [3, 4], [5, 6]])

    @pytest.mark.parametrize("prompt,completion", [
        ([1], [3, -2, 5]),
        ([1, -5], [3, 4]),
        ([[-1, 2], [-3, 2]], [[0], [1]]),
    ])
    def test_ids_below_the_mask_rejected(self, prompt, completion):
        with pytest.raises(ValueError, match="token ids"):
            Sequence(prompt, completion)

    @pytest.mark.parametrize("prompt,completion,field,bad", [
        ([0.0, 1.9], [2, 3], "prompt", "1.9"),
        ([0, 1], [2.5, -0.5], "completion", "2.5"),
        ([1], [3.0, -0.5], "completion", "-0.5"),
        ([np.nan], [1], "prompt", "nan"),
        ([1], [[1.0], [np.inf]], "completion", "inf"),
        ([1e30], [1], "prompt", "1e+30"),
    ])
    def test_non_integer_ids_rejected(self, prompt, completion, field, bad):
        # casting to int64 truncated them: -0.5 became token 0
        with pytest.raises(ValueError, match=f"^{field} token ids must be integers, got {re.escape(bad)}$"):
            Sequence(np.array(prompt), np.array(completion))

    def test_integer_valued_floats_and_empty_prompts_load(self):
        seq = Sequence(np.array([0.0, 3.0]), np.array([2.0, -1.0]))
        assert seq.prompt.dtype == seq.completion.dtype == np.int64
        assert seq.prompt.tolist() == [0, 3] and seq.completion.tolist() == [2, -1]
        assert Sequence([], [1]).prompt.shape == (0,)
        assert left_pad([[], [1.0, 2.0]]).tolist() == [[-1, -1], [1, 2]]
        with pytest.raises(ValueError, match="^prompt token ids must be integers"):
            left_pad([[1.5]])

    def test_int64_ids_are_held_without_a_copy(self):
        prompt, completion = np.array([1, 2]), np.array([[3], [-1]])
        seq = Sequence(prompt, completion)
        assert seq.prompt is prompt and seq.completion is completion

    def test_no_mask_flag_argument(self):
        with pytest.raises(TypeError):
            Sequence([1], [1, 2, 3], [False, True, False])


class TestMaskMark:
    def test_masked_is_the_minus_one_entries(self):
        seq = Sequence([1], [4, MASKED_TOKEN, 2])
        assert seq.masked.tolist() == [False, True, False]
        assert not seq.is_clean()
        assert Sequence([1], [4, 0, 2]).is_clean()

    def test_masked_is_read_only(self):
        seq = Sequence([1], [4, 0, 2])
        with pytest.raises(ValueError):
            seq.masked[0] = True
        assert seq.is_clean()

    def test_with_masked_writes_the_mark(self):
        seq = Sequence([1], [4, 0, 2]).with_masked([0, 2])
        assert seq.completion.tolist() == [MASKED_TOKEN, 0, MASKED_TOKEN]
        assert seq.masked.tolist() == [True, False, True]

    def test_with_masked_requires_a_clean_sequence(self):
        # masking a corrupted sequence again would keep its old -1 entries
        seq = Sequence([1], [4, 0, 2]).with_masked([0])
        with pytest.raises(ValueError, match="clean"):
            seq.with_masked([2])
        with pytest.raises(ValueError, match="clean"):
            seq.with_masked([])

    def test_with_masked_masks_each_completion_of_a_stack(self):
        stack = Sequence([1], [[1, 2, 3], [4, 5, 6]]).with_masked([0])
        assert stack.completion.tolist() == [[MASKED_TOKEN, 2, 3], [MASKED_TOKEN, 5, 6]]

    @pytest.mark.parametrize("positions", [[3], [-1], [0, 5]])
    def test_positions_outside_the_completion_rejected(self, positions):
        with pytest.raises(ValueError, match="outside completion range"):
            Sequence([1], [4, 0, 2]).with_masked(positions)

    def test_with_masked_leaves_the_original(self):
        seq = Sequence([1], [4, 0, 2])
        seq.with_masked([1])
        assert seq.completion.tolist() == [4, 0, 2]


def test_copy_is_independent():
    seq = Sequence([1, 2], [4, 0, 2])
    dup = seq.copy()
    dup.prompt[0] = 3
    dup.completion[1] = MASKED_TOKEN
    assert seq.prompt.tolist() == [1, 2]
    assert seq.completion.tolist() == [4, 0, 2]


def test_left_pad_right_aligns_each_prompt():
    padded = left_pad([np.array([1, 2, 3]), np.array([4]), np.array([], dtype=np.int64)])
    assert padded.dtype == np.int64
    assert padded.tolist() == [[1, 2, 3], [-1, -1, 4], [-1, -1, -1]]
    stack = Sequence(padded, [[0], [1], [2]])
    assert stack.prompt_len == 3 and stack.total_len == 4
