import hashlib

import numpy as np
import pytest

from rspo_lab.oracle import countdown_solvable, sudoku4_solutions_by_enumeration
from rspo_lab.tasks import (
    LAB_CHARS,
    MASK_CHAR,
    MASK_ID,
    VOCAB_SIZE,
    RewardSpec,
    TaskInstance,
    clean_sequence,
    count_sudoku4_solutions,
    decode_tokens,
    encode_text,
    gen_arith,
    gen_countdown,
    gen_sudoku4,
    reward,
    reward_arith,
    reward_countdown,
    reward_sudoku4,
    split_by_solution,
    valid_sudoku4,
)


class TestVocab:
    def test_size_and_mask(self):
        assert VOCAB_SIZE == 21
        assert MASK_ID == 20

    def test_token_order(self):
        # token ids index every checkpoint's embedding rows: a reordered
        # alphabet would still round-trip, so pin the ids themselves
        assert np.array_equal(encode_text(LAB_CHARS), np.arange(MASK_ID))
        assert decode_tokens(np.arange(VOCAB_SIZE)) == LAB_CHARS + MASK_CHAR

    def test_round_trip(self):
        text = "12+3*(4-5)/6=?\n "
        assert decode_tokens(encode_text(text)) == text

    def test_mask_never_encodes(self):
        with pytest.raises(KeyError):
            encode_text("<mask>")  # '<' is not a lab character either

    def test_decode_handles_mask_and_garbage(self):
        assert decode_tokens([0, MASK_ID, 99]) == "0~~"


class TestCountdown:
    def test_instances_match_recorded_digest(self):
        # prompts and payloads of 200 draws from one generator: the draws,
        # their order and the prompts never drift
        rng = np.random.default_rng(0)
        digest = hashlib.sha256()
        for _ in range(200):
            inst = gen_countdown(rng)
            numbers, target = inst.payload["numbers"], inst.payload["target"]
            digest.update(f"{inst.prompt_text}{numbers}{target}\n".encode())
        assert digest.hexdigest() == (
            "c53a7ec2827c322c3afac4472a1a3f467d27ed72575d6bff1157fe7cadba1f2f")

    def test_generated_targets_are_solvable(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inst = gen_countdown(rng)
            assert countdown_solvable(inst.payload["numbers"], inst.payload["target"])

    def test_prompt_format(self):
        rng = np.random.default_rng(1)
        inst = gen_countdown(rng)
        assert inst.prompt_text.endswith("?")
        head, target = inst.prompt_text[:-1].split("=")
        assert sorted(int(n) for n in head.split()) == inst.payload["numbers"]
        assert int(target) == inst.payload["target"]

    def test_reward_accepts_valid_expression(self):
        inst = TaskInstance("countdown", "2 3 4=14?",
                            {"numbers": [2, 3, 4], "target": 14})
        assert reward_countdown(inst, "2+3*4") == 1.0
        assert reward_countdown(inst, "3*4+2") == 1.0

    def test_reward_rejects_wrong_value(self):
        inst = TaskInstance("countdown", "2 3 4=14?",
                            {"numbers": [2, 3, 4], "target": 14})
        assert reward_countdown(inst, "2+3+4") == 0.0

    def test_reward_rejects_number_reuse(self):
        inst = TaskInstance("countdown", "2 3 4=8?",
                            {"numbers": [2, 3, 4], "target": 8})
        assert reward_countdown(inst, "2*4") == 1.0
        assert reward_countdown(inst, "4+4") == 0.0
        assert reward_countdown(inst, "2*2*2") == 0.0

    def test_subset_usage_allowed(self):
        inst = TaskInstance("countdown", "2 3 4=3?",
                            {"numbers": [2, 3, 4], "target": 3})
        assert reward_countdown(inst, "3") == 1.0

    def test_inexact_division_rejected(self):
        inst = TaskInstance("countdown", "3 2=1?",
                            {"numbers": [2, 3], "target": 1})
        assert reward_countdown(inst, "3/2") == 0.0

    def test_malformed_text_scores_zero(self):
        inst = TaskInstance("countdown", "2 3 4=14?",
                            {"numbers": [2, 3, 4], "target": 14})
        # a chain of 1500 operators parses but is too deep to walk recursively
        for bad in ("", "2+", "import os", "2**3", "((((", "abc", "2 3", "1+" * 1500 + "1"):
            assert reward_countdown(inst, bad) == 0.0


class TestSudoku4:
    def test_instances_match_recorded_digest(self):
        # prompts and solutions of seeds 0-49, recorded from the numpy-grid
        # generator: the generator's RNG use and output never drift
        digest = hashlib.sha256()
        for seed in range(50):
            inst = gen_sudoku4(np.random.default_rng(seed))
            solution = "".join(map(str, inst.payload["solution"]))
            digest.update(f"{inst.prompt_text}{solution}\n".encode())
        assert digest.hexdigest() == (
            "540a45751937622bede7bc5f5fca60c63d8426bdae02a691f5feb606c1d46f0d")

    def test_generated_puzzles_unique(self):
        rng = np.random.default_rng(2)
        for holes in (4, 6, 8):
            inst = gen_sudoku4(rng, holes=holes)
            puzzle = np.asarray(inst.payload["puzzle"]).reshape(4, 4)
            assert int(np.sum(puzzle == 0)) == holes
            assert count_sudoku4_solutions(puzzle) == 1
            assert sudoku4_solutions_by_enumeration(puzzle) == 1

    def test_solution_is_valid_and_consistent(self):
        rng = np.random.default_rng(3)
        inst = gen_sudoku4(rng)
        puzzle = np.asarray(inst.payload["puzzle"]).reshape(4, 4)
        solution = np.asarray(inst.payload["solution"]).reshape(4, 4)
        assert valid_sudoku4(solution)
        given = puzzle != 0
        assert np.array_equal(solution[given], puzzle[given])

    def test_binary_reward(self):
        rng = np.random.default_rng(4)
        inst = gen_sudoku4(rng)
        sol_text = "".join(str(d) for d in inst.payload["solution"])
        assert reward_sudoku4(inst, sol_text) == 1.0
        assert reward_sudoku4(inst, sol_text[:-1] + "0") == 0.0
        assert reward_sudoku4(inst, "not a grid") == 0.0

    def test_binary_reward_rejects_changed_givens(self):
        rng = np.random.default_rng(5)
        inst = gen_sudoku4(rng)
        solution = np.asarray(inst.payload["solution"]).reshape(4, 4)
        # another complete valid grid that disagrees with the givens
        other = solution[[1, 0, 3, 2]].copy()
        assert valid_sudoku4(other)
        text = "".join(str(d) for d in other.ravel())
        assert reward_sudoku4(inst, text) == 0.0

    def test_partial_reward(self):
        rng = np.random.default_rng(6)
        inst = gen_sudoku4(rng, holes=4)
        solution = np.asarray(inst.payload["solution"]).reshape(4, 4)
        puzzle = np.asarray(inst.payload["puzzle"]).reshape(4, 4)
        spec = RewardSpec(mode="partial")
        sol_text = "".join(str(d) for d in solution.ravel())
        assert reward_sudoku4(inst, sol_text, spec) == 1.0
        # corrupt exactly one hole cell
        holes = np.argwhere(puzzle == 0)
        r, c = holes[0]
        wrong = solution.copy()
        wrong[r, c] = wrong[r, c] % 4 + 1
        text = "".join(str(d) for d in wrong.ravel())
        assert reward_sudoku4(inst, text, spec) == pytest.approx(3 / 4)

    def test_split_keeps_solutions_apart(self):
        rng = np.random.default_rng(7)
        instances = [gen_sudoku4(rng, holes=5) for _ in range(12)]
        train, test = split_by_solution(instances, test_fraction=0.5)
        train_sols = {tuple(i.payload["solution"]) for i in train}
        test_sols = {tuple(i.payload["solution"]) for i in test}
        assert train_sols.isdisjoint(test_sols)
        assert len(train) + len(test) == len(instances)
        assert all(i.split == "train" for i in train)
        assert all(i.split == "test" for i in test)


class TestArith:
    def test_generation(self):
        rng = np.random.default_rng(8)
        inst = gen_arith(rng, modulus=7)
        a, b = inst.payload["a"], inst.payload["b"]
        assert inst.prompt_text == f"{a}+{b}=?"
        assert inst.payload["answer"] == (a + b) % 7

    def test_reward_first_integer(self):
        inst = TaskInstance("arith", "3+4=?", {"a": 3, "b": 4, "modulus": 10, "answer": 7})
        assert reward_arith(inst, "7") == 1.0
        assert reward_arith(inst, " 7 junk 9") == 1.0
        assert reward_arith(inst, "9 7") == 0.0
        assert reward_arith(inst, "no digits") == 0.0
        assert reward_arith(inst, "") == 0.0

    def test_bad_modulus_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            gen_arith(rng, modulus=1)


class TestPlumbing:
    def test_reward_dispatch(self):
        inst = TaskInstance("arith", "1+1=?", {"a": 1, "b": 1, "modulus": 10, "answer": 2})
        assert reward(inst, "2") == 1.0
        with pytest.raises(ValueError):
            reward(TaskInstance("mystery", "", {}), "x")

    def test_clean_sequence_round_trip(self):
        inst = TaskInstance("arith", "1+1=?", {"a": 1, "b": 1, "modulus": 10, "answer": 2})
        seq = clean_sequence(inst, "2")
        assert decode_tokens(seq.prompt) == "1+1=?"
        assert decode_tokens(seq.completion) == "2"
        assert seq.is_clean()
