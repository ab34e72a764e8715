"""Verifiable toy environments with deterministic rewards.

Three task families share one character-level vocabulary; ``TASKS`` holds
each one's ``Task`` record: its generator, grader and prompt width, and
whether it reads the modulus.

* countdown: reach a target value from a small number multiset with + - * /
  (division must be exact);
* sudoku4: complete a 4x4 grid with unique solution, row/column/2x2-box
  constraints;
* arith: modular addition, graded by the first integer in the completion.

Rewards are total functions over arbitrary strings; malformed completions
score zero rather than raising.
"""

from __future__ import annotations

import ast
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

#: The lab alphabet: token ``i`` is ``LAB_CHARS[i]``.  Token ids index the
#: denoiser's embedding rows, so this order is part of every checkpoint.
LAB_CHARS = "0123456789+-*/()=? \n"

#: The mask token's id, one past the characters; the denoiser's output covers
#: all ``VOCAB_SIZE`` ids.
MASK_ID = len(LAB_CHARS)
VOCAB_SIZE = MASK_ID + 1

#: Printed in place of the mask token when decoding model output; not a
#: lab character, so encode/decode round trips are unaffected.
MASK_CHAR = "~"

_CHAR_IDS = {ch: i for i, ch in enumerate(LAB_CHARS)}
_ID_CHARS = dict(enumerate(LAB_CHARS))


def encode_text(text: str) -> np.ndarray:
    try:
        return np.array([_CHAR_IDS[ch] for ch in text], dtype=np.int64)
    except KeyError as exc:
        raise KeyError(f"{exc.args[0]!r} is not a lab character") from None


def decode_tokens(tokens) -> str:
    # one lookup per token in a plain dict: the mask id and ids outside the
    # alphabet miss it and print as MASK_CHAR (numpy's per-call overhead
    # exceeds the whole lookup for completions this short)
    return "".join([_ID_CHARS.get(t, MASK_CHAR) for t in np.asarray(tokens, dtype=np.int64).tolist()])


@dataclass(frozen=True)
class RewardSpec:
    mode: str = "binary"  # "binary" | "partial"

    def __post_init__(self):
        if self.mode not in ("binary", "partial"):
            raise ValueError(f"unknown reward mode {self.mode!r}")


@dataclass
class TaskInstance:
    kind: str
    prompt_text: str
    payload: dict
    split: str | None = None


# ---------------------------------------------------------------------------
# countdown
# ---------------------------------------------------------------------------


def _exact_div(a: int, b: int) -> int | None:
    """a / b when it is an integer; None for a zero divisor or a remainder."""
    if b == 0 or a % b != 0:
        return None
    return a // b


#: + - * and exact / in the generator's draw order; the grader looks each one
#: up by the type of its AST operator node
_OPERATORS = (operator.add, operator.sub, operator.mul, _exact_div)
_AST_OPERATORS = dict(zip((ast.Add, ast.Sub, ast.Mult, ast.Div), _OPERATORS))


def gen_countdown(rng: np.random.Generator) -> TaskInstance:
    """Sample three numbers from 1..9 and an achievable target by evaluating
    a random expression over all of them."""
    while True:
        numbers = [int(v) for v in rng.integers(1, 10, size=3)]
        target = _random_expression_value(list(numbers), rng)
        if target is not None and 1 <= target <= 99:
            prompt = " ".join(str(n) for n in numbers) + "=" + str(target) + "?"
            return TaskInstance(
                kind="countdown",
                prompt_text=prompt,
                payload={"numbers": sorted(numbers), "target": target},
            )


def _random_expression_value(values: list[int], rng: np.random.Generator) -> int | None:
    """Combine all values pairwise with random ops; None if a draw goes bad."""
    vals = [int(v) for v in values]
    while len(vals) > 1:
        i, j = rng.choice(len(vals), size=2, replace=False)
        c = _OPERATORS[int(rng.integers(len(_OPERATORS)))](vals[int(i)], vals[int(j)])
        if c is None:
            return None
        vals = [v for k, v in enumerate(vals) if k not in (int(i), int(j))] + [c]
    return vals[0]


def _eval_countdown_expr(text: str) -> tuple[int, list[int]] | None:
    """Evaluate an integer +-*/ expression with exact division.

    Returns (value, leaf numbers) or None if the text is not a pure
    arithmetic expression over integer literals.
    """
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except (SyntaxError, ValueError, MemoryError, RecursionError):
        return None
    leaves: list[int] = []

    def walk(node) -> int | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            leaves.append(node.value)
            return node.value
        if isinstance(node, ast.BinOp) and type(node.op) in _AST_OPERATORS:
            a = walk(node.left)
            b = walk(node.right)
            if a is None or b is None:
                return None
            return _AST_OPERATORS[type(node.op)](a, b)
        return None

    try:
        value = walk(tree.body)
    except RecursionError:  # a chain too deep to walk, though ast.parse took it
        return None
    if value is None:
        return None
    return value, leaves


def reward_countdown(instance: TaskInstance, completion_text: str) -> float:
    """1 iff the completion is a valid expression over the provided numbers
    (each used at most as often as given) that evaluates to the target."""
    result = _eval_countdown_expr(completion_text)
    if result is None:
        return 0.0
    value, leaves = result
    available = list(instance.payload["numbers"])
    for leaf in leaves:
        if leaf in available:
            available.remove(leaf)
        else:
            return 0.0
    if value != instance.payload["target"]:
        return 0.0
    return 1.0


# ---------------------------------------------------------------------------
# 4x4 sudoku
# ---------------------------------------------------------------------------


# per cell of the row-major grid, the other cells of its row, column and 2x2 box
_SUDOKU4_PEERS = [
    tuple(p for p in range(16) if p != cell and (
        p // 4 == cell // 4 or p % 4 == cell % 4 or (p // 8, p % 4 // 2) == (cell // 8, cell % 4 // 2)))
    for cell in range(16)
]


def _sudoku4_candidates(grid: list[int], cell: int) -> list[int]:
    used = {grid[p] for p in _SUDOKU4_PEERS[cell]}
    return [d for d in (1, 2, 3, 4) if d not in used]


def _fill_sudoku4(grid: list[int], rng: np.random.Generator, cell: int = 0) -> bool:
    """Fill the empty (0) cells of the 16 row-major cells from ``cell`` on
    in place, trying each cell's candidates in a shuffled order."""
    while cell < 16 and grid[cell]:
        cell += 1
    if cell == 16:
        return True
    cands = _sudoku4_candidates(grid, cell)
    rng.shuffle(cands)
    for d in cands:
        grid[cell] = d
        if _fill_sudoku4(grid, rng, cell + 1):
            return True
    grid[cell] = 0
    return False


def _count_sudoku4(grid: list[int], limit: int, cell: int = 0) -> int:
    """Solutions of the 16 row-major cells whose empty (0) cells lie from
    ``cell`` on, counted up to ``limit``; the grid is restored before
    returning."""
    while cell < 16 and grid[cell]:
        cell += 1
    if cell == 16:
        return 1
    total = 0
    for d in _sudoku4_candidates(grid, cell):
        grid[cell] = d
        total += _count_sudoku4(grid, limit, cell + 1)
        if total >= limit:
            break
    grid[cell] = 0
    return total


def valid_sudoku4(grid: np.ndarray) -> bool:
    """Each digit once per row, column, and 2x2 box."""
    grid = np.asarray(grid)
    if grid.shape != (4, 4) or not np.isin(grid, (1, 2, 3, 4)).all():
        return False
    # four digits from 1..4, all different, fill each row, column and box
    cells = grid.ravel().tolist()
    return all(cells[cell] != cells[p] for cell in range(16) for p in _SUDOKU4_PEERS[cell])


def gen_sudoku4(rng: np.random.Generator, holes: int = 6) -> TaskInstance:
    """Generate a uniquely solvable 4x4 puzzle with the given hole count."""
    if not 4 <= holes <= 8:
        raise ValueError("holes must be in 4..8")
    while True:
        solution = [0] * 16
        _fill_sudoku4(solution, rng)
        puzzle = solution.copy()
        removed = 0
        for cell in rng.permutation(16).tolist():
            if removed == holes:
                break
            keep = puzzle[cell]
            puzzle[cell] = 0
            if _count_sudoku4(puzzle, 2) == 1:
                removed += 1
            else:
                puzzle[cell] = keep
        if removed == holes:
            return TaskInstance(
                kind="sudoku4",
                prompt_text="".join(map(str, puzzle)) + "=",
                payload={"puzzle": puzzle, "solution": solution},
            )


def split_by_solution(instances: list[TaskInstance],
                      test_fraction: float = 0.5) -> tuple[list[TaskInstance], list[TaskInstance]]:
    """Partition puzzles so that all puzzles sharing a solution grid fall on
    the same side and no solution appears in both splits."""
    solutions = sorted({tuple(inst.payload["solution"]) for inst in instances})
    n_test = int(round(test_fraction * len(solutions)))
    test_solutions = set(solutions[len(solutions) - n_test:])
    train, test = [], []
    for inst in instances:
        if tuple(inst.payload["solution"]) in test_solutions:
            inst.split = "test"
            test.append(inst)
        else:
            inst.split = "train"
            train.append(inst)
    return train, test


def _parse_sudoku4_grid(completion_text: str) -> np.ndarray | None:
    digits = [int(ch) for ch in completion_text if ch in "0123456789"]
    if len(digits) < 16:
        return None
    return np.asarray(digits[:16], dtype=np.int64).reshape(4, 4)


def reward_sudoku4(instance: TaskInstance, completion_text: str,
                   spec: RewardSpec = RewardSpec()) -> float:
    """Binary: 1 iff the parsed grid is complete, valid, and keeps the
    givens.  Partial: fraction of originally empty cells that match the
    unique solution."""
    grid = _parse_sudoku4_grid(completion_text)
    if grid is None:
        return 0.0
    puzzle = np.asarray(instance.payload["puzzle"], dtype=np.int64).reshape(4, 4)
    if spec.mode == "binary":
        given = puzzle != 0
        if not valid_sudoku4(grid):
            return 0.0
        if not np.array_equal(grid[given], puzzle[given]):
            return 0.0
        return 1.0
    solution = np.asarray(instance.payload["solution"], dtype=np.int64).reshape(4, 4)
    holes = puzzle == 0
    return float(np.sum(grid[holes] == solution[holes])) / float(np.sum(holes))


# ---------------------------------------------------------------------------
# modular arithmetic
# ---------------------------------------------------------------------------


def gen_arith(rng: np.random.Generator, modulus: int = 10) -> TaskInstance:
    if not 2 <= modulus <= 100:
        raise ValueError("modulus must be in 2..100")
    a = int(rng.integers(modulus))
    b = int(rng.integers(modulus))
    return TaskInstance(
        kind="arith",
        prompt_text=f"{a}+{b}=?",
        payload={"a": a, "b": b, "modulus": modulus,
                 "answer": (a + b) % modulus},
    )


_FIRST_INT = re.compile(r"[0-9]+")


def reward_arith(instance: TaskInstance, completion_text: str) -> float:
    """1 iff the first integer in the completion equals the answer."""
    m = _FIRST_INT.search(completion_text)
    if m is None:
        return 0.0
    # compared as text: int() refuses runs of more than 4300 digits
    digits = m.group().lstrip("0") or "0"
    return 1.0 if digits == str(instance.payload["answer"]) else 0.0


# ---------------------------------------------------------------------------
# one record per task
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Task:
    """A task family.  ``prompt_width`` bounds its prompts and so sizes the
    position table; ``reads_modulus`` says whether ``generate`` reads its
    modulus.  The generators are looked up in this module per call, so a
    wrapper set on ``tasks.gen_arith`` sees every draw."""
    generate: Callable[[np.random.Generator, int], TaskInstance]
    grade: Callable[[TaskInstance, str, RewardSpec], float]
    prompt_width: Callable[[int], int]
    reads_modulus: bool = False


TASKS = {
    "arith": Task(lambda rng, modulus: gen_arith(rng, modulus),
                  lambda inst, text, spec: reward_arith(inst, text),
                  lambda modulus: 2 * len(str(modulus - 1)) + 3, reads_modulus=True),
    # four 1-digit numbers and a 2-digit target, though prompts have three
    # numbers: kept, as it sets n_positions and so theta's size
    "countdown": Task(lambda rng, modulus: gen_countdown(rng),
                      lambda inst, text, spec: reward_countdown(inst, text),
                      lambda modulus: 4 * 2 + 3 + 3),
    "sudoku4": Task(lambda rng, modulus: gen_sudoku4(rng), reward_sudoku4,
                    lambda modulus: 17),  # 16 givens + '='
}


def reward(instance: TaskInstance, completion_text: str,
           spec: RewardSpec = RewardSpec()) -> float:
    if instance.kind not in TASKS:
        raise ValueError(f"unknown task kind {instance.kind!r}")
    return TASKS[instance.kind].grade(instance, completion_text, spec)
