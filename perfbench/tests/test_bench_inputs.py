"""The generated inputs depend on the seed and on nothing else."""

import numpy as np
import pytest

import env
import workloads


def _describe(block):
    """Kind and call arguments of each op, with library objects left out."""
    out = []
    for op in block:
        call_args = getattr(op.call, "args", ())
        args = [a for a in call_args if isinstance(a, (str, float, int, np.ndarray))]
        out.append((op.kind, args))
    return out


def _same(a, b):
    if len(a) != len(b):
        return False
    for (ka, xa), (kb, xb) in zip(a, b):
        if ka != kb or len(xa) != len(xb):
            return False
        if not all(np.array_equal(p, q) for p, q in zip(xa, xb)):
            return False
    return True


@pytest.fixture(scope="module")
def built():
    return {
        "figure1": workloads.Figure1(env.OUT_DIR),
        "highdim": workloads.HighDim(),
        "certify": workloads.Certify(),
    }


@pytest.mark.parametrize("name", ["figure1", "highdim", "certify"])
def test_same_seed_same_inputs(built, name):
    w = built[name]
    first = [_describe(next(w.blocks(np.random.default_rng(7)))) for _ in range(2)]
    again = _describe(next(w.blocks(np.random.default_rng(7))))
    other = _describe(next(w.blocks(np.random.default_rng(8))))
    assert _same(first[0], first[1]) and _same(first[0], again)
    assert not _same(first[0], other)


def test_later_blocks_follow_from_the_seed(built):
    runs = []
    for _ in range(2):
        blocks = built["highdim"].blocks(np.random.default_rng(3))
        runs.append([_describe(next(blocks)) for _ in range(3)])
    assert all(_same(a, b) for a, b in zip(*runs))
    assert not _same(runs[0][0], runs[0][1])


def test_block_mix_is_fixed(built):
    mix = [op.kind for op in next(built["highdim"].blocks(np.random.default_rng(1)))]
    expected = len(workloads.HIGHDIM_KINDS) + 5 * (workloads.LEGENDRE_SELF_WEIGHT - 1)
    assert len(mix) == expected
    assert mix.count("burg/legendre_self") == workloads.LEGENDRE_SELF_WEIGHT
    fig = next(built["figure1"].blocks(np.random.default_rng(1)))
    assert len(fig) == 1609 and sum(op.kind == "figure1_cli" for op in fig) == 1


def test_boundary_points_stay_inside_the_domain(built):
    block = next(built["certify"].blocks(np.random.default_rng(5)))
    for op in block:
        if op.boundary:
            name, x = op.call.args[4], op.call.args[5]
            lo, hi = workloads.functions.from_name(name).parts[0].dom
            assert lo < x < hi
