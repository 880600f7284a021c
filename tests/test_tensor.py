import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from venndec.tensor import (
    Tensor,
    extract_subtensor,
    group,
    khatri_rao,
    outer,
)


def test_tensor_owns_its_data():
    base = np.zeros(8)
    t = Tensor(base.reshape(2, 2, 2))
    base[0] = np.inf  # must not reach t.data past the finiteness check
    assert np.all(np.isfinite(t.data))
    assert base.flags.writeable and not t.data.flags.writeable


def test_read_only_data_is_shared_not_copied():
    # a tensor's data is read-only down to its base, so regrouping it or
    # wrapping it again costs no copy
    t = Tensor(np.arange(16.0).reshape(2, 2, 2, 2))
    assert np.shares_memory(group(t, (2, 1, 1)).data, t.data)
    assert Tensor(t.data).data is t.data
    view = t.data[0]
    assert np.shares_memory(Tensor(view).data, t.data)


def test_from_json_dict_keeps_its_parsed_entries_uncopied():
    # the parsed entries are frozen in place, so the tensor is a view of them
    t = Tensor.from_json_dict(Tensor(np.arange(8.0).reshape(2, 2, 2)).to_json_dict())
    assert t.data.base is not None and not t.data.base.flags.writeable


def test_outer_hand_example():
    t = outer([np.array([1.0, 1.0]), np.array([1.0, -1.0])])
    np.testing.assert_array_equal(t.data, [[1.0, -1.0], [1.0, -1.0]])


@given(
    rows=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    m=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_khatri_rao_columns_are_flattened_outer_products(rows, m, seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((r, m)) for r in rows]
    got = khatri_rao(mats)
    assert got.shape == (math.prod(rows), m)
    for r in range(m):
        want = functools.reduce(np.multiply.outer, [a[:, r] for a in mats]).ravel()
        np.testing.assert_array_equal(got[:, r], want)


def test_khatri_rao_needs_a_matrix():
    with pytest.raises(ValueError, match="at least one matrix"):
        khatri_rao([])


def test_group_is_pure_reshape():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((2, 3, 4))
    g = group(Tensor(data), (2, 1))
    assert g.dims == (6, 4)
    np.testing.assert_array_equal(g.data, data.reshape(6, 4))


def test_group_entry_addressing():
    # fused index iterates the second original mode fastest (row-major)
    data = np.arange(24.0).reshape(2, 3, 4)
    g = group(Tensor(data), (2, 1))
    for i in range(2):
        for j in range(3):
            np.testing.assert_array_equal(g.data[i * 3 + j], data[i, j])


def test_mode_partition_validation():
    # block sizes must be positive and cover the modes exactly
    t = Tensor(np.zeros((2, 3, 4)))
    for sizes in ((0, 3), (1, 1), (2, 2), (-1, 4)):
        with pytest.raises(ValueError, match="block sizes"):
            group(t, sizes)


def test_extract_subtensor_matches_ix():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((5, 6, 7))
    sets = [[0, 2], [1, 3, 5], [6, 0]]
    sub = extract_subtensor(Tensor(data), sets)
    np.testing.assert_array_equal(sub.data, data[np.ix_(*sets)])
    assert sub.dims == (2, 3, 2)


def test_tensor_json_roundtrip():
    rng = np.random.default_rng(4)
    t = Tensor(rng.standard_normal((2, 3, 2)))
    back = Tensor.from_json_dict(t.to_json_dict())
    assert back.dims == t.dims
    np.testing.assert_array_equal(back.data, t.data)


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        Tensor(np.array([[1.0, np.nan], [0.0, 1.0]]))


@given(st.integers(0, 10_000))
def test_group_preserves_frobenius_norm(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((2, 2, 3))
    t = Tensor(data)
    g = group(t, (1, 2))
    assert np.linalg.norm(g.data) == pytest.approx(np.linalg.norm(t.data))
