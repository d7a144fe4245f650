"""Unit tests for the instrumented MPArray wrapper."""

import numpy as np
import pytest

from repro.runtime.mparray import MPArray, unwrap, wrap
from repro.runtime.profiler import OpClass, Profile


@pytest.fixture()
def profile():
    return Profile()


def tracked(data, profile):
    return MPArray(np.asarray(data), profile)


class TestBasics:
    def test_wraps_only_ndarrays(self, profile):
        with pytest.raises(TypeError):
            MPArray([1, 2, 3], profile)

    def test_attributes_delegate(self, profile):
        arr = tracked(np.zeros((2, 3), dtype=np.float32), profile)
        assert arr.shape == (2, 3)
        assert arr.ndim == 2
        assert arr.size == 6
        assert arr.dtype == np.float32
        assert arr.nbytes == 24
        assert len(arr) == 2

    def test_unwrap_and_wrap(self, profile):
        raw = np.ones(3)
        assert unwrap(tracked(raw, profile)) is raw
        assert unwrap(42) == 42
        assert isinstance(wrap(raw, profile), MPArray)
        assert wrap(1.5, profile) == 1.5

    def test_zero_d_results_unwrap_to_scalars(self, profile):
        arr = tracked(np.arange(4.0), profile)
        total = arr.sum()
        assert isinstance(total, np.floating)
        assert float(total) == 6.0

    def test_conversions(self, profile):
        arr = tracked(np.asarray([2.5]), profile)
        assert float(arr) == 2.5
        assert int(arr) == 2
        assert bool(tracked(np.asarray([1.0]), profile))
        assert arr.item() == 2.5


class TestUfuncInstrumentation:
    def test_elementwise_counts_elements(self, profile):
        a = tracked(np.ones(100), profile)
        b = tracked(np.ones(100), profile)
        c = a + b
        assert isinstance(c, MPArray)
        assert profile.ops[(OpClass.CHEAP, "float64")] == 100
        assert profile.bytes_read == 1600
        assert profile.bytes_written == 800

    def test_results_match_numpy(self, profile):
        a = tracked(np.arange(5.0), profile)
        np.testing.assert_array_equal((a * 2 + 1).data, np.arange(5.0) * 2 + 1)

    def test_division_is_medium(self, profile):
        a = tracked(np.ones(10), profile)
        _ = a / 2.0
        assert profile.ops[(OpClass.MEDIUM, "float64")] == 10

    def test_exp_is_trans(self, profile):
        a = tracked(np.ones(10), profile)
        _ = np.exp(a)
        assert profile.ops[(OpClass.TRANS, "float64")] == 10

    def test_promotion_records_casts(self, profile):
        a32 = tracked(np.ones(10, dtype=np.float32), profile)
        strong64 = np.float64(2.0)
        result = a32 * strong64
        assert result.dtype == np.float64
        assert profile.cast_elements == 10

    def test_weak_python_float_keeps_dtype(self, profile):
        a32 = tracked(np.ones(10, dtype=np.float32), profile)
        result = a32 * 2.0
        assert result.dtype == np.float32
        assert profile.cast_elements == 0

    def test_comparison_charged_at_input_precision(self, profile):
        a = tracked(np.ones(10, dtype=np.float32), profile)
        _ = a > 0.5
        assert profile.ops[(OpClass.CHEAP, "float32")] == 10

    def test_reduce_counts_input_size(self, profile):
        a = tracked(np.ones(1000), profile)
        _ = np.add.reduce(a)
        assert profile.ops[(OpClass.CHEAP, "float64")] == 1000

    def test_reduceat(self, profile):
        a = tracked(np.ones(100), profile)
        out = np.add.reduceat(a, np.arange(0, 100, 10))
        assert out.shape == (10,)
        assert profile.ops[(OpClass.CHEAP, "float64")] == 100

    def test_out_kwarg_writes_in_place(self, profile):
        a = tracked(np.ones(10), profile)
        b = tracked(np.zeros(10), profile)
        result = np.add(a, a, out=b)
        np.testing.assert_array_equal(b.data, 2.0 * np.ones(10))
        assert isinstance(result, MPArray)

    def test_integer_ops_classed_int(self, profile):
        a = tracked(np.arange(10), profile)
        _ = a + 1
        assert (OpClass.INT, "int64") in profile.ops

    def test_matmul_counts_flops(self, profile):
        a = tracked(np.ones((4, 8)), profile)
        b = tracked(np.ones((8, 3)), profile)
        c = a @ b
        assert c.shape == (4, 3)
        assert profile.ops[(OpClass.CHEAP, "float64")] == 2 * 4 * 3 * 8


class TestFunctionInstrumentation:
    def test_dot_counts_flops(self, profile):
        a = tracked(np.ones(64), profile)
        b = tracked(np.ones(64), profile)
        result = np.dot(a, b)
        assert float(result) == 64.0
        assert profile.ops[(OpClass.CHEAP, "float64")] == 2 * 64

    def test_dot_mixed_dtype_records_cast(self, profile):
        a = tracked(np.ones(16, dtype=np.float32), profile)
        b = tracked(np.ones(16, dtype=np.float64), profile)
        np.dot(a, b)
        assert profile.cast_elements == 16

    def test_where_is_move(self, profile):
        cond = tracked(np.array([True, False, True]), profile)
        x = tracked(np.ones(3), profile)
        y = tracked(np.zeros(3), profile)
        result = np.where(cond, x, y)
        np.testing.assert_array_equal(result.data, [1.0, 0.0, 1.0])
        assert (OpClass.MOVE, "float64") in profile.ops

    def test_sum_mean_argmin_count_input(self, profile):
        a = tracked(np.arange(100.0), profile)
        assert float(np.sum(a)) == pytest.approx(4950.0)
        assert float(np.mean(a)) == pytest.approx(49.5)
        assert int(np.argmin(a)) == 0
        total = sum(
            n for (opclass, _d), n in profile.ops.items() if opclass is OpClass.CHEAP
        )
        assert total == 300

    def test_unknown_function_falls_back(self, profile):
        a = tracked(np.arange(10.0), profile)
        rolled = np.roll(a, 2)
        assert isinstance(rolled, MPArray)
        np.testing.assert_array_equal(rolled.data, np.roll(np.arange(10.0), 2))
        assert profile.ufunc_calls >= 1


class TestIndexing:
    def test_basic_slice_is_free_view(self, profile):
        a = tracked(np.arange(10.0), profile)
        view = a[2:5]
        assert isinstance(view, MPArray)
        assert profile.gather_elements == 0
        view[:] = 0.0
        assert a.data[3] == 0.0  # shares storage

    def test_scalar_index_returns_scalar(self, profile):
        a = tracked(np.arange(10.0), profile)
        assert a[3] == 3.0
        assert profile.gather_elements == 0

    def test_fancy_index_is_gather(self, profile):
        a = tracked(np.arange(10.0), profile)
        picked = a[np.array([1, 5, 7])]
        np.testing.assert_array_equal(picked.data, [1.0, 5.0, 7.0])
        assert profile.gather_elements == 3

    def test_boolean_mask_is_gather(self, profile):
        a = tracked(np.arange(10.0), profile)
        mask = np.arange(10) % 2 == 0
        picked = a[mask]
        assert picked.size == 5
        assert profile.gather_elements == 5

    def test_setitem_records_move(self, profile):
        a = tracked(np.zeros(10), profile)
        a[2:6] = 1.0
        assert profile.ops[(OpClass.MOVE, "float64")] == 4
        assert profile.bytes_written == 32

    def test_setitem_cast_on_dtype_mismatch(self, profile):
        a = tracked(np.zeros(10, dtype=np.float32), profile)
        a[:] = np.ones(10, dtype=np.float64)
        assert profile.cast_elements == 10
        assert a.dtype == np.float32

    def test_setitem_scatter(self, profile):
        a = tracked(np.zeros(10), profile)
        a[np.array([1, 3])] = 5.0
        assert profile.gather_elements == 2
        assert a.data[1] == 5.0

    def test_tuple_slicing_2d(self, profile):
        a = tracked(np.zeros((4, 4)), profile)
        a[1:-1, 1:-1] = 7.0
        assert a.data[1, 1] == 7.0
        assert profile.ops[(OpClass.MOVE, "float64")] == 4


class TestHelpers:
    def test_astype_records_cast(self, profile):
        a = tracked(np.ones(8, dtype=np.float64), profile)
        b = a.astype(np.float32)
        assert b.dtype == np.float32
        assert profile.cast_elements == 8

    def test_astype_same_dtype_no_cast(self, profile):
        a = tracked(np.ones(8), profile)
        a.astype(np.float64)
        assert profile.cast_elements == 0

    def test_copy_and_fill(self, profile):
        a = tracked(np.ones(8), profile)
        b = a.copy()
        b.fill(3.0)
        assert b.data[0] == 3.0
        assert a.data[0] == 1.0
        assert profile.ops[(OpClass.MOVE, "float64")] == 16

    def test_reshape_ravel_transpose_share_profile(self, profile):
        a = tracked(np.zeros((2, 3)), profile)
        assert a.reshape(3, 2).shape == (3, 2)
        assert a.ravel().shape == (6,)
        assert a.T.shape == (3, 2)
        assert a.transpose().shape == (3, 2)

    def test_iteration_yields_rows(self, profile):
        a = tracked(np.arange(6.0).reshape(2, 3), profile)
        rows = list(a)
        assert len(rows) == 2
        assert isinstance(rows[0], MPArray)

    def test_array_protocol(self, profile):
        a = tracked(np.arange(4.0), profile)
        raw = np.asarray(a)
        np.testing.assert_array_equal(raw, np.arange(4.0))
        converted = np.asarray(a, dtype=np.float32)
        assert converted.dtype == np.float32

    def test_asarray_is_zero_copy(self, profile):
        a = tracked(np.arange(4.0), profile)
        assert np.asarray(a) is a.data

    @pytest.mark.parametrize("copy_kwargs", [{}, {"copy": True}])
    def test_np_array_copies(self, profile, copy_kwargs):
        """A write through ``np.array(x)`` must not reach ``x``'s
        storage: it would change the variable without recording a store
        (or, for a quantised variable, without re-rounding)."""
        a = tracked(np.arange(4.0), profile)
        copied = np.array(a, **copy_kwargs)
        assert not np.shares_memory(copied, a.data)
        copied[0] = 99.0
        assert a.data[0] == 0.0


class TestRecipeTableConcurrency:
    """The signature->recipe table is shared process state: a read and a
    miss's store are each one GIL-atomic dict operation on a pure value,
    so threads recording the same signatures need no lock."""

    def test_threaded_real_workloads_compute_correctly(self):
        import threading

        from repro.runtime.memory import Workspace

        errors = []

        def work(seed):
            try:
                ws = Workspace()
                x = ws.array("x", shape=64, fill=float(seed + 1))
                y = ws.array("y", shape=64, fill=2.0)
                for _ in range(25):
                    z = ((x + y) * 0.5 - y / 4.0) + float(seed)
                expected = ((seed + 1 + 2.0) * 0.5 - 0.5) + seed
                assert float(z[0]) == expected
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
