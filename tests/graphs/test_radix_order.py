"""The stable radix order behind every prepare-time sort
(:func:`repro.graphs.csr.radix_order`) and the CSR build that chains two
of them (:meth:`repro.graphs.csr.CSR.from_edges_with_order`).

Oracles: ``np.argsort(kind="stable")`` for one key, ``np.lexsort`` for
two, and the lexsort CSR build the radix passes replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import GraphFormatError
from repro.graphs.csr import CSR, radix_order

#: key ranges of one, two and three 16-bit digits.
BOUNDS = (1, 2, 300, 65_535, 65_536, 65_537, 1 << 20, 1 << 40)

#: values on both sides of the digit boundaries, drawn with repeats.
EDGE_VALUES = (0, 1, 65_534, 65_535, 65_536, 65_537, 131_071, (1 << 32) + 5)


@st.composite
def keys(draw):
    bound = draw(st.sampled_from(BOUNDS))
    elements = st.one_of(
        st.integers(0, bound - 1),
        st.sampled_from([v for v in EDGE_VALUES if v < bound] or [0]),
    )
    size = draw(st.integers(0, 300))
    return draw(hnp.arrays(np.int64, size, elements=elements)), bound


def lexsort_csr(num_rows, src, dst, num_cols):
    """The CSR build before the radix passes: one ``np.lexsort``."""
    src = np.asarray(src, dtype=np.int32)
    dst = np.asarray(dst, dtype=np.int32)
    order = np.lexsort((dst, src))
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_rows), out=indptr[1:])
    return CSR(num_rows, num_cols, indptr, dst[order]), order


class TestRadixOrder:
    @settings(max_examples=300, deadline=None)
    @given(keys())
    def test_equals_stable_argsort(self, case):
        values, bound = case
        expect = np.argsort(values, kind="stable")
        np.testing.assert_array_equal(radix_order(values), expect)
        np.testing.assert_array_equal(radix_order(values, bound), expect)

    @settings(max_examples=150, deadline=None)
    @given(keys())
    def test_int32_keys(self, case):
        values, _ = case
        values = values[values < (1 << 31)].astype(np.int32)
        np.testing.assert_array_equal(
            radix_order(values), np.argsort(values, kind="stable")
        )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_chained_passes_equal_lexsort(self, data):
        minor, minor_bound = data.draw(keys())
        major = data.draw(
            hnp.arrays(
                np.int64,
                minor.size,
                elements=st.sampled_from(EDGE_VALUES),
            )
        )
        order = radix_order(minor, minor_bound)
        order = order[radix_order(major[order])]
        np.testing.assert_array_equal(order, np.lexsort((minor, major)))

    def test_multi_pass_with_duplicates(self):
        rng = np.random.default_rng(3)
        values = rng.choice(np.array(EDGE_VALUES), size=5000)
        np.testing.assert_array_equal(
            radix_order(values), np.argsort(values, kind="stable")
        )

    @pytest.mark.parametrize("bound", (None, 0, 1, 1 << 40))
    def test_empty(self, bound):
        order = radix_order(np.empty(0, dtype=np.int64), bound)
        assert order.size == 0
        assert order.dtype == np.intp


class TestFromEdgesWithOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_lexsort_oracle(self, data):
        num_rows = data.draw(st.sampled_from((1, 5, 300, 65_537, 70_000)))
        num_cols = data.draw(st.sampled_from((1, 7, 65_536, 140_000)))
        m = data.draw(st.integers(0, 200))
        src = data.draw(
            hnp.arrays(np.int64, m, elements=st.integers(0, num_rows - 1))
        )
        dst = data.draw(
            hnp.arrays(np.int64, m, elements=st.integers(0, num_cols - 1))
        )
        csr, order = CSR.from_edges_with_order(
            num_rows, src, dst, num_cols=num_cols
        )
        expect_csr, expect_order = lexsort_csr(num_rows, src, dst, num_cols)
        assert csr == expect_csr
        np.testing.assert_array_equal(order, expect_order)

    def test_duplicate_edges_keep_input_order(self):
        # Weights follow ``order``, so repeated edges must map in input
        # order, as the lexsort build did.
        src = np.array([70_000, 3, 70_000, 3, 70_000, 0])
        dst = np.array([1, 65_536, 1, 65_536, 0, 2])
        csr, order = CSR.from_edges_with_order(
            70_001, src, dst, num_cols=65_537
        )
        expect_csr, expect_order = lexsort_csr(70_001, src, dst, 65_537)
        assert csr == expect_csr
        np.testing.assert_array_equal(order, expect_order)
        np.testing.assert_array_equal(order, [5, 1, 3, 4, 0, 2])

    def test_empty(self):
        csr, order = CSR.from_edges_with_order(
            4, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert csr.num_edges == 0 and order.size == 0

    def test_out_of_range_columns_still_rejected(self):
        with pytest.raises(GraphFormatError):
            CSR.from_edges_with_order(
                3, np.array([0, 1]), np.array([1, 70_000]), num_cols=3
            )
