import operator
import sys
from functools import reduce

from hypothesis import given, settings, strategies as st

from triefusion.summation import left_sum


def test_left_sum_does_not_compensate():
    # a compensated sum (math.fsum, or the builtin sum from Python 3.12 on) gives 1.0
    assert left_sum([1e16, 1.0, -1e16]) == 0.0


def test_left_sum_of_nothing_is_zero():
    assert left_sum([]) == 0
    assert left_sum(iter(())) == 0


@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=40))
@settings(max_examples=200)
def test_left_sum_is_a_left_fold(values):
    assert left_sum(values) == reduce(operator.add, values, 0)
    if sys.version_info < (3, 12):
        assert left_sum(values) == sum(values)
