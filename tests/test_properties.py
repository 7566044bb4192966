"""Property tests: identities checked over drawn inputs, derandomized so
every run draws the same examples."""

from hypothesis import given, settings
from hypothesis import strategies as st

from permex import expectation_product, product_table


@st.composite
def product_points(draw):
    n = draw(st.integers(0, 5))
    r = draw(st.integers(1, 4))
    return n, r, draw(st.integers(0, n)), draw(st.integers(0, n))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(product_points())
def test_product_table_is_the_symmetric_profile_sum(point):
    # each table cut at (m, m2) ends in E(perm_m perm_m2), and the table cut
    # the other way round ends in the same value
    n, r, m, m2 = point
    value = expectation_product(n, r, m, m2).value
    assert product_table(n, r, m, m2)[m][m2] == product_table(n, r, m2, m)[m2][m] == value
