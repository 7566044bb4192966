"""Property tests: identities and the CLI's exit-code contract checked over
drawn inputs, derandomized so every run draws the same examples."""

import contextlib
import io
import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from permex import expectation_product, product_table
from permex.cli import dispatch


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


# The CLI's exit-code contract over drawn argv.  Integers are small or
# extreme (past sys.maxsize, negative, zero); densities include the edges
# and non-finite values.  A known runaway is left out by drawing r small or
# past sys.maxsize, never in between: `product` at r = 10^5 (no pre-flight
# before its budget).  `expect`, `oracle`, `mc` and `scan` also draw large
# r: `expect`'s work does not grow with r, the oracle's cell count passes
# any budget from r = 20000 at n >= 2, at n = 1 its one matrix is [[r]],
# and the sampler refuses a sample of more than 2^20 permutation entries
# before drawing (r = 20000 at n <= 4 stays under it and is drawn).
INTS = st.sampled_from([-1, 0, 2**63, 2**64]) | st.integers(1, 4)
LARGE_RS = st.sampled_from([20000, 10**8, sys.maxsize])
DENSITIES = st.sampled_from([0.0, 1.0, math.nan, math.inf, 1 - 2**-53]) | st.floats(0.05, 0.95)
BUDGETS = st.sampled_from([0, 1, 10**4])
SAMPLES = st.sampled_from([0, 1, 2, 40])


def _flags(**values):
    return [word for name, value in values.items()
            for word in (f"--{name}", str(value))]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(
        ["expect", "product", "argmax", "oracle", "mc", "rate", "analytic", "solve",
         "scan", "oracle-single", "oracle-product", "recurrence"]))
    if command in ("oracle-single", "oracle-product", "recurrence"):
        return ["verify", "--suite", command, *_flags(r=draw(INTS), budget=draw(BUDGETS))]
    if command in ("rate", "analytic", "solve", "scan"):
        values = {"r": draw((LARGE_RS | INTS) if command == "scan" else INTS),
                  "p": draw(DENSITIES)}
        if command != "rate" or draw(st.booleans()):
            values["q"] = draw(DENSITIES)
        if command != "scan":
            return [command, *_flags(**values)]
        dims = draw(st.lists(INTS, min_size=1, max_size=2))
        return [command, *_flags(**values, samples=draw(SAMPLES)),
                *(word for n in dims for word in ("--n", str(n)))]
    rs = (LARGE_RS | INTS) if command in ("expect", "oracle", "mc") else INTS
    values = {"n": draw(INTS), "r": draw(rs), "m": draw(INTS)}
    if command == "expect":
        return [command, *_flags(**values)]
    values["m2"] = draw(INTS)
    if command == "mc":
        return [command, *_flags(**values, samples=draw(SAMPLES))]
    return [command, *_flags(**values, budget=draw(BUDGETS))]


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(cli_argv())
def test_cli_exit_code_contract(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    assert code in (0, 1, 2)
