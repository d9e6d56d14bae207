"""The alpha-robust L-infinity(H1) estimate near both ends of (1, 2).

The paper's a priori bound and error estimate hold uniformly for alpha in
(1, 2), and the study tables cover alpha = 1.4, 1.5 and 1.8 only.  These
checks run ex1 through the CLI's own plan at alpha = 1.02 and 1.98, the
temporal order also at 1.1 and 1.9, the ex2 temporal order at all four and
the ex2 bound quantity at 1.02, 1.5 and 1.98.  Their bands come from the
theory, not from measured values: on the recommended grading the temporal
order is 2 - beta (beta = alpha / 2), met within the 0.1 that criterion 4
allows the L1 truncation rates, and the bound quantity does not grow with
N, met within 1%.  The ex2 bound quantity is pre-asymptotic at small N:
from N = 8 to 32 it grows by 0.4%, 1.7% and 4.6% at alpha = 1.02, 1.5 and
1.98, and its increments shrink by about 0.4 per doubling.  So it is
checked from N = 32 to 64, except at alpha = 1.02, where N = 64 couples to
Ms = 492 and takes 3.8 s against 0.6 s for the three checks as run (2
vCPUs); from N = 16 to 32 it moves by 0.08% there.
"""

import pytest

from fracwave import cli
from fracwave.mms_harness import observed_order


def _rows(line):
    """The full-precision rows of one CLI command, in plan order."""
    cfg = cli.parse_config(line)
    return [cli._study_task((cfg, task))[0] for task in cli._plan(cfg)]


@pytest.mark.parametrize("alpha", [1.02, 1.1, 1.9, 1.98])
def test_the_last_temporal_order_is_within_0_1_of_2_minus_beta(alpha):
    rows = _rows(f"command=temporal-study example=ex1 alpha={alpha} N=32,64,128,256")
    orders = observed_order([(row.N, row.error) for row in rows])
    assert orders[-1] == pytest.approx(2.0 - 0.5 * alpha, abs=0.1)


@pytest.mark.parametrize("alpha", [1.02, 1.1, 1.9, 1.98])
def test_the_2d_temporal_order_is_within_0_1_of_2_minus_beta(alpha):
    rows = _rows(f"command=temporal-study example=ex2 alpha={alpha} N=16,32")
    (order,) = observed_order([(row.N, row.error) for row in rows])
    assert order == pytest.approx(2.0 - 0.5 * alpha, abs=0.1)


@pytest.mark.parametrize("alpha", [1.02, 1.5, 1.98])
def test_the_bound_quantity_does_not_grow_with_n(alpha):
    coarse, fine = _rows(f"command=bound-report example=ex1 alpha={alpha} N=64,256")
    assert fine.error == pytest.approx(coarse.error, rel=0.01)


@pytest.mark.parametrize("alpha, n_list", [(1.02, "16,32"), (1.5, "32,64"), (1.98, "32,64")])
def test_the_2d_bound_quantity_does_not_grow_with_n(alpha, n_list):
    coarse, fine = _rows(f"command=bound-report example=ex2 alpha={alpha} N={n_list}")
    assert fine.error == pytest.approx(coarse.error, rel=0.01)
