"""One rule for every (users, instants) table of zone ids: each entry point
that takes one refuses the same fault with the same ValueError text, naming
the argument that holds the table."""

import numpy as np
import pytest

import tce
from tce.markov import PredictionRun, WindowConfig

K = 3  # two inside zones and one outside zone
INSIDE, OUTSIDE = [[1.0, 1.0], [3.0, 3.0]], [[55.0, 40.0]]
GOOD = np.array([[0, 1, 2, 2], [1, 1, 0, 2], [2, 0, 0, 1]], np.int64)  # 3 users x 4 instants
TRACES = tce.TraceSet(np.zeros((3, 4, 2)), np.ones(3))
WINDOW = 2


def with_zone(zone):
    """GOOD with ``zone`` at a predicted instant of user 1."""
    table = GOOD.copy()
    table[1, 3] = zone
    return table


OUTSIDE_IDS = "{name} contains zone ids outside [0, 3)"
NOT_A_TABLE = "{name} must be a non-empty (users, instants) table, got shape {shape}"
BAD_TABLES = {
    "id_minus_1": (with_zone(-1), OUTSIDE_IDS),
    "id_k": (with_zone(K), OUTSIDE_IDS),
    # a one-user forecast where three users are expected
    "wrong_shape": (GOOD[:1], "{name} must have shape (3, 4), got (1, 4)"),
    "3d": (GOOD[..., None], NOT_A_TABLE),
    "empty": (GOOD[:0], NOT_A_TABLE),
    "float_ids": (GOOD + 0.5, "{name} must hold integer zone ids, got dtype float64"),
}


def zoning(labels=GOOD):
    return tce.Zoning(INSIDE, OUTSIDE, labels)


# entry point -> (call with the table, the name its refusal gives, whether it
# is given a shape the table must have: Zoning and build_general_matrix take
# a table of any (users, instants) shape, so they have no "wrong_shape")
ENTRY_POINTS = {
    "Zoning": (zoning, "labels", False),
    "build_general_matrix": (lambda t: tce.build_general_matrix(t, K), "labels", False),
    "run_prediction": (
        lambda t: tce.run_prediction(TRACES, zoning(t), WindowConfig(WINDOW), 0), "labels", True
    ),
    "aggregate_real": (lambda t: tce.aggregate(TRACES, t, GOOD, K), "labels_real", True),
    "aggregate_pred": (lambda t: tce.aggregate(TRACES, GOOD, t, K), "labels_pred", True),
    "error_series": (
        lambda t: tce.error_series(zoning(), PredictionRun(t, WINDOW), (0, 0), (60, 80)),
        "labels_pred",
        True,
    ),
}


@pytest.mark.parametrize(
    "entry, fault",
    [
        (entry, fault)
        for entry, (_, _, shaped) in ENTRY_POINTS.items()
        for fault in BAD_TABLES
        if shaped or fault != "wrong_shape"
    ],
)
def test_every_entry_point_refuses_with_one_text(entry, fault):
    call, name, _ = ENTRY_POINTS[entry]
    table, message = BAD_TABLES[fault]
    with pytest.raises(ValueError) as refused:
        call(table)
    assert str(refused.value) == message.format(name=name, shape=table.shape)

