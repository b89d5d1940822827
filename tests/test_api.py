import numpy as np
import pytest

import tce
from tce.core import Rect, TimeGrid
from tce.markov import PredictionRun, WindowConfig
from tce.metrics import ErrorSeries
from tce.scenario import Attractor, MobilityParams


def test_every_export_resolves_once_in_sorted_order():
    assert tce.__all__ == sorted(set(tce.__all__))
    namespace = {}
    exec("from tce import *", namespace)
    for name in tce.__all__:
        assert namespace[name] is getattr(tce, name)


LABELS = np.zeros((2, 4), np.int64)
ATTRACTORS = (Attractor(Rect((0, 0), (1, 1)), 1.0, "all"),)

# class or function -> (its integer field or argument, build one holding ``value`` there and read it back)
INTEGER_FIELDS = {
    "WindowConfig": ("window_size", lambda v: WindowConfig(v).window_size),
    "TimeGrid": ("instant_count", lambda v: TimeGrid(300.0, v).instant_count),
    "MobilityParams": (
        "pause_instants",
        lambda v: MobilityParams(0.0, 1.0, ATTRACTORS, pause_instants=v).pause_instants,
    ),
    "PredictionRun": ("window_size", lambda v: PredictionRun(LABELS, v).window_size),
    "ErrorSeries": ("first_instant", lambda v: ErrorSeries(np.zeros((2, 2)), v).first_instant),
    "generate_scenario": ("user_count", lambda v: tce.generate_scenario(
        tce.Venue(Rect((0, 0), (1, 1))), TimeGrid(300.0, 2), v, MobilityParams(0.0, 1.0, ATTRACTORS),
        tce.TrafficTiers(((1.0, 0.0),)), 0,
    ).user_count),
    # two distinct points inside the unit precinct and two outside it
    "cluster(k_inside)": ("k_inside", lambda v: len(tce.cluster(
        tce.TraceSet([[[0.2, 0.2], [0.8, 0.8]], [[1.5, 0.5], [1.8, 0.5]]], [0.0, 0.0]),
        tce.Venue(Rect((0, 0), (1, 1))), v, 1, 0,
    ).inside_centroids)),
    "cluster(k_outside)": ("k_outside", lambda v: len(tce.cluster(
        tce.TraceSet([[[0.2, 0.2], [0.8, 0.8]], [[1.5, 0.5], [1.8, 0.5]]], [0.0, 0.0]),
        tce.Venue(Rect((0, 0), (1, 1))), 1, v, 0,
    ).outside_centroids)),
}


@pytest.mark.parametrize("value", [2.7, 2.5, np.float64(2.000001), np.nan, np.inf, "2", None])
@pytest.mark.parametrize("owner", INTEGER_FIELDS)
def test_integer_fields_refuse_values_that_are_not_integral(owner, value):
    # int() used to truncate 2.7 to 2, and PredictionRun kept 2.5 until
    # error_series sliced with it
    field, build = INTEGER_FIELDS[owner]
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        build(value)


@pytest.mark.parametrize("value", [2, np.int8(2), np.uint64(2), np.int64(2), 2.0])
@pytest.mark.parametrize("owner", INTEGER_FIELDS)
def test_integer_fields_keep_python_and_numpy_integers(owner, value):
    _, build = INTEGER_FIELDS[owner]
    kept = build(value)
    assert kept == 2 and type(kept) is int
