"""One rule for every (users, instants) table of zone ids: each entry point
that takes one refuses the same fault with the same ValueError text, naming
the argument that holds the table."""

import numpy as np
import pytest

import tce
from tce.markov import PredictionRun, WindowConfig
from tce.zoning import _zone_table

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


def zoning(labels=GOOD, k=K):
    """INSIDE and OUTSIDE, with k - K more outside zones after them."""
    return tce.Zoning(INSIDE, OUTSIDE + [[60.0 + z, 40.0] for z in range(k - K)], labels)


def entry_points(k):
    """Entry point -> (call with the table at zone count ``k``, the name its
    refusal gives, whether it is given a shape the table must have: Zoning,
    build_general_matrix and predict_labels take a table of any (users,
    instants) shape, so they have no "wrong_shape")."""
    return {
        "Zoning": (lambda t: zoning(t, k), "labels", False),
        "build_general_matrix": (lambda t: tce.build_general_matrix(t, k), "labels", False),
        "run_prediction": (
            lambda t: tce.run_prediction(TRACES, zoning(t, k), WindowConfig(WINDOW), 0), "labels", True
        ),
        "aggregate_real": (lambda t: tce.aggregate(TRACES, t, GOOD, k), "labels_real", True),
        "aggregate_pred": (lambda t: tce.aggregate(TRACES, GOOD, t, k), "labels_pred", True),
        "error_series": (
            lambda t: tce.error_series(zoning(k=k), PredictionRun(t, WINDOW), (0, 0), (60 + k, 80)),
            "labels_pred",
            True,
        ),
    }


ENTRY_POINTS = entry_points(K)


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



# the [0, k) check reads the table as int64, so it must read narrow, unsigned
# and big-endian tables as their values
DTYPES = ["int8", "int32", "uint16", ">i8"]
INTEGER_FAULTS = ["id_minus_1", "id_k", "wrong_shape", "3d", "empty"]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "entry, fault",
    [
        (entry, fault)
        for entry, (_, _, shaped) in ENTRY_POINTS.items()
        for fault in INTEGER_FAULTS
        if shaped or fault != "wrong_shape"
    ],
)
def test_every_entry_point_refuses_any_integer_dtype_with_one_text(entry, fault, dtype):
    call, name, _ = ENTRY_POINTS[entry]
    table, message = BAD_TABLES[fault]
    with pytest.raises(ValueError) as refused:
        call(table.astype(dtype))  # -1 wraps to 65535 in uint16, still outside [0, 3)
    assert str(refused.value) == message.format(name=name, shape=table.shape)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_accepts_a_good_table_of_any_integer_dtype(entry, dtype):
    call, _, _ = ENTRY_POINTS[entry]
    table = GOOD.astype(dtype)
    assert table.dtype == np.dtype(dtype)
    call(table)


def test_big_endian_table_reads_as_its_values():
    # a native u8 view of a '>i8' table would read GOOD's 1 as 2**56
    table = GOOD.astype(">i8")
    assert np.array_equal(tce.Zoning(INSIDE, OUTSIDE, table).labels, GOOD)
    assert np.array_equal(
        tce.build_general_matrix(table, K).counts, tce.build_general_matrix(GOOD, K).counts
    )


# a negative id reads as at least 2**(bits-1) through the unsigned view, so
# where k passes that, the view alone would read int8 -100 (156) as inside
# [0, 200), and int16 -100 (65436) as inside [0, 65500); every entry point
# that takes k must still refuse them
SIGNED_PAST_K = [("int8", 200), ("int16", 65500)]


@pytest.mark.parametrize("dtype, k", SIGNED_PAST_K)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_negative_id_refused_where_k_passes_the_signed_range(entry, dtype, k):
    call, name, _ = entry_points(k)[entry]
    with pytest.raises(ValueError) as refused:
        call(with_zone(-100).astype(dtype))
    assert str(refused.value) == f"{name} contains zone ids outside [0, {k})"


@pytest.mark.parametrize("dtype, k", SIGNED_PAST_K)
def test_predict_labels_refuses_negative_id_where_k_passes_the_signed_range(dtype, k):
    with pytest.raises(ValueError) as refused:
        tce.markov.predict_labels(with_zone(-100).astype(dtype), k, WindowConfig(WINDOW), [0])
    assert str(refused.value) == f"labels contains zone ids outside [0, {k})"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_signed_max_accepted_where_k_passes_the_signed_range(entry):
    call, _, _ = entry_points(200)[entry]
    call(with_zone(127).astype(np.int8))


INTEGER_DTYPES = ["int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "uint64"]


def min_max_refuses(table, k):
    """The oracle: a table is refused when an id lies below 0, or at k or
    above, or past int64, which the table is returned as (a uint64 id of
    2**63 at k = 2**63 + 1)."""
    return int(table.min()) < 0 or int(table.max()) >= min(k, 2**63)


@pytest.mark.parametrize("byte_order", ["<", ">"])
@pytest.mark.parametrize("dtype", INTEGER_DTYPES)
def test_one_max_over_int64_refuses_exactly_what_min_and_max_refuse(dtype, byte_order):
    info = np.iinfo(dtype)
    half = 1 << (info.bits - 1)
    rng = np.random.default_rng(info.bits)
    for k in (1, half - 1, half, half + 1):
        # ranges between the dtype's extremes, 0 and both sides of k and 2**(bits-1)
        ends = (info.min, -1, 0, 1, k - 1, k, half - 1, half, info.max)
        ends = sorted({e for e in ends if info.min <= e <= info.max})
        for lo in ends:
            for hi in (e for e in ends if e >= lo):
                table = rng.integers(lo, hi, (6, 8), dtype=dtype, endpoint=True)
                table[0, 0], table[-1, -1] = lo, hi
                table = table.astype(np.dtype(dtype).newbyteorder(byte_order))
                for view in (table, table[::2, ::3], table.T):
                    if min_max_refuses(view, k):
                        with pytest.raises(ValueError, match=r"contains zone ids outside"):
                            _zone_table(view, k, "labels")
                    else:
                        assert np.array_equal(_zone_table(view, k, "labels"), view)
