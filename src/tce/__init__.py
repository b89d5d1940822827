"""Joint crowd mobility and traffic modeling for temporary crowded events.

Pipeline: read or generate traces -> fixed K-Means zoning -> sliding-window
transition matrices -> per-user zone forecasts -> per-zone user and traffic
aggregates -> normalized prediction error.
"""

from .aggregation import ZoneSeries, aggregate
from .core import (
    Rect,
    TimeGrid,
    TraceSet,
    Venue,
    real_distance,
)
from .errors import ConfigError, DataError, InfeasibleError, ToolError
from .markov import (
    GENERAL,
    PER_USER,
    PredictionRun,
    TransitionMatrix,
    WindowConfig,
    build_general_matrix,
    run_prediction,
)
from .metrics import (
    ErrorSeries,
    error_histogram,
    error_series,
    histogram_edges,
    position_extent,
)
from .scenario import (
    Attractor,
    MobilityParams,
    TrafficTiers,
    apportion,
    generate_scenario,
)
from .csvio import load_trace, load_waypoint_lines
from .zoning import Zoning, cluster

__version__ = "0.1.0"

__all__ = [
    "Attractor",
    "ConfigError",
    "DataError",
    "ErrorSeries",
    "GENERAL",
    "InfeasibleError",
    "MobilityParams",
    "PER_USER",
    "PredictionRun",
    "Rect",
    "TimeGrid",
    "ToolError",
    "TraceSet",
    "TrafficTiers",
    "TransitionMatrix",
    "Venue",
    "WindowConfig",
    "ZoneSeries",
    "Zoning",
    "aggregate",
    "apportion",
    "build_general_matrix",
    "cluster",
    "error_histogram",
    "error_series",
    "generate_scenario",
    "histogram_edges",
    "load_trace",
    "load_waypoint_lines",
    "position_extent",
    "real_distance",
    "run_prediction",
]
