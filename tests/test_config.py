import pytest

from tce.config import config_digest, load_config
from tce.errors import ConfigError

MINIMAL = """\
[venue]
precinct_min = 0 0
precinct_max = 10 10

[time]
step_seconds = 60
instant_count = 4

[input]
mode = generate

[scenario]
user_count = 2
speed_min = 0
speed_max = 0.5
attractors =
    a 1.0 1 1 9 9

[traffic]
tiers =
    1.0 5

[clustering]
k_inside = 1

[prediction]
window_size = 1
"""


def write_cfg(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.k_outside == 1
    assert cfg.run_count == 1
    assert cfg.window.scope == "per_user"
    assert cfg.bin_count == 10
    assert cfg.plot_users == ()


def test_fraction_syntax(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL.replace("1.0 5", "1/2 5\n    1/2 9")))
    assert cfg.traffic.tiers[0][0] == pytest.approx(0.5)


def test_missing_section_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"\[time\]"):
        load_config(write_cfg(tmp_path, MINIMAL.replace("[time]", "[tim]")))


def test_missing_key_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="user_count"):
        load_config(write_cfg(tmp_path, MINIMAL.replace("user_count = 2", "")))


def test_bad_mode_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        load_config(write_cfg(tmp_path, MINIMAL.replace("mode = generate", "mode = stream")))


def test_window_must_fit_grid(tmp_path):
    with pytest.raises(ConfigError, match="window_size"):
        load_config(write_cfg(tmp_path, MINIMAL.replace("window_size = 1", "window_size = 4")))


def test_load_mode_requires_files(tmp_path):
    text = MINIMAL.replace("mode = generate", "mode = load")
    with pytest.raises(ConfigError, match="trace_file"):
        load_config(write_cfg(tmp_path, text))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_digest_stable_and_sensitive(tmp_path):
    a = load_config(write_cfg(tmp_path, MINIMAL))
    b = load_config(write_cfg(tmp_path, MINIMAL))
    assert config_digest(a) == config_digest(b)
    c = load_config(write_cfg(tmp_path, MINIMAL.replace("user_count = 2", "user_count = 3")))
    assert config_digest(a) != config_digest(c)
