import configparser

import pytest

from tce.config import SECTIONS, config_digest, load_config
from tce.errors import ConfigError

from conftest import FESTIVAL_INI

MINIMAL = """\
[venue]
precinct_min = 0 0
precinct_max = 10 10

[time]
step_seconds = 60
instant_count = 4

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

LOAD = """
[input]
trace_file = t.csv
traffic_file = f.csv
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


def test_blank_line_inside_a_table_is_skipped(tmp_path):
    # configparser keeps a blank line inside an indented value; no row reads it
    plain = load_config(write_cfg(tmp_path, MINIMAL.replace("1.0 5", "1/2 5\n    1/2 9")))
    blank = load_config(write_cfg(tmp_path, MINIMAL.replace("1.0 5", "1/2 5\n\n    1/2 9")))
    assert len(blank.traffic.tiers) == 2
    assert config_digest(blank) == config_digest(plain)


def test_missing_section_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"\[time\]"):
        load_config(write_cfg(tmp_path, MINIMAL.replace("[time]", "[tim]")))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("k_inside = 1", "k_inside = 1\nk_insde = 2",
         r"\[clustering\] k_insde: unknown key; \[clustering\] reads k_inside, k_outside$"),
        ("window_size = 1", "window_size = 1\n[report]\nbin_cont = 20", r"\[report\] bin_cont: unknown key"),
        ("[clustering]", "[clusterng]", r"unknown section \[clusterng\]; sections are \[venue\], \[time\], \[input\]"),
        ("[venue]", "[DEFAULT]\nbase_seed = 3\n\n[venue]", r"unknown section \[DEFAULT\]$"),
        ("[scenario]", "[input]\ntrace_format = waypoint\n[scenario]",
         r"\[input\] trace_format: unknown key; \[input\] reads trace_file, traffic_file$"),
        ("window_size = 1", "window_size = 1\n[output]\ndirectory = out", r"unknown section \[output\]"),
    ],
    ids=[
        "misspelled_key", "key_of_no_section", "misspelled_section", "default_section",
        "trace_format_key", "output_section",
    ],
)
def test_unknown_name_is_config_error(tmp_path, old, new, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write_cfg(tmp_path, MINIMAL.replace(old, new)))


def test_keys_of_either_mode_accepted(tmp_path):
    # [input] keys load a trace; a loading config may keep [scenario] and [traffic]
    load = load_config(write_cfg(tmp_path, MINIMAL + LOAD))
    assert (load.trace_file, load.traffic_file, load.user_count) == ("t.csv", "f.csv", None)
    generate = load_config(write_cfg(tmp_path, MINIMAL))
    assert (generate.trace_file, generate.user_count) == (None, 2)


# a second valid value of every key: unlike its MINIMAL (+ LOAD) value or default
SECOND_VALUES = {
    ("venue", "precinct_min"): "1 0",
    ("venue", "precinct_max"): "10 9",
    ("venue", "outside_regions"): "10 2 12 8",
    ("venue", "index_scale"): "2.0",
    ("time", "step_seconds"): "30",
    ("time", "instant_count"): "5",
    ("input", "trace_file"): "u.csv",
    ("input", "traffic_file"): "g.csv",
    ("scenario", "user_count"): "3",
    ("scenario", "speed_min"): "0.1",
    ("scenario", "speed_max"): "0.4",
    ("scenario", "pause_instants"): "1",
    ("scenario", "attractors"): "a 1.0 1 1 8 8",
    ("traffic", "tiers"): "1.0 6",
    ("clustering", "k_inside"): "2",
    ("clustering", "k_outside"): "2",
    ("prediction", "window_size"): "2",
    ("prediction", "scope"): "general",
    ("prediction", "run_count"): "2",
    ("prediction", "base_seed"): "1",
    ("report", "plot_users"): "0",
    ("report", "bin_count"): "5",
}


@pytest.mark.parametrize(
    "section, key",
    [(section, key) for section, keys in SECTIONS.items() for key in keys],
    ids=lambda name: name,
)
def test_every_key_changes_the_config(tmp_path, section, key):
    # a key whose second value gives the same RunConfig is a key nothing reads;
    # the [input] keys are read by a loading config, the others by MINIMAL's
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(MINIMAL + LOAD if section == "input" else MINIMAL)
    configs = []
    for name in ("first.ini", "second.ini"):
        with open(tmp_path / name, "w") as fh:
            parser.write(fh)
        configs.append(config_digest(load_config(tmp_path / name)))
        parser.read_dict({section: {key: SECOND_VALUES[section, key]}})
    assert configs[0] != configs[1]


def test_missing_key_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="user_count"):
        load_config(write_cfg(tmp_path, MINIMAL.replace("user_count = 2", "")))


def test_bad_mode_is_config_error(tmp_path):
    # there is no mode key: [input] trace_file alone picks the trace source
    for value in ("generate", "load", "stream"):
        with pytest.raises(ConfigError, match=r"\[input\] mode: unknown key; \[input\] reads trace_file"):
            load_config(write_cfg(tmp_path, MINIMAL + LOAD + f"mode = {value}\n"))


def test_window_must_fit_grid(tmp_path):
    with pytest.raises(ConfigError, match="window_size"):
        load_config(write_cfg(tmp_path, MINIMAL.replace("window_size = 1", "window_size = 4")))


def test_load_mode_requires_files(tmp_path):
    # either [input] key makes the config load a trace, which needs both files
    for key, missing in [("trace_file", "traffic_file"), ("traffic_file", "trace_file")]:
        text = MINIMAL + f"[input]\n{key} = t.csv\n"
        with pytest.raises(ConfigError, match=f"missing key '{missing}' in section \\[input\\]"):
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


def test_festival_digest_pinned():
    # the manifest's config_digest of the demo; a parser change must keep it
    digest = "fe8843c70fe3556f8a24e30dc5b5620172e7ba9aea927bc06adf19f262a0e86d"
    assert config_digest(load_config(FESTIVAL_INI)) == digest


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("1.0 5", "1/0 5", r"\[traffic\] tiers: line must read 'fraction rate_mbps', got '1/0 5'"),
        ("1.0 5", "1.0", r"\[traffic\] tiers: line must read"),
        ("a 1.0 1 1", "a x 1 1", r"\[scenario\] attractors: line must read 'name weight x0 y0 x1 y1'"),
        ("precinct_max = 10 10", "precinct_max = 10 10\noutside_regions =\n    10 2 x 8",
         r"\[venue\] outside_regions: line must read 'x0 y0 x1 y1', got '10 2 x 8'"),
        ("precinct_max = 10 10", "precinct_max = 10 1/0", r"\[venue\] precinct_max: bad value"),
        ("window_size = 1", "window_size = 1\n[report]\nplot_users = 0 5%", r"\[report\] plot_users: bad value"),
        ("window_size = 1", "window_size = 1\n[report]\nplot_users = 0 0 1",
         r"\[report\] plot_users: bad value '0 0 1' \(user id 0 is listed twice\)"),
        ("user_count = 2", "user_count = 0", r"\[scenario\] user_count: bad value '0'"),
        ("window_size = 1", "window_size = 1\nbase_seed = -1", r"\[prediction\] base_seed: bad value '-1'"),
        ("    a 1.0 1 1 9 9", "", "at least one attractor"),
        ("a 1.0 1 1 9 9", "a 1.0 9 1 1 9",
         r"\[scenario\] attractors: line must read 'name weight x0 y0 x1 y1', "
         r"got 'a 1.0 9 1 1 9' \(Rect.lo must be < Rect.hi"),
        ("precinct_max = 10 10", "precinct_max = 10 10\noutside_regions =\n    10 8 12 2",
         r"\[venue\] outside_regions: line must read 'x0 y0 x1 y1', got '10 8 12 2' \(Rect.lo"),
        ("speed_min = 0", "speed_min = 1.0", r"\[scenario\] need finite 0 <= speed_min <= speed_max"),
        ("1.0 5", "1.0 -1", r"\[traffic\] tiers: tier rate must be finite and >= 0, got -1.0"),
        ("1.0 5", "1/2 5\n    2/3 5", r"\[traffic\] tiers: tier fractions must sum to 1"),
        ("step_seconds = 60", "step_seconds = 0", r"\[time\] step_seconds must be positive"),
        ("window_size = 1", "window_size = 1\nscope = both", r"\[prediction\] scope must be"),
        ("precinct_max = 10 10", "precinct_max = 0 10",
         r"\[venue\] precinct_min must be < precinct_max"),
        ("precinct_max = 10 10", "precinct_max = 10 10\noutside_regions =\n    5 2 12 8",
         r"\[venue\] outside_regions\[0\] overlaps the precinct"),
        ("precinct_min = 0 0", "precinct_min = 0", r"\[venue\] precinct_min must be a 2-vector"),
        ("window_size = 1", "window_size = 0", r"\[prediction\] window_size must be >= 1, got 0$"),
        ("tiers =\n    1.0 5", "tiers =", r"\[traffic\] tiers: at least one traffic tier is required"),
        ("1.0 5", "0 10", r"\[traffic\] tiers: tier fraction must lie in \(0, 1\], got 0.0"),
        ("speed_max = 0.5", "speed_max = 0.5\npause_instants = 10000000000000000000",
         r"\[scenario\] pause_instants must be below 2\*\*63, got 10000000000000000000$"),
    ],
    ids=[
        "tier_div_zero", "tier_field_count", "attractor_weight", "region_number",
        "precinct_div_zero", "plot_users_percent", "plot_users_repeated", "user_count_zero", "base_seed_negative",
        "no_attractors", "attractor_reversed", "region_reversed", "speed_min_above_max",
        "tier_rate_negative", "tier_fractions_sum", "step_seconds_zero", "scope_unknown",
        "precinct_empty", "region_overlaps_precinct", "precinct_min_shape", "window_size_zero",
        "tiers_empty", "tier_fraction_zero", "pause_past_int64",
    ],
)
def test_malformed_value_names_key(tmp_path, old, new, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write_cfg(tmp_path, MINIMAL.replace(old, new)))


@pytest.mark.parametrize(
    "old, new",
    [
        ("speed_min = 0\nspeed_max = 0.5", "speed_min = inf\nspeed_max = inf"),
        ("speed_max = 0.5", "speed_max = inf"),
        ("1.0 5", "1.0 nan"),
    ],
    ids=["speeds_inf", "speed_max_inf", "rate_nan"],
)
def test_non_finite_mobility_and_traffic_rejected(tmp_path, old, new):
    with pytest.raises(ConfigError, match="finite"):
        load_config(write_cfg(tmp_path, MINIMAL.replace(old, new)))


def test_unreadable_config_names_file(tmp_path):
    folder = tmp_path / "folder.ini"
    folder.mkdir()
    with pytest.raises(ConfigError, match="folder.ini: cannot read"):
        load_config(folder)
    binary = tmp_path / "binary.ini"
    binary.write_bytes(MINIMAL.encode().replace(b"0 0", b"0 \xff"))
    with pytest.raises(ConfigError, match="binary.ini: cannot read"):
        load_config(binary)
