"""Property test of config text: a mutated valid config either parses into a
RunConfig whose builders work, or fails with a one-line ConfigError that the
CLI maps to its documented exit code."""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import (HealthCheck, assume, find, given, settings,
                        strategies as st)

from lerayflow.cli import (EXIT_CHECK_FAILED, EXIT_INVARIANT, EXIT_OK,
                           EXIT_SYNTAX, EXIT_UNKNOWN_KEY, main)
from lerayflow.config import _KEYS, parse_config, parse_config_file
from lerayflow.errors import (ConfigError, ConfigSyntaxError,
                              InvariantViolation, LerayflowError,
                              UnknownKeyError)

BASE = {
    "grid": {"dim": "2", "n": "16"},
    "model": {"kind": "leray-alpha", "nu": "0.02", "alpha": "0.2",
              "theta": "0.25"},
    "forcing": {"mode_1": "1 2 : 0.2 0.0 -0.1 0.0 : 0.5"},
    "initial": {"preset": "random", "seed": "9", "cutoff_shell": "4"},
    "stepper": {"dt": "0.001", "t_end": "0.01"},
    "output": {"directory": "out", "checkpoint_every": "5"},
}
# The second base reaches the checks of the Taylor-Green preset (2D, L = 2*pi).
TAYLOR_GREEN = {
    "grid": {"dim": "2", "n": "16"},
    "model": {"kind": "nse", "nu": "0.02"},
    "initial": {"preset": "taylor-green"},
    "stepper": {"dt": "0.001", "t_end": "0.01"},
    "output": {"directory": "out", "checkpoint_every": "5"},
}

KEYS = sorted((section, key) for section, keys in _KEYS.items()
              for key in keys) + [("forcing", "mode_1"), ("forcing", "mode_2")]

# Small ints keep every grid that parses at desk scale; ints beyond int64
# are what "huge" means here.
TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.sampled_from([
        "nan", "inf", "-inf", "NaN", "1e400", "-0.0", "5e-324", "1e308",
        str(10 ** 30), str(-2 ** 64), "9" * 400, "", "x", "true", "False",
        "0x10", "1_000", "nse", "mhd-deconv",
        "checkpoint", "taylor-green", "1 2 : nan 0 0 0", "1 2 : 1 0 -0.5 0 : inf",
        "1 : 0 0", "0 0 : 0 0 0 0"]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
            max_size=6),
)

MALFORMED = ["[grid", "novalue", "= 3", "[nosuch]", "[]", "key = 1"]

EXIT_FOR = {None: EXIT_OK, ConfigSyntaxError: EXIT_SYNTAX,
            UnknownKeyError: EXIT_UNKNOWN_KEY,
            InvariantViolation: EXIT_INVARIANT}


def render(sections) -> list[str]:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    return lines


@st.composite
def config_texts(draw):
    base = draw(st.sampled_from([BASE, TAYLOR_GREEN]))
    sections = {section: dict(entries) for section, entries in base.items()}
    for _ in range(draw(st.integers(1, 3))):
        section, key = draw(st.sampled_from(KEYS))
        sections.setdefault(section, {})[key] = draw(TOKENS)
    if base is TAYLOR_GREEN and draw(st.booleans()):
        sections["grid"]["length"] = draw(TOKENS)
    lines = render(sections)
    edit = draw(st.sampled_from([None] * 6 + ["unknown", "duplicate",
                                              "malformed"]))
    if edit is not None:
        at = draw(st.integers(0, len(lines)))
        if edit == "unknown":
            line = f"{draw(st.from_regex(r'[a-z_]{1,8}', fullmatch=True))} = 1"
        elif edit == "duplicate":
            line = lines[draw(st.integers(0, len(lines) - 1))]
        else:
            line = draw(st.sampled_from(MALFORMED))
        lines.insert(at, line)
    return "\n".join(lines) + "\n"


def test_base_config_parses():
    for base in (BASE, TAYLOR_GREEN):
        assert parse_config("\n".join(render(base))).n == 16


def test_strategy_reaches_the_taylor_green_length_check():
    def refused_length(text):
        try:
            parse_config(text)
        except ConfigError as exc:
            return "Taylor-Green preset needs L = 2*pi" in str(exc)
        return False

    text = find(config_texts(), refused_length,
                settings=settings(derandomize=True, database=None,
                                  max_examples=2000))
    assert "preset = taylor-green" in text and "length = " in text


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(config_texts())
def test_config_text_parses_or_fails_with_one_line(text):
    with warnings.catch_warnings():
        # advisory warnings (a subcritical theta with the unsafe flag) are
        # not failures of the config
        warnings.simplefilter("ignore")
        try:
            rc = parse_config(text)
            error = None
        except ConfigError as exc:
            rc, error = None, type(exc)
            assert "\n" not in str(exc)
        if rc is not None:
            grid = rc.build_grid()
            rc.build_filter()
            rc.build_model()
            try:
                rc.build_stepper().n_steps()
                if rc.preset != "checkpoint":  # that one reads a file
                    rc.build_initial(grid)
            except LerayflowError:
                pass

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["multiplier-table", path])
    assert code == EXIT_FOR[error], err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1


# Byte-level templates, one per field layout: a one-step run at n = 8 each.
BYTE_TEMPLATES = [b"""[grid]
dim = 2
n = 8
[model]
kind = leray-alpha
nu = 0.02
alpha = 0.2
[forcing]
mode_1 = 1 2 : 0.2 0.0 -0.1 0.0 : 0.5
[initial]
preset = random
seed = 9
cutoff_shell = 2
[stepper]
dt = 0.001
t_end = 0.001
[output]
directory = out
""", b"""[grid]
dim = 3
n = 8
[model]
kind = mhd-deconv
nu = 0.05
nu2 = 0.05
alpha = 0.2
n_deconv = 1
[initial]
preset = random
seed = 4
cutoff_shell = 2
[stepper]
dt = 0.001
t_end = 0.001
[output]
directory = out
checkpoint_every = 1
"""]

COMMANDS = {"run": [], "multiplier-table": [],
            "sweep-alpha": ["--alphas", "0.4,0.2,0.1"],
            "sweep-n": ["--orders", "0,1,2"]}

CHUNKS = st.one_of(
    st.binary(min_size=1, max_size=4),
    st.sampled_from([b"\x00", b"\x1b[31m", b"\x07", b"\xef\xbb\xbf", b"\r",
                     b"\xc2\x85", b"\xe2\x80\xa8", b"\xc2\xa0", b"\xff",
                     b"[", b"]", b"=", b"#", b"\n", b" = "]))


@st.composite
def config_bytes(draw):
    data = bytearray(draw(st.sampled_from(BYTE_TEMPLATES)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "delete":
            del data[at:at + draw(st.integers(1, 4))]
        else:
            chunk = draw(CHUNKS)
            data[at:at + len(chunk) * (op == "replace")] = chunk
    return bytes(data)


def _bounded(path: str, here: str) -> bool:
    """Whether the config at path, if it parses, stays small and writes only
    below here: a mutated n or t_end could ask for a large run, and a
    mutated directory for a path elsewhere."""
    try:
        rc = parse_config_file(path)
        steps = rc.build_stepper().n_steps()
    except ConfigError:
        return True
    if rc.n > 16 or steps > 4 or rc.preset == "checkpoint":
        return False
    try:
        target = os.path.realpath(rc.directory or here)
    except ValueError:  # an embedded NUL names no path at all
        return True
    return target == here or target.startswith(here + os.sep)


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=config_bytes(), command=st.sampled_from(sorted(COMMANDS)))
def test_config_bytes_exit_with_one_printable_line(tmp_path, monkeypatch,
                                                   data, command):
    here = os.path.realpath(tmp_path)
    monkeypatch.chdir(here)
    path = os.path.join(here, "fuzzed.cfg")
    with open(path, "wb") as fh:
        fh.write(data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assume(_bounded(path, here))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path] + COMMANDS[command])
    allowed = {EXIT_OK, EXIT_SYNTAX, EXIT_UNKNOWN_KEY, EXIT_INVARIANT}
    if command.startswith("sweep"):
        allowed.add(EXIT_CHECK_FAILED)
    lines = err.getvalue().splitlines()
    assert code in allowed, err.getvalue()
    assert len(lines) <= 1 and all(line.isprintable() for line in lines), \
        lines
