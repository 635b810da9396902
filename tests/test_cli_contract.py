"""The CLI's exit contract under fuzzed argv: ``main`` returns a documented
code, never raises, and never prints a traceback.

Argv is built from the three commands and their options, with values that
are valid, malformed or out of range, and state files whose bodies are
drawn JSON documents (malformed text, booleans, NaN or huge numbers, wrong
shapes).  ``--n`` stays small (3 for ``teleport`` and ``circuit``, 2 for
``verify``, plus values over the capacity) so the test runs in seconds.
Exit 1 is a failed fidelity or verification check, which no valid run
here can reach.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qteleport.cli import EX_FILE, EX_OK, EX_STATE, EX_USAGE, main

DIR = "{dir}"  # replaced by the test's scratch directory
STATE_FILE = f"{DIR}/state.json"

# (valid, invalid) values of each option
VALUES = {
    "--seed": (("0", "1", "7", "99999999999999999999"), ("-1", "x", "")),
    "--state": (("random", "literal", STATE_FILE), (f"{DIR}/absent.json", "-0.5,1")),
    "--format": (("json", "text"), ("xml",)),
    "--out": ((f"{DIR}/out.txt",), (DIR, f"{DIR}/missing/out.txt", "")),
}
N_VALUES = {
    "teleport": (("1", "2", "3"), ("0", "-1", "8", "x")),
    "circuit": (("1", "2", "3"), ("0", "-1", "8", "x")),
    "verify": (("1", "2"), ("0", "-1", "6", "x")),
}
# options each command takes; a foreign option may still come as an extra
OPTIONS = {
    "teleport": ("--n", "--seed", "--state", "--format", "--out"),
    "verify": ("--n", "--seed", "--format", "--out"),
    "circuit": ("--n", "--out"),
}
EXTRAS = ((), ("-h",), ("--state", "1,0"), ("--format", "text"), ("extra",), ("--n",))
NUMBERS = ("1", "0", "0.6", "0.8i", "0+0.8i", "0.5", "0.5i", "-0.5", "1e300", "1e-300")
NOT_NUMBERS = ("nan", "inf", "1e400", "abc", "", "i", "0x1")
PARTS = (0.0, 0.5, -0.6, 0.8, 1.0, 1e300)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["n_qubits", "amplitudes", "x"]), children, max_size=3),
    max_leaves=12,
)
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
)
free_documents = st.fixed_dictionaries(
    {
        "n_qubits": st.one_of(st.integers(-1, 30), st.booleans(), st.floats(), st.text(max_size=2)),
        "amplitudes": st.lists(st.lists(numbers, min_size=1, max_size=3), max_size=9),
    }
).map(json.dumps)


def sized(n, strategy):
    """A list of 2^n drawn items, or of another length now and then."""
    count = 1 << int(n) if n in ("1", "2", "3") else 2
    return st.sampled_from((count, count, count + 1)).flatmap(
        lambda size: st.lists(strategy, min_size=size, max_size=size)
    )


@st.composite
def runs(draw):
    """An argv and the body of the state file it may name.  The command's
    options come in any order, all valid but for at most one that is
    missing or invalid, then maybe one extra argument."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    values = dict(VALUES, **{"--n": N_VALUES[command]})
    options = draw(st.permutations(OPTIONS[command]))
    flawed = draw(st.sampled_from([None] * len(options) + options))
    drop = draw(st.booleans())
    argv, n = [command], "1"
    for flag in options:
        valid, invalid = values[flag]
        if flag == flawed and drop:
            continue
        value = draw(st.sampled_from(invalid if flag == flawed else valid))
        if flag == "--n":
            n = value
        argv += [flag, value]
    if "literal" in argv:
        tokens = st.sampled_from(NUMBERS if draw(st.booleans()) else NUMBERS + NOT_NUMBERS)
        argv[argv.index("literal")] = ",".join(draw(sized(n, tokens)))
    argv += draw(st.sampled_from(EXTRAS))
    shaped = st.fixed_dictionaries(
        {
            "n_qubits": st.sampled_from((int(n), 1)) if n.isdigit() else st.just(1),
            "amplitudes": sized(n, st.lists(st.sampled_from(PARTS), min_size=2, max_size=2)),
        }
    ).map(json.dumps)
    body = draw(
        st.one_of(
            shaped,
            shaped.map(lambda text: text[: len(text) // 2]),  # cut short
            free_documents,
            json_values.map(json.dumps),
        )
    )
    return argv, body


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_contract")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_exit_code_is_documented_and_nothing_raises(scratch_dir, run):
    argv, body = run
    (scratch_dir / "state.json").write_text(body, encoding="utf-8")
    argv = [token.replace(DIR, str(scratch_dir)) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {EX_OK, EX_FILE, EX_STATE, EX_USAGE}, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
