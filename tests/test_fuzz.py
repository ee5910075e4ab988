"""Fuzzed config and scenario documents: each one is accepted or ends in a
parse error that names its path, never in another exception.

The documents are mostly well formed, with any part replaced now and then
by an arbitrary JSON value, so that the fuzz reaches the deep checks and
not only the first one; a scenario file is also fuzzed as raw bytes.
Only parsing is fuzzed.  ``solve`` is not: a
fuzzed pitch or density can legally ask for minutes of work.
"""

import contextlib
import dataclasses
import io
import json
from argparse import Namespace

import pytest
from hypothesis import given, settings, strategies as st

from parkfield import cli
from parkfield.errors import ScenarioError
from parkfield.scenario import (
    APPROACH_SIDES,
    DEFAULT_CLEARANCE_TABLE,
    OCCUPANCIES,
    RECT_LABELS,
    SEAT_POSITIONS,
)
from parkfield.solver import SamplingPlan, SolverConfig

FUZZ = settings(max_examples=300, deadline=None)

values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
# Out-of-range numbers: NaN, infinities, and integers beyond the float range,
# which are legal JSON and overflow float().
wild_numbers = st.floats() | st.integers(min_value=2**1024) | st.integers()


def mostly(good, bad=values):
    """``good`` nine times in ten, else ``bad``."""
    return st.one_of(*[good] * 9, bad)


def number(lo, hi):
    return mostly(st.floats(lo, hi) | st.integers(int(lo), int(hi)), wild_numbers | values)


def objects(keys, value):
    """JSON objects over ``keys``, now and then with an unknown key."""
    return st.dictionaries(mostly(st.sampled_from(keys), st.text(max_size=6)), value, max_size=5)


# -- config documents ---------------------------------------------------------

_OPTION_VALUES = {
    "mode": mostly(st.sampled_from(["grid", "mc", "monte_carlo"])),
    "density": number(-1, 400),
    "seed": mostly(st.integers(), wild_numbers),
    "starts": mostly(st.integers(-1, 5), wild_numbers),
    "max_refine_evals": mostly(st.integers(-1, 5000), wild_numbers),
    "headings": mostly(st.lists(number(-7, 7), max_size=3)),
    "rect_weights": mostly(objects(RECT_LABELS, number(-1, 3))),
}


def section(cls):
    keys = [f.name for f in dataclasses.fields(cls)]
    return mostly(
        st.fixed_dictionaries(
            {}, optional={k: _OPTION_VALUES.get(k, number(-1, 2)) for k in keys}
        )
    )


configs = mostly(
    st.fixed_dictionaries(
        {},
        optional={
            "sampling": section(SamplingPlan),
            "solver": section(SolverConfig),
            "explain": mostly(st.booleans()),
        },
    )
)

# -- scenario documents -------------------------------------------------------

coordinate = number(-20, 20)
point = mostly(st.tuples(coordinate, coordinate).map(list))
rectangle = st.builds(
    lambda x, y, length, width: [[x, y], [x + length, y], [x + length, y + width], [x, y + width]],
    st.floats(-20, 20), st.floats(-20, 20), st.floats(3, 8), st.floats(1.5, 4),
)
spot = mostly(
    st.fixed_dictionaries(
        {"id": mostly(st.just("a"), st.text(max_size=2) | values)},
        optional={"approach_side": mostly(st.sampled_from(APPROACH_SIDES))},
    ).flatmap(
        lambda head: st.one_of(
            st.fixed_dictionaries(
                {"corners": mostly(rectangle, st.lists(point, max_size=5))}
            ),
            st.fixed_dictionaries(
                {"center": point, "length": number(0, 8), "width": number(0, 4)},
                optional={"heading": number(-7, 7)},
            ),
        ).map(lambda body: {**head, **body})
    )
)
obstacle = mostly(
    st.fixed_dictionaries(
        {
            "id": mostly(st.sampled_from(["o", "p", "q"])),
            "vertices": mostly(st.lists(point, min_size=3, max_size=6)),
        }
    )
)
cabin = mostly(
    st.fixed_dictionaries(
        {},
        optional={
            "seats": mostly(objects(SEAT_POSITIONS, mostly(st.sampled_from(OCCUPANCIES)))),
            "trunk_loaded": mostly(st.booleans()),
        },
    )
)
vehicle = mostly(
    st.fixed_dictionaries(
        {},
        optional={
            "body_length": number(0, 6),
            "body_width": number(0, 3),
            "clearance_table": mostly(objects(tuple(DEFAULT_CLEARANCE_TABLE), number(0, 2))),
        },
    )
)
def _distinct_ids(spots):
    """Suffix each spot's id ``"a"`` with its index, so most ids are distinct."""
    return [
        {**s, "id": f"a{i}"} if isinstance(s, dict) and s.get("id") == "a" else s
        for i, s in enumerate(spots)
    ]


scenarios = mostly(
    st.fixed_dictionaries(
        {"spots": mostly(st.lists(spot, min_size=1, max_size=3).map(_distinct_ids))},
        optional={
            "obstacles": mostly(st.lists(obstacle, max_size=3)),
            "cabin": cabin,
            "vehicle": vehicle,
        },
    )
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(config=configs)
def test_fuzzed_config_loads_or_names_its_path(fuzz_dir, config):
    path = fuzz_dir / "config.json"
    path.write_text(json.dumps(config))
    args = Namespace(sampling=None, density=None, seed=None)
    try:
        plan, solver_config, explain = cli._load_config(str(path), args)
    except ScenarioError as exc:
        assert exc.path.startswith("config"), exc
        return
    # An accepted config echoes into the report as strict JSON.
    json.dumps(cli._config_echo(plan, solver_config, explain), allow_nan=False)


@FUZZ
@given(doc=scenarios)
@pytest.mark.filterwarnings("ignore:.*clockwise vertex order")
def test_fuzzed_scenario_validates_or_exits_2(fuzz_dir, doc):
    path = fuzz_dir / "scenario.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["validate", str(path)])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")



def _splice(doc, junk, at):
    """A scenario document's bytes with ``junk`` inserted at index ``at``."""
    data = json.dumps(doc).encode()
    at %= len(data) + 1
    return data[:at] + junk + data[at:]


@FUZZ
@given(content=st.binary() | st.builds(_splice, scenarios, st.binary(min_size=1, max_size=4), st.integers(0)))
@pytest.mark.filterwarnings("ignore:.*clockwise vertex order")
def test_fuzzed_scenario_bytes_validate_or_exit_2(fuzz_dir, content):
    path = fuzz_dir / "scenario.bin"
    path.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["validate", str(path)])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
