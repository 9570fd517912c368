"""Shared hypothesis strategies for JSON-shaped values and watch conditions,
and a seeded generator of small wedding scenarios."""
from __future__ import annotations

import json
import random
from importlib import resources

from hypothesis import strategies as st

from camcp.scenarios import scenario_from_value
from camcp.store import And, Equals, Exists, Not, Or

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)

json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)

keys = st.sampled_from(["a", "b", "c", "d", "e"])
small_values = st.sampled_from([None, True, False, 0, 1, 2, "x", [1], {"k": 1}])


def conditions(depth: int = 2):
    leaf = st.one_of(
        st.builds(Exists, keys),
        st.builds(Equals, keys, small_values),
    )
    if depth == 0:
        return leaf
    sub = conditions(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda cs: And(tuple(cs)), st.lists(sub, min_size=1, max_size=3)),
        st.builds(lambda cs: Or(tuple(cs)), st.lists(sub, min_size=1, max_size=3)),
        st.builds(Not, sub),
    )


def generated_wedding(seed: int):
    """A small random wedding scenario: ready times, capacities, the vehicle
    and the deadline all vary with ``seed``."""
    rng = random.Random(seed)

    def rows(prefix: str, n: int) -> list[dict]:
        return [
            {"id": f"{prefix}{i}", "ready_time_min": 15 * rng.randrange(12)} for i in range(n)
        ]

    value = json.loads(resources.files("camcp").joinpath("data", "wedding_p5.json").read_text())
    value["name"] = f"generated_{seed}"
    value["data_tables"]["guests"] = rows("g", rng.randint(1, 12))
    value["data_tables"]["errands"] = rows("e", rng.randint(1, 8))
    value["data_tables"]["vehicle"] = {
        "capacity": rng.randint(1, 4),
        "trip_duration_min": rng.choice([10, 30, 45]),
    }
    value["constraints"] = {"vehicle_capacity": rng.randint(1, 4)}
    if rng.random() < 0.7:
        value["constraints"]["deadline_min"] = rng.choice([60, 180, 360, 900])
    return scenario_from_value(value)
