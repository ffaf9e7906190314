"""Shared hypothesis strategies and settings for the test suite.

Config-generation strategies used to be duplicated per test module
(platform documents in ``test_platform_fuzz``, seed ranges in
``test_kernel_fastpath``, registry pairings in ``test_bridge_matrix``);
they live here once, together with the DSE strategies
(``test_dse_properties``), so every property suite fuzzes the same
configuration space.
"""

from hypothesis import HealthCheck, assume, settings, strategies as st

#: The suite-wide property-test settings: few examples (each one runs a
#: real simulation), no deadline (CI machines vary), health checks that
#: would flag slow simulations suppressed.
FUZZ_SETTINGS = settings(max_examples=12, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

#: Pure-function property settings: more examples, still no deadline.
FAST_SETTINGS = settings(max_examples=60, deadline=None)

#: The differential harness's seed domain (``repro.check.random_config``).
config_seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: Registry pairings, for sampling a source -> dest bridge.
def bridge_pairs():
    from repro.bridge import bridge_matrix

    return st.sampled_from(sorted(bridge_matrix()))


@st.composite
def platform_documents(draw):
    """A random (valid) platform document, small enough to run quickly."""
    protocol = draw(st.sampled_from(["stbus", "ahb", "axi"]))
    topology = draw(st.sampled_from(["distributed", "collapsed"]))
    clusters = []
    for c in range(draw(st.integers(1, 2))):
        ips = []
        for i in range(draw(st.integers(1, 2))):
            ips.append({
                "name": f"ip{c}_{i}",
                "transactions": draw(st.integers(2, 8)),
                "burst_beats": draw(st.sampled_from([1, 4, 8])),
                "read_fraction": draw(st.sampled_from([0.0, 0.5, 1.0])),
                "idle_cycles": draw(st.integers(0, 8)),
                "message_packets": draw(st.sampled_from([1, 2])),
                "max_outstanding": draw(st.integers(1, 4)),
            })
        clusters.append({
            "name": f"c{c}",
            "freq_mhz": draw(st.sampled_from([125, 166, 200, 250])),
            "data_width_bytes": draw(st.sampled_from([4, 8])),
            "stbus_type": draw(st.sampled_from([1, 2, 3])),
            "ips": ips,
        })
    memory = {"kind": draw(st.sampled_from(["onchip", "lmi"]))}
    if memory["kind"] == "onchip":
        memory["wait_states"] = draw(st.integers(0, 4))
    return {
        "protocol": protocol,
        "topology": topology,
        "memory": memory,
        "cpu": {"enabled": False},
        "clusters": clusters,
        "seed": draw(st.integers(1, 50)),
    }


# ---------------------------------------------------------------------------
# DSE strategies (pure search-core inputs: no simulation involved)
# ---------------------------------------------------------------------------

def objective_values():
    """One canonical objective component: finite, non-negative.

    Mixes a continuous range with small integers so exact ties (the
    dominance edge case) actually occur.
    """
    return st.one_of(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                  allow_infinity=False),
        st.integers(min_value=0, max_value=4).map(float),
    )


def objective_vectors(dimensions):
    """A random objective vector of fixed dimensionality."""
    return st.tuples(*[objective_values()] * dimensions)


@st.composite
def labeled_populations(draw, min_size=1, max_size=24,
                        min_dimensions=1, max_dimensions=4):
    """A population of uniquely-keyed points sharing one dimensionality."""
    from repro.dse import Point

    dimensions = draw(st.integers(min_dimensions, max_dimensions))
    count = draw(st.integers(min_size, max_size))
    vectors = draw(st.lists(objective_vectors(dimensions),
                            min_size=count, max_size=count))
    return [Point(key=f"p{i}", vector=v) for i, v in enumerate(vectors)]


@st.composite
def dse_search_spaces(draw):
    """A small random DSE search space over a fixed tiny base platform.

    Axis values are drawn from the real translators (topology, protocol,
    arbitration, fifo_depth, dotted paths), so candidate enumeration,
    conflict filtering and the optimizer's variation operators are
    exercised against genuine platform documents.
    """
    from repro.dse import parse_dse
    from repro.platforms.loader import ConfigError

    axes = {}
    if draw(st.booleans()):
        axes["topology"] = draw(st.lists(
            st.sampled_from(["shared", "partial", "crossbar"]),
            min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        axes["protocol"] = draw(st.lists(
            st.sampled_from(["stbus", "ahb", "axi"]),
            min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        axes["arbitration"] = draw(st.lists(
            st.sampled_from(["message", "packet"]),
            min_size=1, max_size=2, unique=True))
    if draw(st.booleans()):
        axes["fifo_depth"] = draw(st.lists(
            st.sampled_from([1, 2, 4, 8]),
            min_size=1, max_size=3, unique=True))
    axes.setdefault("memory.wait_states",
                    draw(st.lists(st.sampled_from([0, 1, 2, 4]),
                                  min_size=1, max_size=3, unique=True)))
    document = {
        "base": {"protocol": "stbus", "topology": "collapsed",
                 "traffic_scale": 0.05, "cpu": {"enabled": False}},
        "axes": axes,
        "objectives": ["latency", "utilization", "cost"],
        "optimizer": {"seed": draw(st.integers(0, 2**16))},
    }
    try:
        return parse_dse(document)
    except ConfigError:
        # e.g. axes pinning topology=crossbar with a non-STBus protocol:
        # every assignment conflicts, so there is no space to test.
        assume(False)
