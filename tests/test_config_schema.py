"""The JSON schema and OzawaConfig.from_dict describe one config contract.

Hypothesis generates configs a JSON file could hold (finite numbers only:
`quvar ozawa` rejects the NaN/Infinity literals before either check runs),
starting from a valid one and breaking up to three fields. Schema and
validator must agree on accept or reject, except where the config breaks
one of the cross-field rules the schema cannot express; there only the
validator rejects, and it names the field.

The library entry point keeps the same contract: OzawaConfig(**fields) with
any one field replaced builds a config whose to_dict() the schema accepts,
or raises ConfigError. A guard holds the schema to the keywords the runtime
check reads, so that no rule is enforced by jsonschema alone.
"""

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quvar import FreeMass, OzawaConfig, PhysConfig, run_protocol, validate_state
from quvar.cli import main
from quvar.ozawa import ConfigError

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "quvar" / "ozawa_config.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft7Validator(SCHEMA)
MISSING = object()

positive = st.floats(1e-3, 1e3)
finite = st.floats(-1e3, 1e3)


@st.composite
def valid_configs(draw):
    variant = draw(st.sampled_from(["free_mass", "oscillator", "dimensionless_oscillator"]))
    hbar = 1.0 if variant == "dimensionless_oscillator" else draw(positive)
    system = {"variant": variant}
    if variant != "dimensionless_oscillator":
        system["m"] = draw(positive)
    if variant != "free_mass":
        system["omega"] = draw(positive)
    vyy0, vxx = draw(positive), draw(positive)
    vxp = draw(finite)
    tau = draw(positive)
    raw = {
        "version": 1,
        "hbar": hbar,
        "k": draw(positive),
        "tau": tau,
        "T": draw(st.sampled_from(["auto", None, tau * 2.0])),
        "N": draw(st.integers(1, 50)),
        "Omega": draw(st.floats(0.0, 1e3)),
        "delta_tau": draw(st.floats(0.0, 1e3)),
        "system": system,
        "meter_variances": {"vyy0": vyy0, "vpp_y0": hbar * hbar / vyy0},
        "initial_system": {
            "mean_x": draw(finite),
            "mean_p": draw(finite),
            "vxx": vxx,
            "vxp": vxp,
            "vpp": (hbar * hbar + vxp * vxp) / vxx,
        },
        "seed": draw(st.integers(0, 2**32)),
        "mode": draw(st.sampled_from(["sample", "mean"])),
    }
    for optional in ("version", "hbar", "T", "mode"):
        if variant != "dimensionless_oscillator" and draw(st.booleans()):
            del raw[optional]
    return raw


# Values a broken field may take: boundary and out-of-range numbers, integral
# floats, and the other JSON types.
bad_values = st.one_of(
    st.sampled_from([0, 0.0, -0.0, -1, 1, 2.0, 0.5, -1e-300, 1e-300, "auto", "1.0", "mean", "x"]),
    st.sampled_from([True, False, None, [], {}]),
    st.sampled_from(["free_mass", "oscillator", "dimensionless_oscillator"]),
    finite,
    st.integers(-3, 3),
    # JSON integers around and beyond the float range (max ≈ 2**1024).
    st.sampled_from([10**400, -(10**400), 2**1024, 2**1024 - 2**970, 2**1024 - 2**971]),
    st.integers(-(2**1025), 2**1025),
)
PATHS = [
    ("version",), ("hbar",), ("k",), ("tau",), ("T",), ("N",), ("Omega",), ("delta_tau",),
    ("seed",), ("mode",), ("system",), ("meter_variances",), ("initial_system",), ("extra",),
    ("system", "variant"), ("system", "m"), ("system", "omega"), ("system", "extra"),
    ("meter_variances", "vyy0"), ("meter_variances", "vpp_y0"),
    ("initial_system", "mean_x"), ("initial_system", "vxx"), ("initial_system", "vxp"),
    ("initial_system", "vpp"),
]


@st.composite
def configs(draw):
    raw = draw(valid_configs())
    for _ in range(draw(st.integers(0, 3))):
        *parents, leaf = draw(st.sampled_from(PATHS))
        node = raw
        for key in parents:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        value = draw(st.one_of(bad_values, st.just(MISSING)))
        if value is MISSING:
            node.pop(leaf, None)
        else:
            node[leaf] = value
    return raw


def cross_field_breaks(raw) -> set[str]:
    """The fields whose cross-field rules the config breaks (schema-valid input)."""
    hbar = raw.get("hbar", 1.0)
    quarter = 0.25 * hbar * hbar * (1.0 + 1e-9)
    broken = set()
    meter, init = raw["meter_variances"], raw["initial_system"]
    if meter["vyy0"] * meter["vpp_y0"] < quarter:
        broken.add("meter_variances")
    # The meter's vxp = −√(4·vyy0·vpp_y0 − ħ²)/2 must be finite, whatever T is.
    excess = 4.0 * float(meter["vyy0"]) * float(meter["vpp_y0"]) - float(hbar) * float(hbar)
    if not math.isfinite(excess):
        broken.add("meter_variances")
    vxx, vpp, vxp = (float(init[k]) for k in ("vxx", "vpp", "vxp"))
    # Products overflow to inf where ** raises; an overflowing margin is broken too.
    if not quarter <= vxx * vpp - vxp * vxp < math.inf:
        broken.add("initial_system")
    system, T, tau = raw["system"], raw.get("T"), float(raw["tau"])
    vyy0, vpp_y0 = float(meter["vyy0"]), float(meter["vpp_y0"])
    if system["variant"] == "oscillator":
        mw = float(system["m"]) * float(system["omega"])
        if not 0.0 < mw * mw < math.inf:
            broken.add("system")
    if T in (None, "auto") and not broken & {"meter_variances", "system"}:
        # The auto schedule sets T = τ + the meter's contraction horizon: t_M
        # for a free mass, else the phase of the quadratures (scale mω/ħ)
        # over ω. The horizon must be defined (ω ≠ 0, no over- or underflow
        # in the quadratures), finite for a free mass, and nonzero; an
        # oscillator's phase/ω may still overflow, which the T rule names.
        if system["variant"] != "free_mass" and float(system["omega"]) == 0.0:
            broken.add("system")
        else:
            if system["variant"] == "free_mass":
                t_m = float(system["m"]) / vpp_y0 * math.sqrt(max(excess, 0.0))
                horizon = t_m if t_m < math.inf else math.nan
            else:
                mw = mw if system["variant"] == "oscillator" else 1.0
                scale = mw * float(hbar)  # may underflow to 0, which the code names too
                v_x, v_p = vyy0 * mw / float(hbar), vpp_y0 / scale if scale else math.inf
                positive = v_x > 0 and v_p > 0
                s = math.sqrt(max(4.0 * v_x * v_p - 1.0, 0.0)) if positive else math.inf
                if s == math.inf:  # no phase: the rescale or 4·v_x·v_p overflowed
                    horizon = math.nan
                else:
                    horizon = (math.atan2(s, v_p - v_x) if s else 0.0) / float(system["omega"])
            if not horizon > 0.0:  # undefined (NaN) or zero
                broken.add("meter_variances")
            else:
                T = tau + horizon
    if isinstance(T, (int, float)):
        wait = float(T) - tau
        # The meter covariance must stay finite over T − τ under the free flow:
        # the shear (T − τ)/m, or the rotation by ω(T − τ) at scale mω (1 if
        # dimensionless), whose phase must itself be finite.
        vxp = -0.5 * math.sqrt(max(excess, 0.0))
        with np.errstate(all="ignore"):
            if system["variant"] == "free_mass":
                flow = np.array([[1.0, wait / float(system["m"])], [0.0, 1.0]])
            else:
                omega = float(system["omega"])
                oscillator = system["variant"] == "oscillator"
                mw = np.float64(system["m"]) * omega if oscillator else np.float64(1.0)
                theta = wait * omega
                finite = math.isfinite(theta)
                c, s = (math.cos(theta), math.sin(theta)) if finite else (math.nan, math.nan)
                flow = np.array([[c, s / mw], [-mw * s, c]])
            cov = flow @ np.array([[vyy0, vxp], [vxp, vpp_y0]]) @ flow.T
        if not (float(T) > tau and np.isfinite(cov).all()):
            broken.add("T")
    if system["variant"] == "dimensionless_oscillator" and hbar != 1.0:
        broken.add("hbar")
    # The coupling dose √3·k·τ must be finite (interaction_map's own check).
    if not math.isfinite(math.sqrt(3.0) * float(raw["k"]) * tau):
        broken.add("tau")
    return broken


REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "ozawa_reference.json").read_text()
)


def changed(*path_and_value):
    """The reference config with the field at path set (or, for MISSING, removed)."""
    raw = json.loads(json.dumps(REFERENCE))
    *parents, leaf, value = path_and_value
    node = raw
    for key in parents:
        node = node[key]
    if value is MISSING:
        del node[leaf]
    else:
        node[leaf] = value
    return raw


# The disagreements this test found when it was written, kept as fixed cases.
@example(changed("system", {"variant": "free_mass"}))
@example(changed("system", {"variant": "oscillator", "m": 1.0, "omega": 0.0}))
@example(changed("system", "m", 0.0))
@example(changed("comment", "unknown top-level field"))
@example(changed("hbar", None))
@example(changed("hbar", "1.0"))
@example(changed("initial_system", "vxx", True))
@example(changed("version", True))
@example(changed("N", 3.0))
@example(changed("seed", 7.0))
@example(changed("k", 10**400))
@example(changed("initial_system", "mean_x", -(2**1024) + 2**970))
@example(changed("system", {"variant": "oscillator", "m": 1e-300, "omega": 1e-3}))
@example(dict(changed("T", 1e10), system={"variant": "free_mass", "m": 1e-300}))
@example(dict(changed("T", 1e10), system={"variant": "dimensionless_oscillator", "omega": 1e300}))
@example(dict(changed("k", 1e300), tau=1e10))
# The auto schedule, checked when the config is built: ω = 0 (system), a phase/ω
# that overflows (T) and a quadrature rescale that over- or underflows (meter_variances).
@example(changed("system", {"variant": "dimensionless_oscillator", "omega": 0.0}))
@example(changed("system", {"variant": "dimensionless_oscillator", "omega": -0.0}))
@example(changed("system", {"variant": "dimensionless_oscillator", "omega": 5e-324}))
@example(dict(changed("hbar", 1e-210), system={"variant": "oscillator", "m": 1e100, "omega": 1.0}))
@example(
    dict(changed("hbar", 1e-300), system={"variant": "oscillator", "m": 1e-77, "omega": 1e-77})
)
@settings(max_examples=1000, deadline=None)
@given(configs())
def test_schema_and_validator_agree(raw):
    schema_ok = VALIDATOR.is_valid(raw)
    try:
        OzawaConfig.from_dict(raw)
    except ConfigError as exc:
        # A schema-valid config fails only on a cross-field rule, named.
        assert not schema_ok or exc.field in cross_field_breaks(raw), (exc, raw)
    else:
        assert schema_ok, (list(VALIDATOR.iter_errors(raw)), raw)


def test_the_reference_config_is_valid_for_both():
    assert VALIDATOR.is_valid(REFERENCE)
    OzawaConfig.from_dict(REFERENCE)


def valid_config(raw):
    # valid_configs() may drop "hbar" after sizing the variances for the drawn ħ.
    try:
        return OzawaConfig.from_dict(raw)
    except ConfigError:
        assume(False)


@example(REFERENCE, "k", "x")
@example(REFERENCE, "seed", "1")
@example(REFERENCE, "hbar", None)
@example(REFERENCE, "hbar", 2**600)  # fits a double, but ħ² as an int product does not
@example(REFERENCE, "T", "auto")
@example(REFERENCE, "N", 3.0)
@example(REFERENCE, "meter_variances", None)
@example(REFERENCE, "initial_system", None)
@example(REFERENCE, "system", {"variant": "free_mass", "m": 1.0})  # valid JSON, no model
@settings(max_examples=1000, deadline=None)
@given(
    valid_configs(),
    st.sampled_from([f.name for f in fields(OzawaConfig)]),
    st.one_of(bad_values, st.sampled_from([None, "auto", []])),
)
def test_the_constructor_builds_or_names_a_field(raw, name, value):
    config = valid_config(raw)
    try:
        built = replace(config, **{name: value})
    except ConfigError:
        return
    assert VALIDATOR.is_valid(built.to_dict()), (name, value, built)


class HeavyMass(FreeMass):
    """A model subclass: held as the model of its variant."""


@pytest.mark.parametrize(
    "name, value",
    [
        ("seed", np.int64(7)),
        ("N", np.int64(3)),
        ("k", np.float32(600.0)),
        ("meter_variances", [1.0, 1.0]),
        ("meter_variances", np.array([1.0, 1.0])),
        ("initial_system", REFERENCE["initial_system"]),
        ("system", {"variant": "free_mass", "m": 1.0}),
        ("system", HeavyMass(1.0)),
    ],
)
def test_the_constructor_takes_numpy_scalars_pairs_and_json_objects(name, value):
    config = replace(OzawaConfig.from_dict(REFERENCE), **{name: value})
    assert VALIDATOR.is_valid(config.to_dict())
    assert OzawaConfig.from_dict(config.to_dict()) == config
    assert type(config.system) is FreeMass


def test_a_numpy_infinity_is_not_finite():
    with pytest.raises(ConfigError, match="k: must be finite"):
        replace(OzawaConfig.from_dict(REFERENCE), k=np.float32("inf"))


@settings(max_examples=300, deadline=None)
@given(st.one_of(valid_configs(), configs()))
def test_a_config_that_builds_can_run(raw):
    # The constructor runs the schedule's one check, for an explicit and an
    # auto T alike: a built config has a finite period past τ and a valid
    # meter, and its run raises no ConfigError (it may still fail on its own
    # numbers, say a covariance that overflows off dose).
    config = valid_config(raw)
    assert config.tau < config.period() < math.inf
    assert validate_state(config.meter_state(), PhysConfig(config.hbar)).ok
    try:
        run_protocol(replace(config, N=3))
    except ConfigError as exc:
        pytest.fail(f"a built config failed to run: {exc!r}")
    except (ValueError, RuntimeError):
        pass


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_to_dict_is_what_from_dict_reads(raw):
    config = valid_config(raw)
    assert OzawaConfig.from_dict(config.to_dict()) == config
    assert VALIDATOR.is_valid(config.to_dict())


# The keywords quvar.ozawa._check reads, and the annotations it may pass over.
CHECKED = {
    "type", "required", "properties", "additionalProperties", "const", "enum",
    "minimum", "exclusiveMinimum", "maximum", "oneOf", "allOf", "if", "then",
}
ANNOTATIONS = {"$schema", "$id", "title", "description", "default"}


def subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    for sub in [*schema.get("oneOf", ()), *schema.get("allOf", ())]:
        yield from subschemas(sub)
    for key in ("if", "then"):
        if key in schema:
            yield from subschemas(schema[key])


def test_the_runtime_check_reads_every_schema_keyword():
    # A keyword outside CHECKED (say "pattern") would be enforced by jsonschema
    # and silently ignored by `quvar ozawa`.
    for schema in subschemas(SCHEMA):
        assert set(schema) <= CHECKED | ANNOTATIONS, schema
        assert schema.get("type", "object") in ("object", "number", "integer", "null"), schema
        assert schema.get("additionalProperties", False) is False, schema
        # _check compares const and enum with ==, where Python has True == 1:
        # a pinned value that is not a string needs a type keyword beside it.
        pinned = [schema["const"]] if "const" in schema else schema.get("enum", [])
        assert all(isinstance(v, str) for v in pinned) or "type" in schema, schema


@pytest.mark.parametrize("T", ["auto", 1.0])
@pytest.mark.parametrize("vyy0, vpp_y0", [(1e200, 1e200), (1.7e308, 1.0)])
def test_an_overflowing_meter_product_names_meter_variances(tmp_path, capsys, vyy0, vpp_y0, T):
    # 4·vyy0·vpp_y0 overflows, so the meter's vxp is -inf. Under the auto
    # schedule this config built, and `quvar ozawa` exited 1 with "protocol
    # failed: invalid meter state: vxp must be finite, got -inf".
    raw = dict(changed("meter_variances", {"vyy0": vyy0, "vpp_y0": vpp_y0}), T=T)
    assert VALIDATOR.is_valid(raw)
    with pytest.raises(ConfigError) as info:
        OzawaConfig.from_dict(raw)
    assert info.value.field == "meter_variances"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["ozawa", f"--config={path}"]) == 2
    assert capsys.readouterr().err.startswith("invalid config: meter_variances: ")
