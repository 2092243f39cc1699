"""Scenario configuration files.

Documents are YAML mappings. The loader records the source line of every
key so validation failures can point at the offending line. The resolver
records each key as it validates it, with the value it accepted or the
constant default it filled in, and that record is the document embedded in
reports; feeding it back in reproduces the run.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import yaml

from .bound import MaturityGrid, Scenario, StrikeGrid
from .errors import ConfigParseError, VolboundError
from .models import GENERATORS, ReferenceModel, SimConfig, ThetaProcess, builtin_model

_MISSING = object()


class LocatedDict(dict):
    """A mapping that remembers the source line of each key."""

    key_lines: dict

    def line(self, key):
        return getattr(self, "key_lines", {}).get(key)


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """SafeLoader, on libyaml's parser where pyyaml was built with it, that
    resolves plain scalars as YAML 1.2's core schema does: 010 is ten, 0o10
    eight and 0x10 sixteen; 1e-3, json's 1e-05, .inf and .nan are floats;
    true and false are the only booleans. YAML 1.1 (PyYAML) takes 010 for
    octal, 1:30 for 90 in base 60, 1_000 and 1_000.0 for 1000, yes/no/on/off
    for booleans and 1e-3 for a string; here the first four stay strings,
    which a typed key rejects by name."""


_INT = re.compile(r"^(?:[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+)$")
_CORE_TAGS = {f"tag:yaml.org,2002:{kind}" for kind in ("int", "float", "bool")}

# YAML 1.1's int, float and bool resolvers dropped, then 1.2's added, the
# int's ahead of the float's, which also matches digits alone
_Loader.yaml_implicit_resolvers = {
    first: [(tag, regexp) for tag, regexp in resolvers if tag not in _CORE_TAGS]
    for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
}
_Loader.add_implicit_resolver("tag:yaml.org,2002:int", _INT, list("-+0123456789"))
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(
        r"^(?:[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?"
        r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$"
    ),
    list("-+.0123456789"),
)
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:bool", re.compile(r"^(?:true|True|TRUE|false|False|FALSE)$"), list("tTfF")
)


def _construct_int(loader, node):
    value = loader.construct_scalar(node)
    if not _INT.match(value):
        raise yaml.constructor.ConstructorError(
            None, None, f"{value!r} is not a YAML 1.2 integer", node.start_mark
        )
    # base 10 unless prefixed: a leading zero is not octal
    return int(value, 0) if value[:2] in ("0o", "0x") else int(value)


_Loader.add_constructor("tag:yaml.org,2002:int", _construct_int)


class _LineLoader(_Loader):
    pass


def _construct_mapping(loader, node):
    loader.flatten_mapping(node)
    out = LocatedDict(loader.construct_pairs(node, deep=True))
    out.key_lines = {
        key_node.value: key_node.start_mark.line + 1 for key_node, _ in node.value
    }
    return out


_LineLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)


def load_document(text: str):
    """Parse YAML text into a line-annotated mapping."""
    try:
        doc = yaml.load(text, Loader=_LineLoader)
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ConfigParseError(f"not valid YAML: {exc}", line=line) from exc
    if doc is None:
        raise ConfigParseError("the config document is empty")
    if not isinstance(doc, dict):
        raise ConfigParseError(
            f"the top level must be a mapping, got {type(doc).__name__}"
        )
    return doc


def parse_override(text: str):
    """Split one ``key=value`` override; the value is a YAML scalar."""
    key, sep, raw = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigParseError(f"override must look like key=value, got {text!r}")
    try:
        value = yaml.load(raw, Loader=_Loader) if raw.strip() else None
    except yaml.YAMLError as exc:
        raise ConfigParseError(
            f"override value {raw!r} is not a YAML scalar", key=key
        ) from exc
    return key, value


def set_path(doc: dict, dotted: str, value) -> None:
    """Assign into a nested mapping, creating intermediate sections. The key
    set has no source line, so an error on its value names the key alone."""
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value
    if isinstance(node, LocatedDict):
        node.key_lines.pop(parts[-1], None)


class _Section:
    """Validation cursor over one mapping: typed reads, their record, leftovers."""

    def __init__(self, mapping, path=""):
        self.mapping = mapping
        self.path = path
        self.pending = set(mapping.keys())
        self.record = {}

    def _key(self, key):
        return f"{self.path}.{key}" if self.path else key

    def _line(self, key):
        if isinstance(self.mapping, LocatedDict):
            return self.mapping.line(key)
        return None

    def fail(self, key, message):
        raise ConfigParseError(message, key=self._key(key), line=self._line(key))

    def _keep(self, key, value):
        """value, recorded under key; a None default (z0, pricing.price) is not."""
        if value is not None:
            self.record[key] = list(value) if isinstance(value, tuple) else value
        return value

    def take(self, key, default=_MISSING):
        self.pending.discard(key)
        if key in self.mapping:
            return self._keep(key, self.mapping[key])
        if default is _MISSING:
            raise ConfigParseError(
                f"required key is missing from section {self.path or '<top>'!r}",
                key=self._key(key),
            )
        return self._keep(key, default)

    def _finite(self, key, value, kind):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(key, f"expected {kind}, got {value!r}")
        if not math.isfinite(value):
            self.fail(key, f"expected a finite number, got {value!r}")
        return float(value)

    def take_number(self, key, default=_MISSING):
        value = self.take(key, default)
        if value is default and default is not _MISSING:
            return value
        return self._keep(key, self._finite(key, value, "a number"))

    def take_int(self, key):
        value = self.take(key)
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(key, f"expected an integer, got {value!r}")
        return value

    def take_str(self, key, default=_MISSING):
        value = self.take(key, default)
        if value is default and default is not _MISSING:
            return value
        if not isinstance(value, str):
            self.fail(key, f"expected a string, got {value!r}")
        return value

    def take_number_list(self, key, default=_MISSING):
        value = self.take(key, default)
        if value is default and default is not _MISSING:
            return value
        if not isinstance(value, list) or not value:
            self.fail(key, f"expected a non-empty list of numbers, got {value!r}")
        items = tuple(self._finite(key, item, "numbers in the list") for item in value)
        return self._keep(key, items)

    def take_section(self, key, default=_MISSING):
        value = self.take(key, default)
        if value is default and default is not _MISSING:
            return value
        if not isinstance(value, dict):
            self.fail(key, f"expected a section (mapping), got {value!r}")
        section = _Section(value, self._key(key))
        self.record[key] = section.record
        return section

    def build(self, key, make):
        """make(), whose errors are located at key, except a ConfigParseError
        from a typed read inside make, which already names its own key."""
        try:
            return make()
        except ConfigParseError:
            raise
        except VolboundError as exc:
            raise ConfigParseError(str(exc), key=self._key(key), line=self._line(key)) from exc

    def finish(self):
        if self.pending:
            key = sorted(self.pending)[0]
            self.fail(key, "unknown key")


@dataclass(frozen=True)
class ResolvedConfig:
    """A validated run specification plus the document that reproduces it."""

    scenario: Scenario
    mats: MaturityGrid
    strikes: StrikeGrid
    sim: SimConfig | None
    eval_time: float
    pricing: dict | None
    densify_sizes: tuple | None
    scan_axes: tuple
    martingale_times: tuple
    document: dict

    @property
    def model(self) -> ReferenceModel:
        return self.scenario.reference


def _resolve_theta(gen, sigma, top: _Section):
    if gen == "self-consistent":
        if top.take("theta", None) is not None:
            top.fail("theta", "self-consistent scenarios take no theta section")
        return ThetaProcess(kind="constant", sigma0=sigma)

    sec = top.take_section("theta")
    if gen == "step-vol":
        if "jump_size" in sec.mapping or "jump_time" in sec.mapping:
            if "jump_times" in sec.mapping or "jump_values" in sec.mapping:
                sec.fail("jump_size", "give either jump_time/jump_size or the list form, not both")
            jt = (sec.take_number("jump_time"),)
            jv = (sigma + sec.take_number("jump_size"),)
        else:
            jt = sec.take_number_list("jump_times")
            jv = sec.take_number_list("jump_values")
        sec.finish()
        return sec.build(
            "jump_values",
            lambda: ThetaProcess(kind="step", sigma0=sigma, jump_times=jt, jump_values=jv),
        )

    # meanrev-vol
    rate = sec.take_number("rate")
    level = sec.take_number("level")
    nu = sec.take_number("vol_of_vol")
    corr = sec.take_number("correlation", 0.0)
    sec.finish()
    return sec.build(
        "vol_of_vol" if -1.0 <= corr <= 1.0 else "correlation",
        lambda: ThetaProcess(
            kind="meanrev", sigma0=sigma, rate=rate, level=level, vol_of_vol=nu,
            correlation=corr,
        ),
    )


def resolve(doc: dict) -> ResolvedConfig:
    """Validate a config mapping and build the run objects.

    Every domain invariant is enforced here so a bad file fails before
    any simulation starts, with the failing key and line in the message.
    Its document is what the sections recorded: each key given, as
    validated, and each constant default filled in, so z0 appears only where
    given and a step theta in the form it was written in.
    """
    top = _Section(doc)

    model_name = top.take_str("model")
    z0 = top.take_number("z0", None)
    model = top.build("model" if z0 is None else "z0", lambda: builtin_model(model_name, z0=z0))

    sigma = top.take_number("sigma")
    if sigma <= 0.0:
        top.fail("sigma", f"volatility must be positive, got {sigma}")

    gen = top.take_str("generator", "self-consistent")
    if gen not in GENERATORS.values():
        top.fail("generator", f"unknown generator {gen!r}")
    scenario = Scenario(model, _resolve_theta(gen, sigma, top))

    mats = top.build("maturities", lambda: MaturityGrid(times=top.take_number_list("maturities")))
    strikes = top.build("strikes", lambda: StrikeGrid(strikes=top.take_number_list("strikes")))

    eval_time = top.take_number("eval_time", 0.0)
    if not 0.0 <= eval_time <= mats.times[0]:
        top.fail(
            "eval_time",
            f"evaluation time {eval_time} outside [0, first maturity {mats.times[0]}]",
        )

    sim = None
    sim_sec = top.take_section("simulation", None)
    if sim_sec is not None:
        paths = sim_sec.take_int("paths")
        if paths < 1:
            sim_sec.fail("paths", f"paths must be >= 1, got {paths}")
        dt = sim_sec.take_number("dt")
        if dt <= 0.0:
            sim_sec.fail("dt", f"dt must be positive, got {dt}")
        seed = sim_sec.take_int("seed")
        if seed < 0:
            sim_sec.fail("seed", f"seed must be >= 0, got {seed}")
        sim_sec.finish()
        sim = SimConfig(n_paths=paths, dt=dt, seed=seed)

    pricing = None
    psec = top.take_section("pricing", None)
    if psec is not None:
        maturity = psec.take_number("maturity")
        if maturity <= 0.0:
            psec.fail("maturity", f"maturity must be positive, got {maturity}")
        strike = psec.take_number("strike")
        if strike < 0.0:
            psec.fail("strike", f"strike cannot be negative, got {strike}")
        psec.take_number("price", None)
        psec.finish()
        pricing = dict(psec.record)

    densify_sizes = None
    dsec = top.take_section("densify", None)
    if dsec is not None:
        sizes = dsec.take("grid_sizes")
        dsec.finish()
        if not isinstance(sizes, list) or not sizes:
            dsec.fail("grid_sizes", f"expected a non-empty list of integers, got {sizes!r}")
        for n in sizes:
            if isinstance(n, bool) or not isinstance(n, int) or n < 2:
                dsec.fail("grid_sizes", f"grid sizes must be integers >= 2, got {n!r}")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            dsec.fail("grid_sizes", f"grid sizes must increase strictly, got {sizes}")
        densify_sizes = tuple(sizes)

    scan_axes = ()
    ssec = top.take_section("scan", None)
    if ssec is not None:
        axes_raw = ssec.take("axes")
        ssec.finish()
        if not isinstance(axes_raw, list) or not axes_raw:
            ssec.fail("axes", "expected a non-empty list of axis sections")
        if len(axes_raw) > 3:
            ssec.fail("axes", f"at most 3 scan axes are supported, got {len(axes_raw)}")
        axes = []
        for i, axis in enumerate(axes_raw):
            if not isinstance(axis, dict):
                ssec.fail("axes", f"each axis must be a mapping, got {axis!r}")
            asec = _Section(axis, f"scan.axes[{i}]")
            key = asec.take_str("key")
            values = asec.take("values")
            asec.finish()
            if not isinstance(values, list) or not values:
                asec.fail("values", f"expected a non-empty list, got {values!r}")
            if key in dict(axes):
                asec.fail("key", f"axis key {key!r} is already scanned by an earlier axis")
            axes.append((key, tuple(values)))
        scan_axes = tuple(axes)

    martingale_times = (0.25, 0.5, 1.0)
    msec = top.take_section("martingale", None)
    if msec is not None:
        martingale_times = msec.take_number_list("times", martingale_times)
        msec.finish()
        if any(t <= 0.0 for t in martingale_times):
            msec.fail("times", "check times must be positive")
        if any(b <= a for a, b in zip(martingale_times, martingale_times[1:])):
            msec.fail("times", f"check times must increase strictly, got {list(martingale_times)}")

    top.finish()

    return ResolvedConfig(
        scenario=scenario,
        mats=mats,
        strikes=strikes,
        sim=sim,
        eval_time=eval_time,
        pricing=pricing,
        densify_sizes=densify_sizes,
        scan_axes=scan_axes,
        martingale_times=martingale_times,
        document=top.record,
    )


def parse_config(text: str, overrides=()) -> ResolvedConfig:
    """Load, override, and validate a config document in one step."""
    doc = load_document(text)
    for item in overrides:
        key, value = parse_override(item) if isinstance(item, str) else item
        set_path(doc, key, value)
    return resolve(doc)
