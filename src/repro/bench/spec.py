"""Sweeps as data: one :class:`SweepSpec` per sweep, one runner, one validator.

Every sweep bench (``cachesweep`` … ``metrics``) has the same shape: a
handful of CLI arguments, a grid loop that yields measurement points, a
text table, and — for most — a ``BENCH_*.json`` artifact whose invariants
a validator re-checks after every write.  A :class:`SweepSpec` declares
those parts as data:

* ``args`` — the sweep's CLI arguments (:class:`Arg`: flag, type,
  default, nargs, choices, help, and a ``min`` for counts);
* ``run(args) -> (envelope, points)`` — the grid itself;
* ``title`` / ``columns`` — the rendered table;
* ``artifact`` — the envelope of the JSON file (:class:`Artifact`);
* ``invariants`` — named predicates (:class:`Invariant`) the validator
  enforces on top of the envelope and point-key checks.

The generic machinery lives here once: :func:`run_sweep` rejects
degenerate inputs before any point runs and wraps the result in a
:class:`SweepRun` (lookup, rendering, ``as_dict``/``write_json``),
:meth:`SweepSpec.validate` checks an artifact, and :func:`execute` is the
CLI body (render, write, validate-after-write, optional ``finish`` step).
:func:`sweep_specs` is the registry ``repro.cli`` builds one subcommand
per entry from.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

from ..core.runspec import preset_runspec
from ..dlrm.data import WorkloadConfig
from .reporting import format_table
from .runner import scaled_config
from .validate import check_artifact, check_point

__all__ = [
    "Arg",
    "Artifact",
    "Invariant",
    "SCHEMA_VERSION",
    "SweepInputError",
    "SweepRun",
    "SweepSpec",
    "WORKLOAD_ARGS",
    "execute",
    "payload",
    "preset_workload",
    "rule",
    "run_sweep",
    "sweep_specs",
    "workload_args",
    "workload_from_args",
]

#: modules that each define one ``SPEC``, in CLI registration order
_SWEEP_MODULES = (
    "cachesweep", "faultsweep", "servesweep", "compsweep", "chaossweep",
    "skewsweep", "hiersweep", "critpath", "telemetry",
)

#: the ``schema_version`` every sweep artifact carries
SCHEMA_VERSION = 1


class SweepInputError(ValueError):
    """A degenerate sweep input (empty axis, count below its minimum)."""


@dataclass(frozen=True)
class Arg:
    """One CLI argument of a sweep, as data.

    ``dest`` renames the namespace attribute (the library keyword) while
    the flag and its help text stay as they are; ``min`` marks a count
    :func:`run_sweep` checks (every value of a list, the value of a
    scalar) before any point runs.
    """

    flag: str
    type: Optional[Callable[[str], Any]] = None
    default: Any = None
    nargs: Optional[str] = None
    choices: Optional[Sequence[Any]] = None
    help: Optional[str] = None
    dest: Optional[str] = None
    metavar: Optional[str] = None
    action: Any = None
    min: Optional[int] = None

    @property
    def name(self) -> str:
        """The namespace attribute this argument fills."""
        return self.dest or self.flag.lstrip("-").replace("-", "_")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        """Register this argument on ``parser``."""
        kwargs = {
            key: value
            for key in ("type", "nargs", "choices", "help", "dest", "metavar", "action")
            if (value := getattr(self, key)) is not None
        }
        if self.dest and self.metavar is None and self.choices is None and self.action is None:
            # Keep the metavar argparse derives from the flag.
            kwargs["metavar"] = self.flag.lstrip("-").replace("-", "_").upper()
        parser.add_argument(self.flag, default=self.default, **kwargs)


#: the shared workload knobs of ``run``/``sweep``/``trace``/``cachesweep``/
#: ``faultsweep`` (counts must be >= 1)
WORKLOAD_ARGS = (
    Arg("--tables", type=int, default=64, help="number of embedding tables", min=1),
    Arg("--rows", type=int, default=1_000_000, help="rows per table", min=1),
    Arg("--dim", type=int, default=64, help="embedding dimension", min=1),
    Arg("--batch", type=int, default=16_384, help="batch size", min=1),
    Arg("--pooling", type=int, default=128, help="max pooling factor", min=1),
    Arg("--gpus", type=int, default=2, help="simulated GPU count", min=1),
    Arg("--seed", type=int, default=2024),
)


def workload_args(**defaults: Any) -> Tuple[Arg, ...]:
    """:data:`WORKLOAD_ARGS` with some defaults replaced (by namespace name)."""
    return tuple(
        dataclasses.replace(a, default=defaults.get(a.name, a.default))
        for a in WORKLOAD_ARGS
    )


def workload_from_args(args: argparse.Namespace) -> WorkloadConfig:
    """The :class:`WorkloadConfig` the :data:`WORKLOAD_ARGS` describe."""
    return WorkloadConfig(
        num_tables=args.tables,
        rows_per_table=args.rows,
        dim=args.dim,
        batch_size=args.batch,
        max_pooling=args.pooling,
        seed=args.seed,
    )


def preset_workload(
    preset: str, n_devices: int, *, seed: Optional[int] = None, scale: float = 1.0
) -> WorkloadConfig:
    """Resolve a named preset to a workload for ``n_devices`` GPUs.

    The preset definitions live in :func:`repro.core.runspec.preset_runspec`
    so every entry point resolves the same shapes; ``seed`` overrides the
    preset's workload seed and ``scale`` shrinks the batch dimension.
    """
    cfg = preset_runspec(preset, n_devices).workload
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if scale != 1.0:
        cfg = scaled_config(cfg, scale)
    return cfg


@dataclass(frozen=True)
class Invariant:
    """A named artifact invariant.

    ``check`` returns ``None`` when the invariant holds and the violation
    message otherwise.  A per-point invariant is called as
    ``check(label, point, data)`` for every collection entry (after that
    entry's key check; ``label`` is the artifact's formatted point label);
    an artifact-level one as ``check(points, data)`` once all points
    passed.
    """

    name: str
    check: Callable[..., Optional[str]]
    per_point: bool = False


def rule(
    name: str, holds: Callable[[Mapping[str, Any], Mapping[str, Any]], bool],
    message: str,
) -> Invariant:
    """A per-point :class:`Invariant` from a predicate and a message template.

    ``holds(point, data)`` is the predicate; on violation ``message`` is
    formatted with the point's keys and its ``label``.
    """

    def check(label: str, point: Mapping[str, Any], data: Mapping[str, Any]) -> Optional[str]:
        return None if holds(point, data) else message.format(label=label, **point)

    return Invariant(name, check, per_point=True)


@dataclass(frozen=True)
class Artifact:
    """The envelope of a sweep's ``BENCH_*.json`` file.

    Entries of the collection are key-checked and run the per-point
    invariants when ``point_keys`` is set; a collection without point
    keys is checked by artifact-level invariants alone.
    """

    file: str  #: default ``--output`` path
    kind: str  #: artifact name in error messages ("serving", "hier", ...)
    keys: Tuple[str, ...]  #: run-level keys besides ``schema_version``
    point_keys: Tuple[str, ...] = ()
    label: str = "point {i}"  #: per-point message prefix template
    collection: str = "points"
    collection_type: type = list
    noun: str = "point"
    summary: str = "points"  #: plural noun of the ``wrote ...`` line
    error: Type[Exception] = ValueError


Column = Tuple[str, Callable[[Any], str]]


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: its arguments, grid, table, artifact and invariants.

    ``args`` are what :meth:`sweep` accepts and ``run`` reads;
    ``cli_args`` exist on the subcommand only (after ``--output``) and are
    read by ``finish``.
    """

    name: str
    help: str
    args: Tuple[Arg, ...]
    run: Callable[[argparse.Namespace], Tuple[Dict[str, Any], Any]]
    title: Callable[["SweepRun"], str]
    columns: Union[Sequence[Column], Callable[["SweepRun"], Sequence[Column]]]
    coords: Tuple[str, ...] = ()  #: point attributes :meth:`SweepRun.point` matches
    artifact: Optional[Artifact] = None
    invariants: Tuple[Invariant, ...] = ()
    rows: Optional[Callable[["SweepRun"], Sequence[Any]]] = None  #: default: points
    point_dict: Callable[[Any], Dict[str, Any]] = dataclasses.asdict
    #: the artifact collection built from the point dicts
    collect: Callable[[List[Dict[str, Any]]], Any] = list
    cli_args: Tuple[Arg, ...] = ()
    finish: Optional[Callable[[argparse.Namespace, "SweepRun"], int]] = None

    @property
    def all_args(self) -> Tuple[Arg, ...]:
        """The subcommand's arguments: ``args``, ``--output``, ``cli_args``."""
        output = () if self.artifact is None else (
            Arg("--output", default=self.artifact.file,
                help="machine-readable artifact path ('' to skip)"),
        )
        return self.args + output + self.cli_args

    def add_parser(self, subparsers: Any) -> argparse.ArgumentParser:
        """Register this sweep's subcommand on an argparse subparser set."""
        parser = subparsers.add_parser(self.name, help=self.help)
        for arg in self.all_args:
            arg.add_to(parser)
        return parser

    def sweep(self, **params: Any) -> "SweepRun":
        """Run the sweep from library keywords (namespace names, CLI defaults)."""
        values = {a.name: a.default for a in self.args}
        unknown = set(params) - set(values)
        if unknown:
            raise TypeError(f"{self.name}: unknown parameter(s) {sorted(unknown)}")
        values.update(params)
        return run_sweep(self, argparse.Namespace(**values))

    def validate(self, data: Any) -> None:
        """Check an artifact's envelope, point keys and invariants.

        Raises the artifact's ``error`` type with the first violation.
        """
        a = self.artifact
        items = check_artifact(
            data,
            kind=a.kind,
            schema_version=SCHEMA_VERSION,
            required_keys=("schema_version", *a.keys),
            collection=a.collection,
            noun=a.noun,
            error=a.error,
            collection_type=a.collection_type,
        )
        point_checks = [inv for inv in self.invariants if inv.per_point]
        for i, point in enumerate(items if a.point_keys else ()):
            check_point(point, i, a.point_keys, error=a.error)
            label = a.label.format(i=i, **point)
            for inv in point_checks:
                message = inv.check(label, point, data)
                if message is not None:
                    raise a.error(message)
        for inv in self.invariants:
            if not inv.per_point:
                message = inv.check(items, data)
                if message is not None:
                    raise a.error(message)


def payload(*derived: str) -> Callable[[Any], Dict[str, Any]]:
    """A ``point_dict``: the point dataclass's fields plus ``derived`` properties."""

    def as_dict(point: Any) -> Dict[str, Any]:
        out = dataclasses.asdict(point)
        out.update((name, getattr(point, name)) for name in derived)
        return out

    return as_dict


class SweepRun:
    """A finished sweep: run-level ``envelope`` fields plus its ``points``.

    Envelope fields and the artifact's collection name read as attributes
    (``run.preset``, ``run.reports``).
    """

    def __init__(self, spec: SweepSpec, envelope: Dict[str, Any], points: Any) -> None:
        self.spec = spec
        self.envelope = envelope
        self.points = points

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__") or name in ("spec", "envelope", "points"):
            raise AttributeError(name)
        if name in self.envelope:
            return self.envelope[name]
        if self.spec.artifact is not None and name == self.spec.artifact.collection:
            return self.points
        raise AttributeError(f"{self.spec.name} run has no attribute {name!r}")

    def point(self, *coords: Any) -> Any:
        """Look up one measured point by its leading grid coordinates."""
        for p in self.points:
            if all(getattr(p, c) == v for c, v in zip(self.spec.coords, coords)):
                return p
        raise KeyError(f"no {self.spec.name} point {coords}")

    def render(self) -> str:
        """The sweep's text table under its title line."""
        columns = self.spec.columns
        if callable(columns):
            columns = columns(self)
        rows = self.spec.rows(self) if self.spec.rows else self.points
        table = format_table(
            [header for header, _ in columns],
            [[fmt(row) for _, fmt in columns] for row in rows],
        )
        return f"{self.spec.title(self)}\n{table}"

    def as_dict(self) -> Dict[str, Any]:
        """The artifact payload: schema version, envelope keys, collection."""
        a = self.spec.artifact
        out: Dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        out.update((key, self.envelope[key]) for key in a.keys)
        out[a.collection] = self.spec.collect([self.spec.point_dict(p) for p in self.points])
        return out

    def write_json(self, path: str, *, indent: int = 1) -> None:
        """Write the canonical artifact (sorted keys)."""
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, sort_keys=True, indent=indent)


def _check_inputs(spec: SweepSpec, args: argparse.Namespace) -> None:
    for arg in spec.args:
        value = getattr(args, arg.name)
        if value is None:
            continue
        listed = arg.nargs in ("+", "*")
        if listed and len(value) == 0:
            raise SweepInputError(
                f"{arg.flag}: every sweep axis needs at least one value"
            )
        if arg.min is not None:
            for v in value if listed else (value,):
                if v < arg.min:
                    raise SweepInputError(f"{arg.flag} must be >= {arg.min}, got {v}")


def run_sweep(spec: SweepSpec, args: argparse.Namespace) -> SweepRun:
    """Reject degenerate inputs, then run ``spec``'s grid over ``args``."""
    _check_inputs(spec, args)
    envelope, points = spec.run(args)
    return SweepRun(spec, envelope, points)


def execute(spec: SweepSpec, args: argparse.Namespace) -> int:
    """CLI body of every sweep: run, print, write + re-validate, finish."""
    run = run_sweep(spec, args)
    print(run.render())
    if spec.artifact is not None and args.output:
        run.write_json(args.output)
        # Self-check: the artifact we just wrote must round-trip the schema.
        with open(args.output) as fh:
            spec.validate(json.load(fh))
        print(f"wrote {args.output} (schema-valid, "
              f"{len(run.points)} {spec.artifact.summary})")
    return spec.finish(args, run) if spec.finish else 0


def sweep_specs() -> Dict[str, SweepSpec]:
    """The sweep registry: subcommand name -> :class:`SweepSpec`."""
    specs = (
        importlib.import_module(f"{__package__}.{module}").SPEC
        for module in _SWEEP_MODULES
    )
    return {spec.name: spec for spec in specs}
