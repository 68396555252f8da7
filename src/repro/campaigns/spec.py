"""Campaign specs: declarative scenario grids and their expansion.

A campaign names four axes — algorithms, topologies, fault schedules and
seeds — plus shared run parameters; the runner sweeps the full
cross-product. Specs are plain data (Python dict, TOML or JSON file), in
the spirit of the scenario grids of *Dependability in Aggregation by
Averaging* (Jesus et al.): one fault scenario proves little, so campaigns
make "algorithm × topology × fault × seed" sweeps first-class.

Example (TOML)::

    name = "fig4-recovery"
    algorithms = ["push_flow", "push_cancel_flow"]
    seeds = [0, 1, 2]
    rounds = 200
    epsilon = 1e-9

    [[topologies]]
    family = "hypercube"
    n = 64

    [[faults]]
    kind = "link_failure"
    round = 75

Every cell of the expanded grid is a plain serializable dict (so it can
cross process boundaries) with a stable ``cell_id`` used for resumable
checkpointing.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Mapping, Tuple, Union

from repro.algorithms.registry import ALGORITHMS
from repro.exceptions import ConfigurationError, TopologyError
from repro.faults.specs import (
    validate_fault_against_topology,
    validate_fault_spec,
)
from repro.topology import registry as topology_registry

_AXES = ("algorithms", "topologies", "faults", "seeds")
_RUN_KEYS = (
    "name",
    "rounds",
    "epsilon",
    "aggregate",
    "data",
    "telemetry_sample_rate",
    "engine",
)
_DATA_KINDS = ("uniform", "spike", "log_uniform")
_AGGREGATES = ("average", "sum")
_ENGINES = ("object", "vectorized", "batched")
#: Fault kinds the vectorized/batched engines can express (i.i.d. loss
#: folds into the engine's transport mask; link failures map onto
#: transport blocking + edge-state zeroing; the dynamic kinds map onto
#: the batched engine's topology-delta support). Trace replays and
#: per-message injectors need the object engine.
_VECTOR_FAULT_KINDS = (
    "link_failure",
    "message_loss",
    "none",
    "churn",
    "partition",
    "regional_outage",
)


def _topology_label(topo: Mapping[str, object]) -> str:
    extras = {
        k: v for k, v in sorted(topo.items()) if k not in ("family", "n")
    }
    suffix = "".join(f",{k}={v}" for k, v in extras.items())
    return f"{topo['family']}-{topo['n']}{suffix}"


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """A validated, immutable campaign definition."""

    name: str
    algorithms: Tuple[str, ...]
    topologies: Tuple[Dict[str, object], ...]
    faults: Tuple[Dict[str, object], ...]
    seeds: Tuple[int, ...]
    rounds: int
    epsilon: float
    aggregate: str = "average"
    data: str = "uniform"
    #: Fraction of rounds the per-cell observers (anomaly detectors,
    #: flight-recorder state snapshots' cost-bearing peers) sample; None
    #: means the cheap default stride of
    #: :data:`repro.telemetry.sampling.DEFAULT_SAMPLE_EVERY`. Raising it
    #: toward 1.0 tightens detector latency at proportional overhead.
    telemetry_sample_rate: Union[float, None] = None
    #: Execution engine: ``object`` (per-message, full fault surface,
    #: default), ``vectorized`` (whole-array per cell), or ``batched``
    #: (whole-array across every compatible cell of an (algorithm,
    #: topology) group at once). Non-object engines require algorithms
    #: with a vectorized implementation and fault kinds in
    #: :data:`_VECTOR_FAULT_KINDS`.
    engine: str = "object"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "CampaignSpec":
        """Validate a plain-dict spec; raises ConfigurationError with the
        offending axis/key named so bad specs fail before any run starts."""
        if not isinstance(raw, Mapping):
            raise ConfigurationError(
                f"campaign spec must be a dict/table, got {type(raw).__name__}"
            )
        unknown = sorted(set(raw) - set(_AXES) - set(_RUN_KEYS))
        if unknown:
            raise ConfigurationError(
                f"campaign spec has unknown key(s) {unknown}; "
                f"axes are {list(_AXES)}, run keys are {list(_RUN_KEYS)}"
            )
        missing = sorted(set(_AXES) - set(raw))
        if missing:
            raise ConfigurationError(
                f"campaign spec is missing axis/axes {missing}"
            )
        for axis in _AXES:
            values = raw[axis]
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ConfigurationError(
                    f"axis {axis!r} is empty — the cross-product has no cells"
                )

        algorithms = tuple(str(a) for a in raw["algorithms"])
        for alg in algorithms:
            if alg not in ALGORITHMS:
                raise ConfigurationError(
                    f"axis 'algorithms': unknown algorithm {alg!r}; "
                    f"expected one of {ALGORITHMS}"
                )

        topologies: List[Dict[str, object]] = []
        for i, topo in enumerate(raw["topologies"]):
            if not isinstance(topo, Mapping) or "family" not in topo or "n" not in topo:
                raise ConfigurationError(
                    f"axis 'topologies'[{i}]: each entry needs 'family' and 'n', "
                    f"got {topo!r}"
                )
            entry = {k: topo[k] for k in topo}
            entry["family"] = str(topo["family"])
            entry["n"] = int(topo["n"])  # type: ignore[arg-type]
            extra = {
                k: v for k, v in entry.items() if k not in ("family", "n")
            }
            try:  # dry-build once so bad families / node counts fail early
                topology_registry.build(
                    entry["family"], entry["n"], seed=0, **extra
                )
            except (TopologyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"axis 'topologies'[{i}] ({_topology_label(entry)}): {exc}"
                ) from exc
            topologies.append(entry)

        faults = tuple(
            validate_fault_spec(f, where=f"axis 'faults'[{i}]")
            for i, f in enumerate(raw["faults"])
        )
        fault_names = [str(f["name"]) for f in faults]
        if len(set(fault_names)) != len(fault_names):
            raise ConfigurationError(
                f"axis 'faults' has duplicate schedule names {fault_names}; "
                "give colliding entries an explicit 'name'"
            )
        # Cross-axis check: every fault must fit every topology it will be
        # paired with (node/edge ids in range, regions not larger than n),
        # so bad grids fail at load time instead of mid-sweep.
        for i, fault in enumerate(faults):
            for j, topo in enumerate(topologies):
                validate_fault_against_topology(
                    fault,
                    int(topo["n"]),  # type: ignore[arg-type]
                    where=(
                        f"axis 'faults'[{i}] vs 'topologies'[{j}] "
                        f"({_topology_label(topo)})"
                    ),
                )

        seeds = tuple(int(s) for s in raw["seeds"])
        if len(set(seeds)) != len(seeds):
            raise ConfigurationError(f"axis 'seeds' has duplicates: {list(seeds)}")

        rounds = int(raw.get("rounds", 200))  # type: ignore[arg-type]
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        epsilon = float(raw.get("epsilon", 1e-9))  # type: ignore[arg-type]
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        aggregate = str(raw.get("aggregate", "average"))
        if aggregate not in _AGGREGATES:
            raise ConfigurationError(
                f"aggregate must be one of {_AGGREGATES}, got {aggregate!r}"
            )
        data = str(raw.get("data", "uniform"))
        if data not in _DATA_KINDS:
            raise ConfigurationError(
                f"data must be one of {_DATA_KINDS}, got {data!r}"
            )
        sample_rate = raw.get("telemetry_sample_rate")
        if sample_rate is not None:
            try:
                sample_rate = float(sample_rate)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"telemetry_sample_rate must be a number in (0, 1], "
                    f"got {sample_rate!r}"
                ) from None
            if not 0.0 < sample_rate <= 1.0:
                raise ConfigurationError(
                    f"telemetry_sample_rate must be in (0, 1], got {sample_rate}"
                )
        engine = str(raw.get("engine", "object"))
        if engine not in _ENGINES:
            raise ConfigurationError(
                f"engine must be one of {_ENGINES}, got {engine!r}"
            )
        if engine != "object":
            from repro.vectorized.parity import vector_engine_for

            for alg in algorithms:
                try:
                    vector_engine_for(alg)
                except ConfigurationError as exc:
                    raise ConfigurationError(
                        f"engine {engine!r}: {exc}"
                    ) from None
            for i, fault in enumerate(faults):
                parts = fault.get("compose") or [fault]
                for part in parts:  # type: ignore[union-attr]
                    kind = str(part["kind"])  # type: ignore[index]
                    if kind not in _VECTOR_FAULT_KINDS:
                        raise ConfigurationError(
                            f"axis 'faults'[{i}]: fault kind {kind!r} is not "
                            f"supported on engine {engine!r}; supported "
                            f"kinds: {sorted(_VECTOR_FAULT_KINDS)}"
                        )
        return cls(
            name=str(raw.get("name", "campaign")),
            algorithms=algorithms,
            topologies=tuple(topologies),
            faults=faults,
            seeds=seeds,
            rounds=rounds,
            epsilon=epsilon,
            aggregate=aggregate,
            data=data,
            telemetry_sample_rate=sample_rate,
            engine=engine,
        )

    @classmethod
    def from_file(cls, path: Union[str, pathlib.Path]) -> "CampaignSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        path = pathlib.Path(path)
        if not path.exists():
            raise ConfigurationError(f"campaign spec file not found: {path}")
        suffix = path.suffix.lower()
        if suffix == ".toml":
            try:
                import tomllib  # Python 3.11+
            except ImportError:  # pragma: no cover - Python <= 3.10
                try:
                    import tomli as tomllib  # type: ignore[no-redef]
                except ImportError:
                    raise ConfigurationError(
                        "TOML specs need Python >= 3.11 (tomllib) or the "
                        "'tomli' package; use a .json spec instead"
                    ) from None
            try:
                raw = tomllib.loads(path.read_text())
            except tomllib.TOMLDecodeError as exc:
                raise ConfigurationError(f"{path}: invalid TOML: {exc}") from exc
        elif suffix == ".json":
            try:
                raw = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        else:
            raise ConfigurationError(
                f"campaign spec {path} must be .toml or .json, got {suffix!r}"
            )
        return cls.from_dict(raw)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (written to the campaign directory for resume)."""
        return {
            "name": self.name,
            "algorithms": list(self.algorithms),
            "topologies": [dict(t) for t in self.topologies],
            "faults": [dict(f) for f in self.faults],
            "seeds": list(self.seeds),
            "rounds": self.rounds,
            "epsilon": self.epsilon,
            "aggregate": self.aggregate,
            "data": self.data,
            "telemetry_sample_rate": self.telemetry_sample_rate,
            "engine": self.engine,
        }

    @property
    def n_cells(self) -> int:
        return (
            len(self.algorithms)
            * len(self.topologies)
            * len(self.faults)
            * len(self.seeds)
        )

    def expand(self) -> List[Dict[str, object]]:
        """The full cross-product as plain, picklable run cells.

        Cell ids are stable across processes and re-invocations — they are
        the checkpointing key that lets a partially completed campaign
        resume without re-running finished cells.
        """
        cells: List[Dict[str, object]] = []
        for algorithm in self.algorithms:
            for topo in self.topologies:
                topo_label = _topology_label(topo)
                for fault in self.faults:
                    for seed in self.seeds:
                        cell_id = (
                            f"{algorithm}|{topo_label}|{fault['name']}|s{seed}"
                        )
                        cells.append(
                            {
                                "cell_id": cell_id,
                                "algorithm": algorithm,
                                "topology": dict(topo),
                                "topology_label": topo_label,
                                "fault": dict(fault),
                                "seed": seed,
                                "rounds": self.rounds,
                                "epsilon": self.epsilon,
                                "aggregate": self.aggregate,
                                "data": self.data,
                                "telemetry_sample_rate": (
                                    self.telemetry_sample_rate
                                ),
                                "engine": self.engine,
                            }
                        )
        return cells


def load_spec(source: Union[str, pathlib.Path, Mapping[str, object]]) -> CampaignSpec:
    """Resolve ``source`` — a builtin name, a spec file path, or a dict."""
    if isinstance(source, Mapping):
        return CampaignSpec.from_dict(source)
    text = str(source)
    from repro.campaigns.builtin import BUILTIN_SPECS

    if text in BUILTIN_SPECS:
        return CampaignSpec.from_dict(BUILTIN_SPECS[text])
    path = pathlib.Path(text)
    if path.exists():
        return CampaignSpec.from_file(path)
    raise ConfigurationError(
        f"campaign spec {text!r} is neither a builtin "
        f"({sorted(BUILTIN_SPECS)}) nor an existing file"
    )
