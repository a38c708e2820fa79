"""The four benchmark workloads: seeded inputs, the timed public call, output checks.

Each workload builds its inputs from the seed in ``setup``, runs one
public entry point of the library per ``call`` (timing only that call)
and checks what the call produced.  The library receives nothing but the
generated inputs; every file a workload writes lives under the work
directory it is given.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.analysis.policy_survey import run_policy_survey
from repro.analysis.survey import run_survey
from repro.faults import FaultPlan, corrupt_dump_lines
from repro.network.monitoring import DeploymentSpec
from repro.network.topology import TopologySpec
from repro.records import RecordStore, SpillingRecordSink
from repro.scenarios.presets import TRACE_HOURS, paper_suite
from repro.telemetry.dataset import PAPER_PAIR_COUNT, DatasetConfig, FleetDataset
from repro.telemetry.ingest import ingest_dump
from repro.telemetry.measured import MeasuredFleetDataset

#: Worker processes of the pooled workloads: the 2 cores of the reference host.
POOL_WORKERS = 2

#: Leaves of the policy workload's leaf-spine fabric (2 spines, 2 servers per leaf).
POLICY_LEAVES = 16

#: Library defaults, passed explicitly so the traced re-drive cuts the same blocks.
POLICY_CHUNK = 256
SURVEY_CHUNK = 1024
OVERSAMPLE_THRESHOLD = 1.25

#: Fleet of the ingest workload: pairs and seconds of telemetry per pair.
INGEST_PAIRS = 336
INGEST_TRACE_SECONDS = 14400.0

#: Accumulator budget, a quarter of either dump's ~133k updates, so it spills.
INGEST_BUDGET_SAMPLES = 32768

#: Ceiling on the adaptive leg's mean nrmse: "at bounded error" in the claim.
ADAPTIVE_NRMSE_CAP = 0.15

#: Record digests of the default seed and one held-out seed, per workload.
PINNED = Path(__file__).with_name("pinned.json")


@dataclass
class Call:
    """One timed public call: its wall time, the work it covered, its output."""

    seconds: float
    pairs: int
    updates: int
    output: Any
    directory: Path


def _hex(hasher: Any) -> str:
    return hasher.hexdigest()[:16]


def column_digests(blocks: Iterable[Any]) -> dict[str, str]:
    """sha256 (16 hex) of every record column across ``blocks``, in order.

    ``blocks`` covers each block's type, scalars and row count, so a
    re-cut of the same rows into other blocks shows too.  String columns
    are hashed by value, numeric ones by their raw bytes.
    """
    layout = hashlib.sha256()
    columns: dict[str, Any] = {}
    for block in blocks:
        schema = block._SCHEMA
        scalars = "|".join(str(getattr(block, spec.name)) for spec in schema.scalars)
        layout.update(f"{type(block).__name__}|{scalars}|{len(block)}\n".encode())
        for spec in schema.columns:
            values = getattr(block, spec.name)
            hasher = columns.setdefault(spec.name, hashlib.sha256())
            if spec.kind == "str":
                hasher.update("\x00".join(values.tolist()).encode() + b"\x01")
            else:
                hasher.update(np.ascontiguousarray(values).tobytes())
    return {"blocks": _hex(layout), **{name: _hex(h) for name, h in columns.items()}}


def fleet_digests(directory: Path, prefix: str) -> dict[str, str]:
    """Digests of a published measured-fleet directory: manifest and traces.

    The manifest's ``ingest.source`` names the dump by absolute path, so
    it is reduced to the file name.  npz containers carry a write
    timestamp, so traces are hashed by their decoded arrays.
    """
    manifest = json.loads((directory / "manifest.json").read_text())
    if "ingest" in manifest:
        manifest["ingest"]["source"] = Path(manifest["ingest"]["source"]).name
    traces = hashlib.sha256()
    for entry in manifest["pairs"]:
        with np.load(directory / entry["file"]) as data:
            for member in ("values", "interval", "start_time"):
                traces.update(np.ascontiguousarray(data[member]).tobytes())
    canonical = json.dumps(manifest, sort_keys=True).encode()
    return {f"{prefix}.manifest": _hex(hashlib.sha256(canonical)),
            f"{prefix}.traces": _hex(traces)}


def check_pinned(workload: str, seed: int, digests: dict[str, str]) -> list[str]:
    """Compare ``digests`` with the ones pinned for this workload and seed, if any."""
    pinned = json.loads(PINNED.read_text()).get(workload, {}).get(str(seed))
    if pinned is None:
        return []
    differ = sorted(set(pinned) ^ set(digests)
                    | {name for name in pinned if digests.get(name) != pinned[name]})
    if differ:
        return [f"{workload} seed {seed}: digests differ from {PINNED.name} in {differ}"]
    return []


def tree_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


class Workload:
    """A named workload: ``setup`` once, then any number of ``call``s."""

    name = ""
    #: True when the timed call fans out to the process pool.
    uses_pool = False

    def setup(self, seed: int, workdir: Path) -> dict[str, Any]:
        """Build the inputs; return their sizes for the result's context."""
        raise NotImplementedError

    def call(self, directory: Path) -> Call:
        """Run the timed public call, writing only under ``directory``."""
        raise NotImplementedError

    def check(self, call: Call) -> list[str]:
        """Cheap checks every call must pass; returns the failures."""
        raise NotImplementedError

    def digests(self, call: Call) -> dict[str, str]:
        """Digests of the call's published output."""
        raise NotImplementedError

    def verify(self, call: Call) -> list[str]:
        """Compare ``call`` against an independent path through the library."""
        raise NotImplementedError

    def quality(self, call: Call) -> dict[str, float]:
        """Deterministic quality figures of the output (empty if none)."""
        return {}


class PolicyLeafspine(Workload):
    """``run_policy_survey`` over a leaf-spine deployment, one process, in memory."""

    name = "policy-leafspine"

    def setup(self, seed: int, workdir: Path) -> dict[str, Any]:
        spec = DeploymentSpec(
            topology=TopologySpec(num_spines=2, num_leaves=POLICY_LEAVES,
                                  servers_per_leaf=2),
            trace_duration=TRACE_HOURS * 3600.0, seed=seed, oversample_factor=4.0)
        self.source = spec.open()
        self.accountant = self.source.accountant()
        self.suite = paper_suite()
        self.pairs = len(self.source)
        # Every trace of one metric shares its shape, so one load per
        # metric gives the reference samples the policies consume.
        self.updates = sum(
            len(self.source.load(pairs[0])) * len(pairs)
            for pairs in map(self.source.pairs_for_metric, self.source.metric_names()))
        return {"points": self.pairs, "reference_samples": self.updates,
                "trace_bytes": 8 * self.updates, "leaves": POLICY_LEAVES}

    def _survey(self, workers: int) -> Any:
        return run_policy_survey(self.source, self.suite, accountant=self.accountant,
                                 chunk_size=POLICY_CHUNK, workers=workers)

    def call(self, directory: Path) -> Call:
        start = time.perf_counter()
        result = self._survey(workers=1)
        seconds = time.perf_counter() - start
        return Call(seconds, self.pairs, self.updates, result, directory)

    def check(self, call: Call) -> list[str]:
        result = call.output
        errors = []
        if len(result) != 3 * self.pairs or result.quarantined_count:
            errors.append(f"{len(result)} rows and {result.quarantined_count} "
                          f"quarantined; expected {3 * self.pairs} rows, none quarantined")
        costs = result.relative_costs("fixed")
        if not costs["fixed"] > costs["nyquist-static"] > costs["adaptive-dual-rate"]:
            errors.append(f"cost ordering fixed > nyquist-static > adaptive broken: {costs}")
        nrmse = self.quality(call)["adaptive_mean_nrmse"]
        if not nrmse < ADAPTIVE_NRMSE_CAP:
            errors.append(f"adaptive mean nrmse {nrmse} not under {ADAPTIVE_NRMSE_CAP}")
        return errors

    def digests(self, call: Call) -> dict[str, str]:
        return column_digests(call.output.iter_blocks())

    def verify(self, call: Call) -> list[str]:
        pooled = column_digests(self._survey(workers=POOL_WORKERS).iter_blocks())
        if pooled != self.digests(call):
            return ["run_policy_survey records differ between workers=1 and "
                    f"workers={POOL_WORKERS}"]
        return []

    def quality(self, call: Call) -> dict[str, float]:
        rows = {row["policy"]: row for row in call.output.rows()}
        return {"adaptive_relative_cost":
                call.output.relative_costs("fixed")["adaptive-dual-rate"],
                "adaptive_mean_nrmse": float(rows["adaptive-dual-rate"]["mean_nrmse"])}


class MeasuredSurvey(Workload):
    """``run_survey`` over a measured-fleet directory exported in setup."""

    #: A warm survey reads a store filled in setup; a cold one gets a fresh store per call.
    warm = False

    def setup(self, seed: int, workdir: Path) -> dict[str, Any]:
        fleet = FleetDataset(DatasetConfig(pair_count=PAPER_PAIR_COUNT, seed=seed))
        self.dataset = fleet.export(workdir / "fleet")
        self.pairs = len(self.dataset)
        self.updates = sum(pair.length for pair in self.dataset.pairs())
        sizes = {"pairs": self.pairs, "trace_samples": self.updates,
                 "trace_bytes": tree_bytes(workdir / "fleet" / "traces"),
                 "workers": POOL_WORKERS}
        if self.warm:
            self.store = RecordStore(workdir / "store")
            run_survey(self.dataset, chunk_size=SURVEY_CHUNK, workers=POOL_WORKERS,
                       sink=SpillingRecordSink(workdir / "populate-sink"), store=self.store)
            sizes["store_bytes"] = tree_bytes(workdir / "store")
        return sizes

    def store_for(self, directory: Path) -> RecordStore:
        return self.store if self.warm else RecordStore(directory / "store")

    def call(self, directory: Path, workers: int = POOL_WORKERS) -> Call:
        sink = SpillingRecordSink(directory / "sink")
        store = self.store_for(directory)
        start = time.perf_counter()
        result = run_survey(self.dataset, chunk_size=SURVEY_CHUNK, workers=workers,
                            sink=sink, store=store)
        seconds = time.perf_counter() - start
        return Call(seconds, self.pairs, self.updates, result, directory)

    def check(self, call: Call) -> list[str]:
        result = call.output
        errors = []
        expected = (self.pairs, 0) if self.warm else (0, self.pairs)
        if (result.cache_hits, result.cache_misses) != expected:
            errors.append(f"store served {result.cache_hits} hits and "
                          f"{result.cache_misses} misses; expected {expected}")
        if len(result) != self.pairs or result.quarantined_count:
            errors.append(f"{len(result)} records and {result.quarantined_count} "
                          f"quarantined; expected {self.pairs} records, none quarantined")
        return errors

    def digests(self, call: Call) -> dict[str, str]:
        return column_digests(call.output.iter_blocks())

    def verify(self, call: Call) -> list[str]:
        reference = column_digests(
            run_survey(self.dataset, chunk_size=SURVEY_CHUNK).iter_blocks())
        if reference != self.digests(call):
            return ["run_survey records differ from a workers=1 in-memory run "
                    "without a store"]
        return []


class SurveyPoolCold(MeasuredSurvey):
    """Every slice misses, is estimated in the pool and is written to the store."""

    name = "survey-pool-cold"
    uses_pool = True


class SurveyStoreWarm(MeasuredSurvey):
    """Every slice hits the store, so the estimator and the pool stay idle."""

    name = "survey-store-warm"
    warm = True


class IngestDumps(Workload):
    """``ingest_dump`` of a corrupted gNMI dump and an SNMP dump of one fleet."""

    name = "ingest-dumps"

    def setup(self, seed: int, workdir: Path) -> dict[str, Any]:
        self.fleet = FleetDataset(DatasetConfig(pair_count=INGEST_PAIRS,
                                                trace_duration=INGEST_TRACE_SECONDS,
                                                seed=seed))
        clean = self.fleet.export_gnmi_dump(workdir / "gnmi-clean.jsonl")
        self.gnmi = workdir / "gnmi.jsonl"
        self.corrupted_lines = corrupt_dump_lines(clean, self.gnmi, FaultPlan())
        clean.unlink()
        self.snmp = self.fleet.export_snmp_dump(workdir / "snmp.csv")
        sizes: dict[str, Any] = {"pairs": len(self.fleet)}
        for kind, path in (("gnmi", self.gnmi), ("snmp", self.snmp)):
            with path.open("rb") as handle:
                sizes[f"{kind}_lines"] = sum(1 for _ in handle)
            sizes[f"{kind}_bytes"] = path.stat().st_size
        sizes["corrupted_lines"] = len(self.corrupted_lines)
        sizes["memory_budget_samples"] = INGEST_BUDGET_SAMPLES
        self.lines = sizes["gnmi_lines"] + sizes["snmp_lines"] - 1  # less the csv header
        return sizes

    def dumps(self) -> tuple[tuple[str, Path], ...]:
        return (("gnmi", self.gnmi), ("snmp", self.snmp))

    def ingest(self, path: Path, destination: Path) -> MeasuredFleetDataset:
        return ingest_dump(path, destination, memory_budget_samples=INGEST_BUDGET_SAMPLES,
                           on_error="quarantine")

    def call(self, directory: Path) -> Call:
        seconds = 0.0
        published = {}
        for kind, path in self.dumps():
            start = time.perf_counter()
            published[kind] = self.ingest(path, directory / kind)
            seconds += time.perf_counter() - start
        pairs = sum(len(dataset) for dataset in published.values())
        updates = sum(dataset.ingest_stats.updates for dataset in published.values())
        return Call(seconds, pairs, updates, published, directory)

    def quarantined(self, kind: str, directory: Path) -> list[int]:
        manifest = json.loads((directory / kind / "manifest.json").read_text())
        return manifest["ingest"]["quarantined_lines"]

    def check(self, call: Call) -> list[str]:
        errors = []
        expected = {"gnmi": self.corrupted_lines, "snmp": []}
        for kind, dataset in call.output.items():
            if self.quarantined(kind, call.directory) != expected[kind]:
                errors.append(f"{kind}: quarantined lines differ from the lines "
                              "corrupt_dump_lines mangled")
            stats = dataset.ingest_stats
            if stats.spill_writes == 0 or stats.peak_buffered_samples > INGEST_BUDGET_SAMPLES:
                errors.append(f"{kind}: accumulator did not spill within its budget "
                              f"({stats})")
            if len(dataset) != len(self.fleet):
                errors.append(f"{kind}: published {len(dataset)} pairs, "
                              f"the fleet has {len(self.fleet)}")
        return errors

    def digests(self, call: Call) -> dict[str, str]:
        return self.published_digests(call.directory)

    def published_digests(self, directory: Path) -> dict[str, str]:
        digests: dict[str, str] = {}
        for kind, _ in self.dumps():
            digests.update(fleet_digests(directory / kind, kind))
        return digests

    def verify(self, call: Call) -> list[str]:
        # The SNMP dump is clean, so its ingest must reproduce every trace
        # of the fleet bit for bit.
        ingested = call.output["snmp"]
        by_key = {pair.key: pair for pair in ingested.pairs()}
        for pair, trace in self.fleet.traces():
            copy = by_key.get(pair.key)
            if copy is None or not np.array_equal(ingested.load(copy).values,
                                                  trace.values):
                return [f"snmp ingest does not reproduce the trace of {pair.key}"]
        return []


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PolicyLeafspine, SurveyPoolCold, SurveyStoreWarm, IngestDumps)}
