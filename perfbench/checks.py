"""Output checks, and the self-test that shows each check can fail.

Serve workloads: every acknowledged ``steps_taken`` must equal the
caller's own count, and each live session's final ``metrics`` and
``snapshot``, as received, must equal a direct replay of the same
config and seed through :func:`repro.api.make_simulator`, passed
through ``json``.

Suite: checked against properties the tables must have, not against a
stored copy of their contents.
"""

from __future__ import annotations

import copy
import json
import math
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence



def canonical(value: Any) -> str:
    """JSON text with sorted keys: NaN-safe equality for wire payloads."""
    return json.dumps(value, sort_keys=True)


@dataclass
class SessionRecord:
    """One live session as the caller saw it at the end of a run."""

    session: str
    substrate: str
    config: Any
    steps: int
    metrics: Any
    snapshot: Any


def ack_problems(session: str, expected: int, response: Dict[str, Any]) -> List[str]:
    """An ok response must acknowledge exactly the caller's step count."""
    got = response.get("steps_taken")
    if got is not None and got != expected:
        return [f"{session}: acknowledged steps_taken {got}, caller counted "
                f"{expected}"]
    return []


def _wire(value: Any) -> str:
    return canonical(json.loads(json.dumps(value)))


class Replay:
    """A direct replay of one session's config and seed."""

    def __init__(self, record: SessionRecord) -> None:
        from repro.api import make_simulator
        self.sim = make_simulator(record.substrate, record.config)
        self.sim.reset(int(getattr(record.config, "seed", 0)))
        self.steps = 0
        self.advance(record.steps)

    def advance(self, steps: int) -> "Replay":
        for _ in range(steps):
            self.sim.step()
        self.steps += steps
        self.metrics = _wire(self.sim.metrics())
        self.snapshot = _wire(self.sim.snapshot())
        return self


def compare(record: SessionRecord, replay: Replay) -> List[str]:
    problems = []
    if canonical(record.metrics) != replay.metrics:
        problems.append(f"{record.session}: metrics after {record.steps} "
                        f"steps differ from a direct replay")
    if canonical(record.snapshot) != replay.snapshot:
        problems.append(f"{record.session}: snapshot after {record.steps} "
                        f"steps differs from a direct replay")
    return problems


def replay_problems(records: Sequence[SessionRecord]) -> List[str]:
    """Check every record against its replay, then self-test the check.

    The self-test plants two errors on the shortest session's real data
    -- a corrupted snapshot, and a step the server skipped (the caller
    counted one more step than the state shows) -- and requires both to
    be reported.
    """
    problems: List[str] = []
    replays = {}
    for record in records:
        replays[record.session] = replay = Replay(record)
        problems.extend(compare(record, replay))
    if problems or not records:
        return problems or ["no sessions to check"]
    shortest = min(records, key=lambda r: r.steps)
    replay = replays[shortest.session]

    corrupted = copy.deepcopy(shortest)
    corrupted.snapshot = _corrupt(corrupted.snapshot)
    if not compare(corrupted, replay):
        problems.append("self-test: a corrupted snapshot was not reported")

    skipped = copy.deepcopy(shortest)
    skipped.steps += 1
    if not compare(skipped, replay.advance(1)):
        problems.append("self-test: a skipped step was not reported")
    if not ack_problems(shortest.session, shortest.steps + 1,
                        {"ok": True, "steps_taken": shortest.steps}):
        problems.append("self-test: a skipped step was acknowledged")
    return problems


def _corrupt(value: Any) -> Any:
    """Change the first number found in a JSON-like value."""
    if isinstance(value, dict):
        for key in sorted(value):
            changed = _corrupt(value[key])
            if changed is not value[key]:
                return {**value, key: changed}
        return {**value, "corrupted": True}
    if isinstance(value, list):
        for i, item in enumerate(value):
            changed = _corrupt(item)
            if changed is not item:
                return value[:i] + [changed] + value[i + 1:]
        return value
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return value


# ---------------------------------------------------------------------------
# The quick suite
# ---------------------------------------------------------------------------

_AGREEMENT = re.compile(r"rank agreement \(live ordering == twin ordering\): "
                        r"([0-9.]+)")


def _table(tables: Sequence[Any], experiment_id: str) -> Optional[Any]:
    for table in tables:
        if table.experiment_id == experiment_id:
            return table
    return None


def _defined_nan(table: Any, row: Dict[str, Any], column: str) -> bool:
    """E9 defines ``mean_error`` as NaN when no node holds an estimate
    (``aware_fraction == 0``; see ``e9_collective``); nothing else may be."""
    return (table.experiment_id == "E9" and column == "mean_error"
            and row.get("aware_fraction") == 0.0)


def table_problems(tables: Sequence[Any]) -> List[str]:
    """Properties the quick suite's tables must have."""
    problems: List[str] = []
    for table in tables:
        for index, row in enumerate(table.rows):
            for column, value in row.items():
                if (isinstance(value, float) and not math.isfinite(value)
                        and not (math.isnan(value)
                                 and _defined_nan(table, row, column))):
                    problems.append(f"{table.experiment_id} row {index} "
                                    f"{column} = {value}")

    e18 = _table(tables, "E18")
    if e18 is None:
        problems.append("E18 table missing")
    else:
        match = _AGREEMENT.search(e18.notes)
        if match is None or match.group(1) != "1.00":
            problems.append(f"E18 rank agreement is not 1.00: "
                            f"{match.group(1) if match else 'missing'}")
        if any(r["live_rank"] != r["twin_rank"] for r in e18.rows):
            problems.append("E18 live and twin ranks differ")

    e14 = _table(tables, "E14")
    if e14 is None:
        problems.append("E14 table missing")
    else:
        top = max(r["offered_load"] for r in e14.rows)
        arms = {r["arm"]: r["goodput"] for r in e14.rows
                if r["offered_load"] == top}
        if not arms.get("governor", 0.0) > arms.get("static", math.inf):
            problems.append(f"E14 at load {top}: governor goodput "
                            f"{arms.get('governor')} does not exceed static "
                            f"{arms.get('static')}")

    e16 = _table(tables, "E16")
    if e16 is None:
        problems.append("E16 table missing")
    else:
        arms = {r["arm"]: r["goodput"] for r in e16.rows
                if r["traffic"] == "skewed"}
        if not arms.get("collective", 0.0) > arms.get("per_node", math.inf):
            problems.append(f"E16 skewed: collective goodput "
                            f"{arms.get('collective')} does not exceed "
                            f"per-node {arms.get('per_node')}")
    return problems


def suite_problems(cold: Any, warm: Any) -> List[str]:
    """Cold-vs-warm identity plus table properties, then the self-test.

    The self-test alters one table cell in a copy of the warm tables
    (E14's top-load governor goodput, made non-finite) and requires both
    the identity check and the property checks to report it.
    """
    from repro.experiments.engine import canonical_suite_text

    problems: List[str] = []
    cold_text = canonical_suite_text(cold.tables)
    if warm.executed_shards != 0 or warm.cached_shards != cold.total_shards:
        problems.append(f"warm rerun executed {warm.executed_shards} shards "
                        f"and served {warm.cached_shards} of "
                        f"{cold.total_shards} from cache")
    if canonical_suite_text(warm.tables) != cold_text:
        problems.append("warm rerun tables differ from the cold run")
    problems.extend(table_problems(cold.tables))
    if problems:
        return problems

    altered = copy.deepcopy(warm.tables)
    e14 = _table(altered, "E14")
    top = max(r["offered_load"] for r in e14.rows)
    for row in e14.rows:
        if row["offered_load"] == top and row["arm"] == "governor":
            row["goodput"] = -math.inf
    if canonical_suite_text(altered) == cold_text:
        problems.append("self-test: an altered table cell matched the cold run")
    if not table_problems(altered):
        problems.append("self-test: an altered table cell passed the "
                        "property checks")
    return problems
