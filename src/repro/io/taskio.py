"""Task-set serialization: JSON and CSV, round-trip safe.

File formats
------------

JSON (versioned envelope)::

    {"format": "repro-taskset", "version": 1,
     "tasks": [{"release": 0.0, "deadline": 10.0, "work": 8.0, "name": "t1"}, ...]}

CSV (header required)::

    release,deadline,work[,name]
    0.0,10.0,8.0,t1

Both loaders validate through the :class:`~repro.core.task.Task` constructor,
so malformed instances fail loudly with the same errors as programmatic
construction.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from ..core.task import Task, TaskSet

__all__ = [
    "taskset_to_dict",
    "taskset_from_dict",
    "taskset_to_json",
    "taskset_from_json",
    "taskset_to_csv",
    "taskset_from_csv",
    "save_taskset",
    "load_taskset",
]

_FORMAT = "repro-taskset"
_VERSION = 1


def taskset_to_dict(tasks: TaskSet) -> dict:
    """The JSON document of a task set, as plain Python objects."""
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "tasks": [
            {
                "release": t.release,
                "deadline": t.deadline,
                "work": t.work,
                **({"name": t.name} if t.name else {}),
            }
            for t in tasks
        ],
    }


def taskset_to_json(tasks: TaskSet, indent: int | None = 2) -> str:
    """Serialize a task set to a JSON string."""
    return json.dumps(taskset_to_dict(tasks), indent=indent)


def taskset_from_dict(payload) -> TaskSet:
    """Validate and build a task set from its parsed JSON document."""
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} document")
    version = payload.get("version")
    if version != _VERSION:
        raise ValueError(f"unsupported {_FORMAT} version: {version!r}")
    rows = payload.get("tasks")
    if not isinstance(rows, list) or not rows:
        raise ValueError("document contains no tasks")
    tasks = []
    for i, row in enumerate(rows):
        try:
            tasks.append(
                Task(
                    release=float(row["release"]),
                    deadline=float(row["deadline"]),
                    work=float(row["work"]),
                    name=str(row.get("name", "")),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"task #{i} is malformed: {exc}") from exc
    return TaskSet(tasks)


def taskset_from_json(text: str) -> TaskSet:
    """Parse a task set from a JSON string."""
    return taskset_from_dict(json.loads(text))


def taskset_to_csv(tasks: TaskSet) -> str:
    """Serialize a task set to CSV text.

    Floats are written with :func:`repr` — the shortest representation
    that parses back to the identical float — so CSV round-trips are
    bit-exact like JSON's (the old ``%.12g`` formatting silently dropped
    the last bits of non-terminating values such as ``0.1 + 0.2``).
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["release", "deadline", "work", "name"])
    for t in tasks:
        writer.writerow([repr(t.release), repr(t.deadline), repr(t.work), t.name])
    return buf.getvalue()


def taskset_from_csv(text: str) -> TaskSet:
    """Parse a task set from CSV text (header required)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV") from None
    cols = [h.strip().lower() for h in header]
    required = ("release", "deadline", "work")
    for col in required:
        if col not in cols:
            raise ValueError(f"missing required column {col!r}")
    idx = {c: cols.index(c) for c in cols}
    tasks = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            tasks.append(
                Task(
                    release=float(row[idx["release"]]),
                    deadline=float(row[idx["deadline"]]),
                    work=float(row[idx["work"]]),
                    name=row[idx["name"]].strip() if "name" in idx and len(row) > idx["name"] else "",
                )
            )
        except (ValueError, IndexError) as exc:
            raise ValueError(f"CSV line {lineno} is malformed: {exc}") from exc
    if not tasks:
        raise ValueError("CSV contains no task rows")
    return TaskSet(tasks)


def save_taskset(tasks: TaskSet, path: str | Path) -> None:
    """Write a task set to disk; format chosen by extension (.json/.csv)."""
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(taskset_to_json(tasks))
    elif path.suffix == ".csv":
        path.write_text(taskset_to_csv(tasks))
    else:
        raise ValueError(f"unsupported extension {path.suffix!r} (use .json or .csv)")


def load_taskset(path: str | Path) -> TaskSet:
    """Read a task set from disk; format chosen by extension (.json/.csv)."""
    path = Path(path)
    if path.suffix == ".json":
        return taskset_from_json(path.read_text())
    if path.suffix == ".csv":
        return taskset_from_csv(path.read_text())
    raise ValueError(f"unsupported extension {path.suffix!r} (use .json or .csv)")
