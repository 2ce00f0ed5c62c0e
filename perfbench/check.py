"""Strict validation of BENCHMARK.json.

    python3 perfbench/check.py [PATH]

Checks the file's schema and limits (key sets, name and unit
character sets, counts, bounds, the ``setup_s`` metric, the time budget)
and that it agrees with the benchmark code: the same workloads and
metric names, and a per-layer map in which every per-layer metric names
existing end-to-end metrics and workloads it should move. Prints one
line per problem; the exit code is 1 when there is any.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import sys
from typing import Any, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
MAX_BYTES = 64 * 1024
MAX_BOUND = 0.25
#: Total wall-clock allowed for 4 + 22 * workloads runs of the benchmark.
TIME_BUDGET_S = 3420
#: The most workloads a file may hold once a run lasts 30 s or more.
MAX_LONG_WORKLOADS = 4

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _escapes(path: str) -> bool:
    return path.startswith("/") or ".." in path.split("/")


def _entries(doc: dict, key: str, keys: set, low: int, high: int, errors: List[str]) -> list:
    entries = doc.get(key)
    if not isinstance(entries, list) or not low <= len(entries) <= high:
        errors.append(f"{key}: needs a list of {low} to {high} entries")
        return []
    valid = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != keys:
            errors.append(f"{key}[{index}]: needs exactly the keys {sorted(keys)}")
        else:
            valid.append(entry)
    return valid


def validate(doc: Any, size_bytes: Optional[int] = None) -> List[str]:
    """Schema and limit problems of a parsed BENCHMARK.json."""
    errors: List[str] = []
    if size_bytes is not None and size_bytes > MAX_BYTES:
        errors.append(f"file is {size_bytes} bytes, over {MAX_BYTES}")
    if not isinstance(doc, dict) or set(doc) != TOP_KEYS:
        return errors + [f"top level needs exactly the keys {sorted(TOP_KEYS)}"]

    command = doc["command"]
    if (
        not isinstance(command, list)
        or not 1 <= len(command) <= 32
        or not all(isinstance(arg, str) and len(arg) <= 200 for arg in command)
    ):
        errors.append("command: needs 1 to 32 strings of at most 200 characters")
    elif any(_escapes(arg) for arg in command):
        errors.append("command: no argument may be absolute or lead out through '..'")

    paths = doc["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths: needs 1 to 16 directories")
    else:
        for path in paths:
            if not isinstance(path, str) or not PATH.fullmatch(path) or _escapes(path):
                errors.append(f"paths: {path!r} is not a relative path of [A-Za-z0-9_./-]")

    seconds = doc["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) or not 1 <= seconds <= 60:
        errors.append("run_seconds: needs a whole number from 1 to 60")
        seconds = None

    workloads = _entries(doc, "workloads", {"name", "why"}, 2, 8, errors)
    end_to_end = _entries(doc, "end_to_end", {"name", "unit", "better", "bound"}, 1, 16, errors)
    per_layer = _entries(doc, "per_layer", {"name", "unit", "better"}, 1, 128, errors)

    seen = set()
    for entry in workloads + end_to_end + per_layer:
        name = entry["name"]
        if not isinstance(name, str) or not NAME.fullmatch(name):
            errors.append(f"name {name!r}: use 1 to 64 of [A-Za-z0-9_.-], starting alphanumeric")
        elif name in seen:
            errors.append(f"name {name!r} is used twice")
        seen.add(name)
    for entry in workloads:
        why = entry["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            errors.append(f"workload {entry['name']!r}: why needs one line of at most 200 characters")
    for entry in end_to_end + per_layer:
        if not isinstance(entry["unit"], str) or not UNIT.fullmatch(entry["unit"]):
            errors.append(f"metric {entry['name']!r}: unit needs 1 to 16 of [A-Za-z0-9_/%.-]")
        if entry["better"] not in ("lower", "higher"):
            errors.append(f"metric {entry['name']!r}: better must be 'lower' or 'higher'")
    for entry in end_to_end:
        if not _is_number(entry["bound"]) or not 0 <= entry["bound"] <= MAX_BOUND:
            errors.append(f"metric {entry['name']!r}: bound needs a number in [0, {MAX_BOUND}]")

    setup = [entry for entry in end_to_end if entry["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end: needs setup_s in unit 's' with better 'lower'")
    elif all(_is_number(entry["bound"]) for entry in end_to_end):
        if setup[0]["bound"] < max(entry["bound"] for entry in end_to_end):
            errors.append("end_to_end: setup_s needs the largest bound")

    if seconds is not None and workloads:
        runs = 4 + 22 * len(workloads)
        if runs * seconds > TIME_BUDGET_S:
            errors.append(f"{runs} runs of {seconds} s exceed the {TIME_BUDGET_S} s budget")
        if seconds >= 30 and len(workloads) > MAX_LONG_WORKLOADS:
            errors.append(f"at most {MAX_LONG_WORKLOADS} workloads may run 30 s or longer")
    return errors


def validate_against_code(doc: dict, root: pathlib.Path = ROOT) -> List[str]:
    """Disagreements between a schema-valid file and the benchmark code."""
    from perfbench.metrics import END_TO_END, LAYER_MAP
    from perfbench.workloads import WORKLOADS

    errors: List[str] = []
    workloads = [entry["name"] for entry in doc["workloads"]]
    end_to_end = [entry["name"] for entry in doc["end_to_end"]]
    per_layer = [entry["name"] for entry in doc["per_layer"]]
    for path in doc["paths"]:
        if not (root / path).is_dir():
            errors.append(f"paths: {path!r} is not a directory of the repository")
    if sorted(workloads) != sorted(WORKLOADS):
        errors.append(f"workloads {sorted(workloads)} != code's {sorted(WORKLOADS)}")
    if sorted(end_to_end) != sorted(END_TO_END):
        errors.append(f"end_to_end {sorted(end_to_end)} != code's {sorted(END_TO_END)}")
    if sorted(per_layer) != sorted(LAYER_MAP):
        errors.append(f"per_layer {sorted(per_layer)} != code's {sorted(LAYER_MAP)}")
    for layer, targets in LAYER_MAP.items():
        for metric, workload in targets:
            if metric not in end_to_end or workload not in workloads:
                errors.append(f"per-layer {layer!r} maps to unknown ({metric!r}, {workload!r})")
    return errors


def main(argv: List[str]) -> int:
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    target = pathlib.Path(argv[0]) if argv else ROOT / "BENCHMARK.json"
    raw = target.read_bytes()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as error:
        print(f"{target}: not JSON: {error}")
        return 1
    errors = validate(doc, len(raw))
    if not errors:
        errors = validate_against_code(doc)
    for error in errors:
        print(f"{target.name}: {error}")
    if not errors:
        print(f"{target.name}: ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
