"""Result persistence: experiment rows as JSON with a metadata header.

Every saved artifact records the experiment id, library version, and
the parameters that produced it, so a results directory is
self-describing and re-runs can be compared mechanically.

Artifacts are **strict JSON**: non-finite floats (NaN, ±Infinity) are
serialized as ``null`` — bare ``NaN``/``Infinity`` tokens are a Python
extension that jq and most other parsers reject, which would break the
"compared mechanically" contract. Artifacts written before this
encoding hold those tokens; ``json.loads(text, parse_constant=lambda
token: None)`` reads them as ``null``.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, Optional, Sequence, Union

from repro import __version__
from repro.errors import ReproError

PathLike = Union[str, pathlib.Path]

#: Current artifact schema version.
SCHEMA_VERSION = 1


def sanitize_json(value: Any) -> Any:
    """Canonicalize a value for strict-JSON persistence.

    Non-finite floats become ``None``; tuples become lists; mappings
    and sequences are walked recursively. Anything else passes through
    untouched (``json.dumps`` will reject it loudly if unserializable).
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: sanitize_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_json(item) for item in value]
    return value


def save_rows(
    path: PathLike,
    experiment: str,
    rows: Sequence[Dict[str, Any]],
    parameters: Optional[Dict[str, Any]] = None,
) -> pathlib.Path:
    """Write experiment rows to ``path`` as a self-describing JSON doc.

    Raises
    ------
    ReproError
        If a row is not JSON-serializable.
    """
    path = pathlib.Path(path)
    document = sanitize_json(
        {
            "schema": SCHEMA_VERSION,
            "experiment": experiment,
            "library_version": __version__,
            "parameters": dict(parameters or {}),
            "rows": list(rows),
        }
    )
    try:
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as error:
        raise ReproError(f"rows for {experiment!r} not serializable: {error}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return path


def save_manifest(path: PathLike, manifest: Dict[str, Any]) -> pathlib.Path:
    """Persist an engine run manifest (cells total/done/failed/cached,
    wall-clock) next to its artifact, as strict JSON."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(
        sanitize_json(manifest), indent=2, sort_keys=True, allow_nan=False
    )
    path.write_text(text + "\n")
    return path
