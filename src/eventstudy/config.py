"""Run configuration: a flat key=value file plus command-line overrides.

The config file is deliberately primitive — one ``key = value`` per line,
``#`` comment lines, no sections — because a run has exactly one flat
namespace of knobs.  ``#`` starts a comment only at the start of a line;
after a value it is part of the value.  Relative paths in the file are
resolved against the file's own directory, so a config can ship next to its
data.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .inference import StudySettings

__all__ = ["RunConfig", "load_run_config"]

_FORMATS = ("csv", "json")
_PATH_KEYS = ("price_dir", "market_file", "events_file", "output")
_REQUIRED = ("price_dir", "market_file", "events_file")
#: Study settings are config keys too; each value takes its default's type.
_SETTING_TYPES = {f.name: type(f.default) for f in fields(StudySettings)}
_ALL_KEYS = frozenset(_PATH_KEYS + ("format",) + tuple(_SETTING_TYPES))


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one full study run."""

    price_dir: Path
    market_file: Path
    events_file: Path
    output: Path = Path("report.csv")
    format: str = "csv"
    settings: StudySettings = StudySettings()

    def __post_init__(self) -> None:
        for name in _PATH_KEYS:
            object.__setattr__(self, name, Path(getattr(self, name)))
        if self.format not in _FORMATS:
            raise ConfigError(f"format must be one of {', '.join(_FORMATS)}, got {self.format!r}")

    def check_inputs(self) -> None:
        """Raise :class:`ConfigError` unless ``price_dir`` and both input files exist."""
        if not self.price_dir.is_dir():
            raise ConfigError(f"price_dir {self.price_dir} is not a directory")
        for name in ("market_file", "events_file"):
            if not getattr(self, name).is_file():
                raise ConfigError(f"{name} {getattr(self, name)} does not exist")

    def price_file(self, instrument_id: str) -> Path:
        """The price history of one instrument: ``<price_dir>/<instrument_id>.csv``."""
        return self.price_dir / f"{instrument_id}.csv"


def _parse_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8-sig")  # drops a leading byte-order mark
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc})") from exc
    values: dict[str, str] = {}
    for line_num, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}: line {line_num}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(
                f"{path}: line {line_num}: unknown key {key!r} "
                f"(known: {', '.join(sorted(_ALL_KEYS))})"
            )
        if key in values:
            raise ConfigError(f"{path}: line {line_num}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _coerce(key: str, raw: str, base_dir: Path | None) -> object:
    if key in _PATH_KEYS:
        p = Path(raw)
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        return p
    kind = _SETTING_TYPES.get(key, str)
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc


def load_run_config(
    path: str | Path, overrides: Mapping[str, str] | None = None
) -> RunConfig:
    """Load a config file and apply command-line overrides on top.

    Paths from the file resolve against the file's directory; paths given
    as overrides resolve against the caller's working directory, matching
    what a shell user expects of a ``--out`` flag.
    """
    path = Path(path)
    file_values = _parse_file(path)
    missing = [key for key in _REQUIRED if key not in file_values]
    if missing:
        raise ConfigError(f"{path}: missing required key(s): {', '.join(missing)}")

    kwargs: dict[str, object] = {
        key: _coerce(key, raw, path.parent) for key, raw in file_values.items()
    }
    for key, raw in (overrides or {}).items():
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown override {key!r}")
        if raw is not None:
            kwargs[key] = _coerce(key, str(raw), None)
    settings = {key: kwargs.pop(key) for key in _SETTING_TYPES if key in kwargs}
    try:
        return RunConfig(settings=StudySettings(**settings), **kwargs)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
