"""The one text grammar shared by run configs, presets and checkpoint headers.

``[section]`` headers, ``key = value`` lines, blank lines and ``#`` comment
lines. Every key belongs to the section above it. Values are kept as text
unless a schema types them; a schema also rejects sections and keys it does
not name. ``parse_value`` and ``format_value`` are the one typed value codec:
bools are ``true``/``false``, int and float tuples comma-separated with no
empty item, floats written as ``.10g``; ``format_record`` and ``parse_record``
apply it to each field of a dataclass, a None field having no line.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Mapping, Optional, Union, get_args, get_origin, get_type_hints

Schema = Mapping[str, Mapping[str, object]]     # section -> key -> type


def parse_value(tp, text: str):
    """The value of type ``tp`` that ``text`` spells; ValueError if none."""
    if get_origin(tp) is Union:
        tp = next(a for a in get_args(tp) if a is not type(None))
    if get_origin(tp) is tuple:
        item = get_args(tp)[0]
        items = [v.strip() for v in text.split(",")] if text.strip() else []
        if "" in items:
            raise ValueError("empty item in the list")
        return tuple(item(v) for v in items)
    if tp is bool:
        if text not in ("true", "false"):
            raise ValueError("expected true or false")
        return text == "true"
    return tp(text)


def format_value(v) -> str:
    """The text ``parse_value`` reads back to ``v``; floats keep 10 digits."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(map(format_value, v))
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def format_record(obj) -> Dict[str, str]:
    """A dataclass instance as one ``key = value`` line per field that is not None."""
    return {k: format_value(v) for k, v in asdict(obj).items() if v is not None}


def parse_record(cls, kvs: Mapping[str, str]):
    """Inverse of ``format_record``: an Optional field with no line is None;
    KeyError names any other missing field, ValueError a key ``cls`` has no field for."""
    hints = get_type_hints(cls)
    args = {k: None if k not in kvs and type(None) in get_args(t) else parse_value(t, kvs[k])
            for k, t in hints.items()}
    unknown = [k for k in kvs if k not in hints]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    return cls(**args)


def parse_sections(text: str, origin: str, error: type,
                   schema: Optional[Schema] = None) -> Dict[str, dict]:
    """Parse text into {section: {key: value}}; any violation, a key set
    twice in one section among them, raises ``error`` naming ``origin`` and the line."""
    sections: Dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        where = f"{origin}:{lineno}"
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if schema is not None and current not in schema:
                raise error(f"{where}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise error(f"{where}: key outside any [section]")
        key, eq, value = line.partition("=")
        if not eq:
            raise error(f"{where}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if key in sections[current]:
            raise error(f"{where}: '{key}' is set twice in [{current}]")
        if schema is not None:
            if key not in schema[current]:
                raise error(f"{where}: unknown key '{key}' in [{current}]")
            try:
                value = parse_value(schema[current][key], value)
            except ValueError as exc:
                raise error(f"{where}: cannot parse {key} = {value!r}: {exc}") from None
        sections[current][key] = value
    return sections


def emit_sections(sections: Mapping[str, Mapping[str, str]]) -> str:
    """Text that ``parse_sections`` reads back to ``sections``, in their order."""
    lines = []
    for name, kvs in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in kvs.items())
    return "\n".join(lines) + "\n"
