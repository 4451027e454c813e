"""The one text grammar shared by run configs, presets and checkpoint headers.

``[section]`` headers, ``key = value`` lines, blank lines and ``#`` comment
lines. Every key belongs to the section above it. Values are kept as text
unless a schema types them; a schema also rejects sections and keys it does
not name.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

Schema = Mapping[str, Mapping[str, Callable[[str], object]]]


def parse_sections(text: str, origin: str, error: type,
                   schema: Optional[Schema] = None) -> Dict[str, dict]:
    """Parse text into {section: {key: value}}; any violation raises
    ``error`` naming ``origin`` and the line."""
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
        if schema is not None:
            if key not in schema[current]:
                raise error(f"{where}: unknown key '{key}' in [{current}]")
            try:
                value = schema[current][key](value)
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
