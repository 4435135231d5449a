"""Terminal waterfall renderer for one distributed trace.

``python -m repro traceview`` turns the spans of a single trace id into
an indented waterfall: each line is one span, indented by its
parent/child depth, with a bar positioned on the trace's time axis and
the span's duration and key attributes alongside::

    trace 9f0c...e1 · 5 spans · 13.42ms
    serve.request            |=======================| 13.42ms status=ok
      admission              |=|                        0.03ms
      queue.wait              |====|                    2.11ms
      kernel                       |==============|     8.90ms backend=numpy
      respond                                    |==|   0.41ms

Spans come from either

* a JSON-lines trace file (``--trace-file``): ``kind == "span"``
  records as written by :class:`repro.obs.export.JsonLinesExporter` or
  :func:`repro.obs.export.write_span_trace`; or
* a live scrape endpoint (``--url``): the ``/traces/<id>`` route of
  :class:`repro.obs.http.MetricsServer`.

Without an explicit trace id the renderer picks the trace with the
most spans in the file (handy straight after a loadgen run); ``--list``
enumerates what is available instead of rendering.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.request
from collections import Counter
from typing import IO, Iterable

#: Attribute keys surfaced inline on the waterfall (order = priority).
_SHOWN_ATTRIBUTES = (
    "status",
    "rung",
    "reason",
    "backend",
    "group_size",
    "group_kind",
    "protocol",
    "tenant",
    "n",
    "rounds",
    "worker.id",
)


def load_trace_file(path: str) -> list[dict]:
    """Every ``kind == "span"`` record in a JSON-lines trace file."""
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("kind") == "span":
                spans.append(record)
    return spans


def fetch_trace(url: str, trace_id: str) -> list[dict]:
    """Spans of one trace from a live ``/traces/<id>`` endpoint."""
    endpoint = f"{url.rstrip('/')}/traces/{trace_id}"
    with urllib.request.urlopen(endpoint, timeout=10) as response:
        payload = json.loads(response.read().decode("utf-8"))
    return list(payload.get("spans", ()))


def available_traces(spans: Iterable[dict]) -> list[tuple[str, int]]:
    """``(trace_id, span_count)`` pairs, most spans first."""
    counts: Counter[str] = Counter()
    for span in spans:
        trace_id = span.get("trace_id")
        if trace_id:
            counts[str(trace_id)] += 1
    return counts.most_common()


def _attribute_suffix(span: dict) -> str:
    attributes = span.get("attributes") or {}
    shown = [
        f"{key}={attributes[key]}"
        for key in _SHOWN_ATTRIBUTES
        if key in attributes
    ]
    return (" " + " ".join(shown)) if shown else ""


def _order_tree(spans: list[dict]) -> list[tuple[dict, int]]:
    """Spans in waterfall order: depth-first by parent, then start."""
    spans = sorted(spans, key=lambda span: float(span.get("start", 0.0)))
    by_id = {
        span.get("span_id"): span
        for span in spans
        if span.get("span_id")
    }
    children: dict[object, list[dict]] = {}
    roots: list[dict] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    ordered: list[tuple[dict, int]] = []

    def _walk(span: dict, depth: int) -> None:
        ordered.append((span, depth))
        for child in children.get(span.get("span_id"), ()):  # type: ignore[arg-type]
            _walk(child, depth + 1)

    for root in roots:
        _walk(root, 0)
    return ordered


def render_waterfall(
    spans: list[dict], width: int = 100
) -> str:
    """The waterfall for one trace's spans as a printable string."""
    if not spans:
        return "(no spans)"
    ordered = _order_tree(spans)
    base = min(float(span.get("start", 0.0)) for span, _ in ordered)
    end = max(
        float(span.get("start", 0.0)) + float(span.get("seconds", 0.0))
        for span, _ in ordered
    )
    total = max(end - base, 1e-9)
    trace_id = next(
        (
            str(span["trace_id"])
            for span, _ in ordered
            if span.get("trace_id")
        ),
        "untraced",
    )
    label_width = min(
        max(
            len("  " * depth + str(span.get("name", span.get("path", "?"))))
            for span, depth in ordered
        )
        + 2,
        48,
    )
    bar_width = max(width - label_width - 30, 20)
    lines = [
        f"trace {trace_id} · {len(ordered)} spans"
        f" · {total * 1e3:.2f}ms"
    ]
    for span, depth in ordered:
        name = str(span.get("name", span.get("path", "?")))
        label = ("  " * depth + name)[: label_width - 1]
        start = float(span.get("start", 0.0)) - base
        seconds = float(span.get("seconds", 0.0))
        left = int(round(start / total * bar_width))
        length = max(int(round(seconds / total * bar_width)), 1)
        left = min(left, bar_width - 1)
        length = min(length, bar_width - left)
        bar = " " * left + "|" + "=" * max(length - 2, 0) + "|"
        lines.append(
            f"{label:<{label_width}}{bar:<{bar_width + 2}}"
            f"{seconds * 1e3:9.2f}ms{_attribute_suffix(span)}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro traceview``."""
    parser = argparse.ArgumentParser(
        prog="repro traceview",
        description=(
            "Render a terminal waterfall for one trace id from a"
            " JSON-lines trace file or a live metrics endpoint."
        ),
    )
    parser.add_argument(
        "trace_id",
        nargs="?",
        help=(
            "trace id to render (default: the file's largest trace;"
            " required with --url)"
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--trace-file",
        help="JSON-lines file holding span records",
    )
    source.add_argument(
        "--url",
        help="base URL of a live metrics endpoint (e.g."
        " http://127.0.0.1:9464)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list trace ids in the file instead of rendering",
    )
    parser.add_argument(
        "--width",
        type=int,
        default=100,
        help="render width in columns (default 100)",
    )
    args = parser.parse_args(argv)
    out: IO[str] = sys.stdout

    if args.url:
        if args.list:
            parser.error("--list requires --trace-file")
        if not args.trace_id:
            parser.error("a trace id is required with --url")
        try:
            spans = fetch_trace(args.url, args.trace_id)
        except Exception as exc:
            print(f"error: failed to fetch trace: {exc}", file=sys.stderr)
            return 1
        if not spans:
            print(
                f"error: trace {args.trace_id!r} not found",
                file=sys.stderr,
            )
            return 1
        print(render_waterfall(spans, width=args.width), file=out)
        return 0

    spans = load_trace_file(args.trace_file)
    traces = available_traces(spans)
    if args.list:
        if not traces:
            print("(no traced spans in file)", file=out)
            return 1
        for trace_id, count in traces:
            print(f"{trace_id}  {count} spans", file=out)
        return 0
    trace_id = args.trace_id
    if trace_id is None:
        if not traces:
            print(
                "error: no traced spans in file", file=sys.stderr
            )
            return 1
        trace_id = traces[0][0]
    selected = [
        span for span in spans if span.get("trace_id") == trace_id
    ]
    if not selected:
        print(
            f"error: trace {trace_id!r} not found in"
            f" {args.trace_file}",
            file=sys.stderr,
        )
        return 1
    print(render_waterfall(selected, width=args.width), file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
