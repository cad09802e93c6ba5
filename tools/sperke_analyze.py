#!/usr/bin/env python3
"""Sperke static analyzer: determinism, hygiene and architecture (DESIGN.md §11).

Every figure this repo reproduces depends on the simulation being a pure
function of its seeds. This is the machine check for the conventions that
keep it that way. One walk reads and blanks every ``.cpp``/``.h`` under
``src/``, ``tests/``, ``bench/``, ``examples/`` and ``tools/`` once; the
per-line and cross-file rules all run on those same texts, and any
finding fails the run (exit 1):

  wall-clock          Wall-clock time APIs (``std::chrono::system_clock``,
                      ``time()``, ``gettimeofday``, ...) anywhere, and
                      ``steady_clock`` inside ``src/`` (monotonic wall
                      timing is legitimate in benches, never in the
                      simulation itself — sim code uses ``sim::Time``).
  ambient-entropy     ``std::random_device``, bare or ``std::``-qualified
                      ``rand()``/``srand()``, ``std::random_shuffle``. All
                      randomness must flow through an explicitly seeded
                      ``sperke::Rng``.
  unordered-iteration Iteration over an ``unordered_map``/``unordered_set``
                      whose loop body feeds an output path (metrics,
                      traces, exporters, ``merge_from``, CSV/stream
                      writes). Hash order is not deterministic across
                      libstdc++ versions; ordered containers or sorted
                      snapshots are.
  catch-all           ``catch (...)`` that swallows without logging,
                      capturing (``std::current_exception``) or
                      rethrowing. Silent swallows turn invariant
                      violations into wrong numbers.
  include-hygiene     Public headers under ``src/`` that use a std
                      vocabulary type without directly including its
                      canonical header (transitive-include reliance; the
                      compile-in-isolation side is tests/headers_compile).
  header-guard        Headers missing ``#pragma once``.
  abr-factory         Direct construction of a concrete tile-ABR policy
                      (``SperkeVra``, ``KnapsackVra``, ``ConsistencyVra``,
                      ``FullPanoramaVra``) outside ``src/abr/``. Product
                      code and benches go through ``abr::make_policy`` so
                      every policy stays selectable by name (the arena
                      contract). ``tests/`` and ``tools/`` are exempt.
  link-construction   Direct construction of ``net::Link``, or a direct
                      ``start_transfer(`` call, in ``src/`` outside
                      ``src/net/`` and ``src/cdn/``. Product code fetches
                      through the ``net::ChunkSource`` seam, so links are
                      wired and driven by the net/cdn layers only.
                      References, pointers and ``net::LinkConfig`` stay
                      fair game; ``tests/``/``bench/``/``examples/`` build
                      link fixtures directly and are out of scope.
  metric-name         Metric registration sites (``.counter(`` /
                      ``.gauge(`` / ``.histogram(`` in ``src``, ``bench``
                      and ``examples``) whose name is not a string literal
                      matching ``[a-z0-9_.]+`` (the metric/SLO name rule,
                      obs/slo.h). ``tests/`` is exempt so hostile-name
                      escaping tests can exist.
  format-basics       Tabs, trailing whitespace, CRLF line endings,
                      missing final newline. The floor below
                      ``format-check`` (clang-format, when installed).
  layering            The ``#include`` graph of ``src/`` must respect the
                      declared module-layering DAG (``LAYERS`` below). A
                      back-edge or an include of an undeclared module
                      fails, naming the edge and — when the reverse
                      dependency already exists — the include cycle it
                      would close. ``--dot`` / ``--markdown`` emit the
                      observed dependency graph as a report.
  shared-state        Shards share no mutable state (DESIGN.md §9): any
                      namespace-scope mutable global, non-``constexpr``
                      function-local ``static`` (dynamic initialization
                      included — that is why ``static const std::vector``
                      counts), mutable ``static`` data member, or
                      ``thread_local`` in ``src/`` needs a suppression
                      saying why it is race-free and deterministic.
  telemetry-contract  Every metric/SLO name referenced by
                      ``tools/report.py`` or backtick-quoted in
                      ``DESIGN.md`` must match a name registered in
                      ``src``/``bench``/``examples`` (dynamic name parts —
                      ``"abr." + name + ".plans"`` — register as
                      wildcards, and ``<r>``-style placeholders in
                      references match them). Every row in
                      ``bench/baselines/*.json`` must map to
                      ``bench/bench_<stem>.cpp`` and each non-numeric
                      row-name segment must still occur in that source
                      or in ``src/``.
  stale-suppression   A suppression comment that suppressed no finding.

Suppress a finding with a comment on its line or the line before::

    // sperke: allow(<rule>[, <rule>]) <reason>

The reason is mandatory: an allow without one still suppresses, but is
reported under the suppressed rule. ``layering``, ``telemetry-contract``
and ``stale-suppression`` cannot be suppressed (change ``LAYERS``, the
reference, or delete the comment instead). ``report()`` records the
``(path, line, rule)`` of every allow it consumes, and the stale audit is
one loop over all allow comments against that set.

``--fix`` rewrites the mechanical ``format-basics`` findings in place
(CRLF endings, tabs, trailing whitespace, missing final newline) and is
idempotent. Tabs become two spaces even inside string literals: the rule
bans the raw character everywhere (``"\\t"`` escapes are the idiom).

The shared-state scanner is a heuristic C++ scope tracker, not a parser:
it classifies every brace as namespace / class / function-block /
initializer from the text preceding it, which is exact for this
repository's house style. Declarations that initialize a namespace-scope
variable with constructor parentheses (``static Foo x(1);``) read as
function declarations — use ``=`` or brace initialization, which the
style already does.

Usage:
    sperke_analyze.py [--root DIR] [--list-rules] [--self-test] [--fix]
                      [--dot FILE] [--markdown FILE]
"""

import argparse
import json
import pathlib
import re
import sys

SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")
CXX_SUFFIXES = {".cpp", ".h"}

RULES = (
    "wall-clock",
    "ambient-entropy",
    "unordered-iteration",
    "catch-all",
    "include-hygiene",
    "header-guard",
    "abr-factory",
    "link-construction",
    "metric-name",
    "format-basics",
    "layering",
    "shared-state",
    "telemetry-contract",
    "stale-suppression",
)
# Fixed where the contract lives (LAYERS, the reference, the comment
# itself), never inline: an allow() naming one of these is always stale.
UNSUPPRESSIBLE = ("layering", "telemetry-contract", "stale-suppression")

ALLOW_RE = re.compile(r"sperke:\s*allow\(([a-z\-, ]+)\)([^\n]*)")

# Wall-clock APIs that are never acceptable: they make output depend on
# when (or where) the process ran.
WALL_CLOCK_RE = re.compile(
    r"std::chrono::system_clock|\bsystem_clock\b|\bgettimeofday\b"
    r"|\bclock_gettime\b|\bstd::time\s*\(|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"
    r"|\blocaltime\b|\bgmtime\b|\bstrftime\b"
)
# steady_clock is monotonic, so it is fine for *measuring* a bench's wall
# speed — but simulation code must advance sim::Time, never read a clock.
STEADY_CLOCK_RE = re.compile(r"\bsteady_clock\b")

# The lookbehind keeps members such as Foo::rand( and identifiers ending in
# "rand" legal, so the std:: spellings need their own alternative.
ENTROPY_RE = re.compile(
    r"std::random_device|\brandom_device\b|(?<![\w:])s?rand\s*\("
    r"|\bstd::s?rand\s*\("
    r"|std::random_shuffle|\brandom_shuffle\b"
)

CATCH_ALL_RE = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
CATCH_HANDLED_RE = re.compile(
    r"current_exception|rethrow_exception|\bthrow\s*;|SPERKE_LOG_|log_message|FAIL\(\)"
)

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*>\s+(\w+)\s*[;{=]"
)
SINK_RE = re.compile(
    r"\bobserve\s*\(|\bcounter\s*\(|\bgauge\s*\(|\bhistogram\s*\(|merge_from"
    r"|\btrace\b|\bexport\w*\s*\(|\brecord\w*\s*\(|write_row|\bcsv\b|<<"
)

# Metric registration calls: member access (``.`` or ``->``) into one of
# the three MetricsRegistry instrument factories, in src/bench/examples.
# Runs on blanked text (length-preserving), so name literals are recovered
# from the raw text at the same indices.
METRIC_REG_RE = re.compile(r"[.>](counter|gauge|histogram)\s*\(")
METRIC_NAME_RE = re.compile(r"[a-z0-9_.]+\Z")
METRIC_DIRS = ("src", "bench", "examples")

# std vocabulary types headers must include directly (IWYU-lite). The map is
# deliberately small: high-signal types whose canonical header is unambiguous.
STD_NEEDS = {
    "std::shared_ptr": "memory",
    "std::unique_ptr": "memory",
    "std::weak_ptr": "memory",
    "std::make_shared": "memory",
    "std::make_unique": "memory",
    "std::string_view": "string_view",
    "std::string": "string",
    "std::vector": "vector",
    "std::map": "map",
    "std::set": "set",
    "std::unordered_map": "unordered_map",
    "std::unordered_set": "unordered_set",
    "std::function": "functional",
    "std::optional": "optional",
    "std::span": "span",
    "std::deque": "deque",
    "std::array": "array",
    "std::pair": "utility",
    "std::move": "utility",
    "std::atomic": "atomic",
    "std::mutex": "mutex",
    "std::jthread": "thread",
    "std::int64_t": "cstdint",
    "std::uint64_t": "cstdint",
    "std::int32_t": "cstdint",
    "std::uint32_t": "cstdint",
    "std::uint8_t": "cstdint",
    "std::size_t": "cstddef",
}
# Pragmatic equivalences: these headers also declare std::size_t.
PROVIDES = {
    "cstddef": {"cstddef", "cstdio", "cstdlib", "cstring", "ctime"},
}

# Concrete tile-ABR policy classes; only src/abr/ itself (and tests/tools)
# may name them — everything else goes through abr::make_policy.
ABR_CONCRETE_RE = re.compile(
    r"\b(SperkeVra|KnapsackVra|ConsistencyVra|FullPanoramaVra)\b(?!Config)"
)
ABR_FACTORY_DIRS = ("src", "bench", "examples")

# Direct net::Link construction: owning smart-pointer factories, bare new,
# or a stack/member instance (``net::Link name(...)`` / ``{...}``). The
# trailing [({] keeps ``net::Link&`` parameters, ``net::Link*`` pointers
# and ``net::LinkConfig``/``net::LinkSource`` out of the net.
LINK_CONSTRUCT_RE = re.compile(
    r"make_unique<\s*net::Link\s*>|make_shared<\s*net::Link\s*>"
    r"|\bnew\s+net::Link\b|\bnet::Link\s+\w+\s*[({]"
)
# A transfer started on a link directly, bypassing the ChunkSource seam.
LINK_TRANSFER_RE = re.compile(r"\bstart_transfer\s*\(")
LINK_EXEMPT_SUBDIRS = ("net", "cdn")

# ---- Declared module-layering DAG ----------------------------------------
# Key: module (directory under src/). Value: modules its headers and TUs may
# #include directly. The relation is intentionally explicit rather than
# rank-derived so a reviewer can diff exactly which edge a PR opens. It must
# be acyclic (checked at startup) and mirrors the architecture stack:
#
#   util -> {sim,geo} -> {obs,media} -> {net,hmp} -> {abr,player} -> core
#        -> {mp,live} -> cdn -> engine
LAYERS = {
    "util": set(),
    "sim": {"util"},
    "geo": {"util"},
    "obs": {"sim", "util"},
    "media": {"geo", "sim", "util"},
    "net": {"media", "sim", "util"},
    "hmp": {"geo", "media", "sim", "util"},
    "abr": {"geo", "media", "obs", "sim", "util"},
    "player": {"geo", "hmp", "media", "sim", "util"},
    "core": {"abr", "geo", "hmp", "media", "net", "obs", "sim", "util"},
    "mp": {"abr", "core", "geo", "hmp", "media", "net", "obs", "sim",
           "util"},
    "live": {"abr", "core", "geo", "hmp", "media", "net", "obs", "sim",
             "util"},
    "cdn": {"hmp", "media", "net", "obs", "sim", "util"},
    "engine": {"abr", "cdn", "core", "geo", "hmp", "live", "media", "mp",
               "net", "obs", "player", "sim", "util"},
}

INCLUDE_RE = re.compile(r'#include\s+"([^"]+)"')

# A telemetry reference: dotted lowercase name, optionally with <r>-style
# placeholders for dynamic segments.
METRIC_REF_RE = re.compile(r"[a-z0-9_]+(?:\.(?:[a-z0-9_]+|<[a-z_]+>))+")
# Dotted tokens that are file names, not metric names.
FILE_EXT_RE = re.compile(
    r"\.(cpp|h|py|sh|md|json|jsonl|csv|html|yml|yaml|txt|dot)$")

NUMERIC_SEGMENT_RE = re.compile(r"[0-9.]+")


def blank_comments_and_strings(text):
    """Replace comment/string contents with spaces, preserving line structure
    and length.

    Allow comments are found by scanning the raw text separately; every
    rule matches on the blanked text, so documentation mentioning
    ``system_clock`` does not trip the wall-clock rule.
    """
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif mode in ("str", "chr"):
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(quote)
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def source_files(root):
    files = []
    for d in SCAN_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(
                p for p in sorted(base.rglob("*")) if p.suffix in CXX_SUFFIXES)
    return files


def block_extent(lines, start, col=0):
    """Lines of the block starting at ``start`` (0-based), by braces.

    ``col`` skips text before the construct on the first line, so a
    leading ``}`` (as in ``} catch (...) {``) does not end the extent
    before it begins.
    """
    depth = 0
    opened = False
    end = start
    for j in range(start, min(start + 60, len(lines))):
        segment = lines[j][col:] if j == start else lines[j]
        depth += segment.count("{") - segment.count("}")
        if "{" in segment:
            opened = True
        end = j
        if opened and depth <= 0:
            break
    return lines[start:end + 1]


def innermost_scopes(blanked, positions):
    """Innermost scope kind ('ns'|'class'|'block'|'init') at each position.

    Walks the blanked text once, classifying every ``{`` by the statement
    head preceding it. File scope reads as 'ns'.
    """
    positions = sorted(set(positions))
    result = {}
    stack = []
    pi = 0
    for i, c in enumerate(blanked):
        while pi < len(positions) and positions[pi] <= i:
            result[positions[pi]] = stack[-1] if stack else "ns"
            pi += 1
        if c == "{":
            stack.append(classify_brace(blanked, i))
        elif c == "}" and stack:
            stack.pop()
    for p in positions[pi:]:
        result[p] = stack[-1] if stack else "ns"
    return result


def classify_brace(blanked, brace_pos):
    """Classify the scope a ``{`` at brace_pos opens."""
    start = brace_pos - 1
    while start >= 0 and blanked[start] not in ";{}":
        start -= 1
    head = blanked[start + 1:brace_pos].strip()
    if not head or head[-1] in "=,([{" or re.search(r"\breturn$", head):
        return "init"
    if re.search(r"\bnamespace\b", head):
        return "ns"
    # Drop (...) and <...> groups so parameter types and template
    # parameter lists cannot smuggle in a class-key.
    flat = re.sub(r"\([^()]*\)|<[^<>]*>", "", head)
    if re.search(r"\b(class|struct|union|enum)\b", flat):
        return "class"
    return "block"


def declaration_at(blanked, start):
    """Text of the declaration starting at ``start`` and whether it is a
    function declaration (first top-level ``(`` before any ``=``/``{``).

    ``<`` opens a nesting level only when it reads as a template argument
    list (directly after an identifier that is not ``operator``), so
    comparison expressions in initializers cannot unbalance the scan.
    """
    depth = 0
    is_function = None
    i = start
    while i < len(blanked):
        c = blanked[i]
        if c in "([":
            if c == "(" and depth == 0 and is_function is None:
                is_function = True
            depth += 1
        elif c == "<":
            prev = blanked[start:i].rstrip()
            if (prev and (prev[-1].isalnum() or prev[-1] in "_:")
                    and not prev.endswith("operator")):
                depth += 1
        elif c in ")>]":
            if not (c == ">" and i > 0 and blanked[i - 1] == "-"):
                depth = max(0, depth - 1)
        elif depth == 0:
            if c == "=" and is_function is None:
                is_function = False
            elif c == "{":
                if is_function is None:
                    is_function = False
                break
            elif c == ";":
                break
        i += 1
    return blanked[start:i], bool(is_function)


class Analyzer:
    def __init__(self, root):
        self.root = pathlib.Path(root).resolve()
        self.findings = []
        self.raw_by_file = {}
        self.raw_lines_by_file = {}
        # (relative path, comment line, rule) of every allow() comment that
        # suppressed a finding: the stale-suppression audit's input.
        self.used_allows = set()
        self.unordered_names = set()
        self.metric_patterns = set()
        self.module_edges = {}  # module -> set(module) actually included

    def report(self, path, lineno, rule, message):
        """Record a finding unless an allow(<rule>) comment on its line or
        the preceding line suppresses it."""
        rel = str(path.relative_to(self.root))
        raw_lines = self.raw_lines_by_file.get(path, [])
        if rule not in UNSUPPRESSIBLE:
            for probe in (lineno, lineno - 1):
                if not 1 <= probe <= len(raw_lines):
                    continue
                m = ALLOW_RE.search(raw_lines[probe - 1])
                if m and rule in [r.strip() for r in m.group(1).split(",")]:
                    self.used_allows.add((rel, probe, rule))
                    if not m.group(2).replace("*/", "").strip():
                        self.findings.append(
                            f"{rel}:{probe}: [{rule}] allow({rule}) without "
                            "a reason — say why the finding is safe")
                    return
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    # ---- per-line rules --------------------------------------------------

    def check_lines(self, path, lines, in_src):
        for idx, line in enumerate(lines, start=1):
            if WALL_CLOCK_RE.search(line):
                self.report(path, idx, "wall-clock",
                            "wall-clock API; simulation output must be a pure "
                            "function of seeds (use sim::Time)")
            elif in_src and STEADY_CLOCK_RE.search(line):
                self.report(path, idx, "wall-clock",
                            "steady_clock inside src/; monotonic wall timing "
                            "is for benches only — sim code advances "
                            "sim::Time")
            if ENTROPY_RE.search(line):
                self.report(path, idx, "ambient-entropy",
                            "ambient entropy source; use an explicitly seeded "
                            "sperke::Rng")
            m = CATCH_ALL_RE.search(line)
            if m:
                body = "\n".join(block_extent(lines, idx - 1, m.start()))
                if not CATCH_HANDLED_RE.search(body):
                    self.report(path, idx, "catch-all",
                                "catch (...) that neither logs, captures nor "
                                "rethrows — silent swallows corrupt results")

    def check_unordered_iteration(self, path, lines):
        if not self.unordered_names:
            return
        names = "|".join(re.escape(n) for n in sorted(self.unordered_names))
        range_for = re.compile(
            r"for\s*\([^;)]*:\s*(?:\w+(?:\.|->))?(" + names + r")\s*\)")
        iter_for = re.compile(
            r"for\s*\([^;]*=\s*(?:\w+(?:\.|->))?(" + names
            + r")\.(?:c?begin)\s*\(")
        for idx, line in enumerate(lines, start=1):
            if range_for.search(line) or iter_for.search(line):
                body = "\n".join(block_extent(lines, idx - 1))
                if SINK_RE.search(body):
                    self.report(path, idx, "unordered-iteration",
                                "iterating a hash container into an output "
                                "path (metrics/trace/export/merge); hash order "
                                "is not deterministic — use an ordered "
                                "container or sort a snapshot first")

    def check_abr_factory(self, path, parts, lines):
        """Concrete tile-ABR classes are an abr/-internal detail.

        ``*Config`` structs stay fair game: they are the factory's own
        parameter surface.
        """
        if parts[0] not in ABR_FACTORY_DIRS or parts[:2] == ("src", "abr"):
            return
        for idx, line in enumerate(lines, start=1):
            m = ABR_CONCRETE_RE.search(line)
            if m:
                self.report(path, idx, "abr-factory",
                            f"direct use of {m.group(1)} outside src/abr/; "
                            "construct tile-ABR policies via abr::make_policy "
                            "so they stay selectable by name")

    def check_link_construction(self, path, parts, lines):
        """Links are wired and driven by src/net and src/cdn; everyone else
        fetches through a ``net::ChunkSource`` (DESIGN.md §15)."""
        if parts[0] != "src" or (len(parts) > 1
                                 and parts[1] in LINK_EXEMPT_SUBDIRS):
            return
        for idx, line in enumerate(lines, start=1):
            if LINK_CONSTRUCT_RE.search(line):
                self.report(path, idx, "link-construction",
                            "direct net::Link construction outside "
                            "src/net//src/cdn; fetch through a "
                            "net::ChunkSource (cdn::Topology hands them out) "
                            "so the CDN tier stays in the path")
            elif LINK_TRANSFER_RE.search(line):
                self.report(path, idx, "link-construction",
                            "direct start_transfer outside src/net//src/cdn; "
                            "fetch through a net::ChunkSource "
                            "(net::LinkSource adapts a bare link) so the CDN "
                            "tier stays in the path")

    def check_include_hygiene(self, path, blanked):
        included = set(re.findall(r'#include <([^>]+)>', blanked))
        for token, header in sorted(STD_NEEDS.items()):
            if header in included:
                continue
            if any(p in included for p in PROVIDES.get(header, ())):
                continue
            m = re.search(re.escape(token) + r"\b", blanked)
            if m:
                lineno = blanked.count("\n", 0, m.start()) + 1
                self.report(path, lineno, "include-hygiene",
                            f"uses {token} without directly including "
                            f"<{header}> (transitive-include reliance)")

    def check_format_basics(self, path, raw, raw_lines):
        if "\r" in raw:
            self.report(path, 1, "format-basics", "CRLF line endings")
        if raw and not raw.endswith("\n"):
            self.report(path, len(raw_lines), "format-basics",
                        "missing final newline")
        for idx, line in enumerate(raw_lines, start=1):
            if "\t" in line:
                self.report(path, idx, "format-basics",
                            "tab character (indent with spaces)")
            if line != line.rstrip():
                self.report(path, idx, "format-basics", "trailing whitespace")

    # ---- metric registrations: metric-name + telemetry patterns ----------

    def scan_metric_registrations(self, path, raw, blanked):
        """One pass over the registration sites of a file.

        The first argument splits into literal and dynamic pieces:
        ``metric-name`` checks the leading literal, and every registration
        with a literal piece contributes a wildcard pattern to the
        telemetry contract (``"abr." + name + ".plans"`` registers
        ``abr.*.plans``).
        """
        for m in METRIC_REG_RE.finditer(blanked):
            # The name is the first argument only: stop at the matching
            # close paren or the first top-level comma (histogram
            # registrations pass bucket bounds after the name).
            depth = 1
            arg_end = m.end()
            while arg_end < len(blanked):
                c = blanked[arg_end]
                if c in "({":
                    depth += 1
                elif c in ")}":
                    depth -= 1
                    if depth == 0:
                        break
                elif c == "," and depth == 1:
                    break
                arg_end += 1
            pieces = []
            pos = m.end()
            while pos < arg_end:
                if blanked[pos] == '"':
                    close = blanked.find('"', pos + 1)
                    if close < 0 or close > arg_end:
                        break
                    pieces.append(("lit", raw[pos + 1:close]))
                    pos = close + 1
                else:
                    if not blanked[pos].isspace() and blanked[pos] != "+":
                        if not pieces or pieces[-1][0] != "dyn":
                            pieces.append(("dyn", ""))
                    pos += 1
            lineno = blanked.count("\n", 0, m.start()) + 1
            if not pieces or pieces[0][0] != "lit":
                self.report(path, lineno, "metric-name",
                            f"{m.group(1)}() registration without a "
                            "string-literal name; pass the name as a literal "
                            "so exported schemas stay greppable (or "
                            "allow(metric-name) for deliberately dynamic "
                            "names)")
            elif not METRIC_NAME_RE.fullmatch(pieces[0][1]):
                self.report(path, lineno, "metric-name",
                            f'metric name "{pieces[0][1]}" violates '
                            "[a-z0-9_.]+ (the shared metric/SLO name rule, "
                            "obs/slo.h)")
            if any(kind == "lit" for kind, _ in pieces):
                self.metric_patterns.add("".join(
                    "*" if kind == "dyn" else lit for kind, lit in pieces))

    # ---- rule: layering --------------------------------------------------

    def check_layer_dag_acyclic(self):
        """The declared DAG itself must be well-formed and acyclic."""
        here = self.root / "tools" / "sperke_analyze.py"
        for mod, deps in sorted(LAYERS.items()):
            for dep in sorted(deps):
                if dep not in LAYERS:
                    self.report(here, 1, "layering",
                                f"declared dependency {mod} -> {dep} names "
                                "an unknown module")
        # Kahn's algorithm over the declared edges.
        indeg = {m: 0 for m in LAYERS}
        for deps in LAYERS.values():
            for dep in deps:
                if dep in indeg:
                    indeg[dep] += 1
        queue = sorted(m for m, d in indeg.items() if d == 0)
        seen = 0
        while queue:
            mod = queue.pop()
            seen += 1
            for dep in sorted(LAYERS[mod]):
                if dep in indeg:
                    indeg[dep] -= 1
                    if indeg[dep] == 0:
                        queue.append(dep)
        if seen != len(LAYERS):
            cyclic = sorted(m for m, d in indeg.items() if d > 0)
            self.report(here, 1, "layering",
                        f"declared layering DAG has a cycle through {cyclic}")

    @staticmethod
    def dag_path(src, dst):
        """A dependency path src -> ... -> dst through the declared DAG,
        or None. Used to show the cycle a back-edge would close."""
        parent = {src: None}
        queue = [src]
        while queue:
            mod = queue.pop(0)
            if mod == dst:
                path = []
                while mod is not None:
                    path.append(mod)
                    mod = parent[mod]
                return list(reversed(path))
            for dep in sorted(LAYERS.get(mod, ())):
                if dep not in parent:
                    parent[dep] = mod
                    queue.append(dep)
        return None

    def check_layering(self, path, parts, raw, blanked):
        if parts[0] != "src" or len(parts) < 3:
            return
        module = parts[1]
        if module not in LAYERS:
            self.report(path, 1, "layering",
                        f"src/{module}/ is not declared in the layering DAG "
                        "(add it to LAYERS in tools/sperke_analyze.py)")
            return
        # Include paths are string literals, which blanking erases — match
        # on the raw text, but only where the #include token survived
        # blanking (commented-out includes do not count as edges).
        for m in INCLUDE_RE.finditer(raw):
            if blanked[m.start():m.start() + 8] != "#include":
                continue
            lineno = blanked.count("\n", 0, m.start()) + 1
            target = m.group(1).split("/")[0]
            if "/" not in m.group(1):
                self.report(path, lineno, "layering",
                            f'include "{m.group(1)}" is not module-qualified '
                            "(house style: #include \"<module>/<file>\")")
                continue
            if target == module:
                continue
            self.module_edges.setdefault(module, set()).add(target)
            if target not in LAYERS:
                self.report(path, lineno, "layering",
                            f'include "{m.group(1)}" names undeclared module '
                            f"{target}")
                continue
            if target not in LAYERS[module]:
                allowed = ", ".join(sorted(LAYERS[module])) or "(none)"
                msg = (f'back-edge include "{m.group(1)}": module {module} '
                       f"may not depend on {target} (allowed: {allowed})")
                cycle = self.dag_path(target, module)
                if cycle:
                    msg += ("; this closes the include cycle "
                            + " -> ".join([module] + cycle))
                self.report(path, lineno, "layering", msg)

    # ---- rule: shared-state ----------------------------------------------

    def check_shared_state(self, path, blanked):
        matches = list(re.finditer(r"\bthread_local\b|\bstatic\b", blanked))
        scopes = innermost_scopes(blanked, [m.start() for m in matches])
        reported_lines = set()

        for m in matches:
            scope = scopes[m.start()]
            if scope == "init":
                continue
            lineno = blanked.count("\n", 0, m.start()) + 1
            if lineno in reported_lines:
                continue
            decl, is_function = declaration_at(blanked, m.start())
            is_tl = "thread_local" in decl
            is_constexpr = re.search(r"\bconstexpr\b", decl) is not None
            is_const = is_constexpr or re.search(r"\bconst\b", decl)
            if is_tl:
                what = ("thread_local — per-thread state is invisible to "
                        "the shard-isolation merge; annotate why results "
                        "stay thread-count-invariant")
            elif scope == "block":
                if is_function or is_constexpr:
                    continue
                what = ("function-local static with dynamic initialization "
                        "— make it constexpr (std::array/string_view) or "
                        "annotate")
            else:  # 'ns' or 'class'
                if is_function or is_const:
                    continue
                where = ("namespace-scope" if scope == "ns"
                         else "static data member")
                what = (f"mutable {where} global — shards must not share "
                        "mutable state; move it into per-shard/session "
                        "objects or annotate")
            reported_lines.add(lineno)
            self.report(path, lineno, "shared-state",
                        what + " (// sperke: allow(shared-state) <reason>)")

        self.check_ns_scope_globals(path, blanked)

    def check_ns_scope_globals(self, path, blanked):
        """Mutable namespace-scope variables declared *without* static.

        Reassembles the namespace-scope statement stream (contents of
        class/function bodies elided, braced initializers kept) and flags
        variable-shaped statements that are neither const nor constexpr.
        """
        stack = []
        stmt_chars = []
        stmt_start = None

        def flush(terminated):
            nonlocal stmt_chars, stmt_start
            text = "".join(stmt_chars).strip()
            start = stmt_start
            stmt_chars, stmt_start = [], None
            if not terminated or not text or start is None:
                return
            self.check_ns_statement(path, blanked, text, start)

        i = 0
        n = len(blanked)
        while i < n:
            at_ns = not stack or stack[-1] == "ns"
            c = blanked[i]
            if c == "{":
                kind = classify_brace(blanked, i)
                if at_ns and kind == "init" and stmt_chars:
                    # Keep brace initializers inside the statement, elided.
                    depth = 1
                    j = i + 1
                    while j < n and depth:
                        if blanked[j] == "{":
                            depth += 1
                        elif blanked[j] == "}":
                            depth -= 1
                        j += 1
                    stmt_chars.append("{}")
                    i = j
                    continue
                if at_ns:
                    flush(terminated=False)  # function/class head
                stack.append(kind)
            elif c == "}":
                if stack:
                    stack.pop()
                if not stack or stack[-1] == "ns":
                    stmt_chars, stmt_start = [], None
            elif at_ns:
                if c == ";":
                    flush(terminated=True)
                elif c == "\n" and stmt_chars and stmt_chars[0] == "#":
                    stmt_chars, stmt_start = [], None  # preprocessor line
                else:
                    if stmt_start is None and not c.isspace():
                        stmt_start = i
                    if stmt_start is not None:
                        stmt_chars.append(c)
            i += 1

    NS_SKIP_RE = re.compile(
        r"^\s*(#|using\b|typedef\b|namespace\b|template\b|extern\b|"
        r"friend\b|static_assert\b|class\b|struct\b|union\b|enum\b|"
        r"public:|private:|protected:)")

    def check_ns_statement(self, path, blanked, text, start_pos):
        if self.NS_SKIP_RE.search(text):
            return
        if re.search(r"\bstatic\b|\bthread_local\b", text):
            return  # handled by the static/thread_local pass
        decl, is_function = declaration_at(text, 0)
        if is_function:
            return
        if re.search(r"\bconstexpr\b|\bconst\b", decl):
            return
        # A variable declaration needs at least a type and a name.
        if not re.search(r"[A-Za-z_][\w:<>,&*\s]*\s[A-Za-z_]\w*\s*(=|\{|$)",
                         decl.strip()):
            return
        lineno = blanked.count("\n", 0, start_pos) + 1
        self.report(path, lineno, "shared-state",
                    "mutable namespace-scope global — shards must not share "
                    "mutable state; move it into per-shard/session objects "
                    "or annotate (// sperke: allow(shared-state) <reason>)")

    # ---- rule: telemetry-contract ----------------------------------------

    @staticmethod
    def reference_matches(ref, patterns):
        probe = re.sub(r"<[a-z_]+>", "0", ref)
        for pattern in patterns:
            regex = ".+".join(re.escape(part)
                              for part in pattern.split("*"))
            if re.fullmatch(regex, probe):
                return True
        return False

    def check_telemetry_contract(self):
        patterns = self.metric_patterns
        # Telemetry namespaces we can vouch for: the first dotted segment
        # of every registered pattern with a literal head. References
        # rooted elsewhere (qoe.*, spec.*, file names) are not metric
        # names and stay out of scope.
        roots = set()
        for p in patterns:
            head = p.split(".")[0].split("*")[0]
            if head:
                roots.add(head)

        def check_ref(path, lineno, ref, where):
            if FILE_EXT_RE.search(ref):
                return
            if ref.split(".")[0] not in roots:
                return  # not a telemetry namespace (qoe.*, spec.*, ...)
            if not self.reference_matches(ref, patterns):
                self.report(path, lineno, "telemetry-contract",
                            f'{where} references metric/SLO name "{ref}" '
                            "but no registration in src/bench/examples "
                            "produces it (renamed without updating the "
                            "reference?)")

        # DESIGN.md: backtick-quoted metric names.
        design = self.root / "DESIGN.md"
        if design.is_file():
            text = design.read_text(encoding="utf-8", errors="replace")
            for m in re.finditer(r"`([^`\n]+)`", text):
                token = m.group(1)
                if METRIC_REF_RE.fullmatch(token):
                    lineno = text.count("\n", 0, m.start()) + 1
                    check_ref(design, lineno, token, "DESIGN.md")

        # tools/report.py: quoted metric names.
        report_py = self.root / "tools" / "report.py"
        if report_py.is_file():
            text = report_py.read_text(encoding="utf-8", errors="replace")
            for m in re.finditer(r"""["']([a-z0-9_.]+)["']""", text):
                token = m.group(1)
                if METRIC_REF_RE.fullmatch(token):
                    lineno = text.count("\n", 0, m.start()) + 1
                    check_ref(report_py, lineno, token, "tools/report.py")

        self.check_baselines()

    def check_baselines(self):
        """Every committed baseline row must be backed by bench source."""
        baseline_dir = self.root / "bench" / "baselines"
        if not baseline_dir.is_dir():
            return
        src_corpus = None
        for path in sorted(baseline_dir.glob("*.json")):
            bench_src = self.root / "bench" / f"bench_{path.stem}.cpp"
            if bench_src not in self.raw_by_file:
                self.report(path, 1, "telemetry-contract",
                            f"orphaned baseline: no bench/bench_{path.stem}"
                            ".cpp produces it")
                continue
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                self.report(path, 1, "telemetry-contract",
                            f"unparseable baseline JSON: {err}")
                continue
            bench_text = self.raw_by_file[bench_src]
            for bench in doc.get("benchmarks", []):
                name = bench.get("name", "")
                for segment in name.split("/"):
                    key = segment.split("=")[0]
                    if not key or NUMERIC_SEGMENT_RE.fullmatch(key):
                        continue
                    if key in bench_text:
                        continue
                    if src_corpus is None:
                        src_corpus = "\n".join(
                            text for p, text in self.raw_by_file.items()
                            if p.relative_to(self.root).parts[0] == "src")
                    if key not in src_corpus:
                        self.report(
                            path, 1, "telemetry-contract",
                            f'orphaned baseline row "{name}": segment '
                            f'"{key}" occurs neither in '
                            f"bench/bench_{path.stem}.cpp nor in src/ "
                            "(renamed without refreshing the baseline?)")

    # ---- rule: stale-suppression -----------------------------------------

    def check_stale_suppressions(self):
        for path, raw_lines in self.raw_lines_by_file.items():
            rel = str(path.relative_to(self.root))
            for lineno, line in enumerate(raw_lines, start=1):
                m = ALLOW_RE.search(line)
                if not m:
                    continue
                for rule in [r.strip() for r in m.group(1).split(",")]:
                    if (rel, lineno, rule) not in self.used_allows:
                        self.report(path, lineno, "stale-suppression",
                                    f"allow({rule}) suppresses no {rule} "
                                    "finding — delete it")

    # ---- reports ---------------------------------------------------------

    def dependency_dot(self):
        lines = ["digraph sperke_layers {", "  rankdir=BT;",
                 "  node [shape=box, fontname=\"monospace\"];"]
        for mod in sorted(LAYERS):
            lines.append(f"  {mod};")
        for mod in sorted(self.module_edges):
            for dep in sorted(self.module_edges[mod]):
                style = ("" if dep in LAYERS.get(mod, set())
                         else " [color=red, penwidth=2]")
                lines.append(f"  {mod} -> {dep}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def dependency_markdown(self):
        lines = ["# Module dependency report (tools/sperke_analyze.py)",
                 "",
                 "Arrows read \"may include\"; *observed* lists the direct",
                 "`#include` edges actually present in `src/`.",
                 "",
                 "| module | observed deps | allowed deps |",
                 "|---|---|---|"]
        for mod in sorted(LAYERS):
            observed = ", ".join(sorted(self.module_edges.get(mod, set())))
            allowed = ", ".join(sorted(LAYERS[mod]))
            lines.append(f"| {mod} | {observed or '—'} | {allowed or '—'} |")
        return "\n".join(lines) + "\n"

    # ---- driver ----------------------------------------------------------

    def check_file(self, path, raw, blanked):
        parts = path.relative_to(self.root).parts
        in_src = parts[0] == "src"
        lines = blanked.splitlines()
        self.check_lines(path, lines, in_src)
        self.check_unordered_iteration(path, lines)
        if parts[0] in METRIC_DIRS:
            self.scan_metric_registrations(path, raw, blanked)
        self.check_abr_factory(path, parts, lines)
        self.check_link_construction(path, parts, lines)
        if path.suffix == ".h":
            if "#pragma once" not in raw:
                self.report(path, 1, "header-guard",
                            "header missing #pragma once")
            if in_src:
                self.check_include_hygiene(path, blanked)
        self.check_format_basics(path, raw, self.raw_lines_by_file[path])
        if in_src:
            self.check_layering(path, parts, raw, blanked)
            self.check_shared_state(path, blanked)

    def run(self):
        blanked_by_file = {}
        for path in source_files(self.root):
            raw = path.read_text(encoding="utf-8", errors="replace")
            blanked = blank_comments_and_strings(raw)
            self.raw_by_file[path] = raw
            self.raw_lines_by_file[path] = raw.splitlines()
            blanked_by_file[path] = blanked
            for m in UNORDERED_DECL_RE.finditer(blanked):
                self.unordered_names.add(m.group(1))
        self.check_layer_dag_acyclic()
        for path, blanked in blanked_by_file.items():
            self.check_file(path, self.raw_by_file[path], blanked)
        self.check_telemetry_contract()
        self.check_stale_suppressions()
        self.findings.sort()
        return self.findings, len(blanked_by_file)


def fix_format_basics(root):
    """Rewrite the mechanical format-basics findings in place (``--fix``).

    CRLF → LF, tab → two spaces, trailing whitespace stripped, final
    newline appended. Returns the repo-relative paths of changed files;
    idempotent by construction (every rewrite is a fixed point).
    """
    root = pathlib.Path(root).resolve()
    changed = []
    for path in source_files(root):
        raw = path.read_text(encoding="utf-8", errors="replace")
        text = raw.replace("\r\n", "\n").replace("\r", "\n")
        text = text.replace("\t", "  ")
        text = "\n".join(line.rstrip() for line in text.split("\n"))
        if text and not text.endswith("\n"):
            text += "\n"
        if text != raw:
            path.write_text(text, encoding="utf-8")
            changed.append(str(path.relative_to(root)))
    return changed


def self_test():
    """Every rule on one synthetic tree (ctest analyze-selftest).

    Each rule gets a violation, a legal or out-of-scope form that must not
    fire, and (where suppressible) an allow comment; the expected table
    below covers all of RULES. Then the layering reports and ``--fix``.
    """
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)

        def put(rel, text):
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text, encoding="utf-8")

        # wall-clock: system_clock anywhere, steady_clock only in src/.
        put("src/sim/bad_clock.cpp",
            "void tick() {\n"
            "  auto a = std::chrono::system_clock::now();\n"
            "  auto b = std::chrono::steady_clock::now();\n"
            "}\n")
        put("bench/ok_clock.cpp",
            "// system_clock would be banned even here.\n"
            "auto t0 = std::chrono::steady_clock::now();\n")
        put("tests/ok_clock_allowed.cpp",
            "std::time_t now = std::time(nullptr);"
            "  // sperke: allow(wall-clock) fixture seeds nothing\n")

        # ambient-entropy: random_device and bare or std:: rand()/srand();
        # seeded Rng and identifiers merely ending in "rand" stay legal. An
        # allow without a reason still suppresses but is reported.
        put("bench/bad_entropy.cpp",
            "std::random_device rd;\n"
            "int r = rand() % 6;\n"
            "int s = std::rand() % 6;\n"
            "std::srand(42);\n")
        put("tests/ok_entropy.cpp",
            "sperke::Rng rng(seed);\n"
            "int g = operand(1);\n")
        put("tests/ok_entropy_allowed.cpp",
            "// sperke: allow(ambient-entropy) fixture seeds nothing\n"
            "std::random_device rd;\n")
        put("tests/bad_reason.cpp",
            "std::random_device rd;  // sperke: allow(ambient-entropy)\n")

        # unordered-iteration: only loops whose body feeds an output sink.
        put("src/obs/bad_iter.cpp",
            "void dump(std::ostream& os) {\n"
            "  std::unordered_map<int, int> counts;\n"
            "  for (const auto& [k, v] : counts) {\n"
            "    os << k << v;\n"
            "  }\n"
            "}\n")
        put("src/obs/ok_iter.cpp",
            "int sum() {\n"
            "  std::unordered_map<int, int> tallies;\n"
            "  int total = 0;\n"
            "  for (const auto& [k, v] : tallies) {\n"
            "    total += v;\n"
            "  }\n"
            "  return total;\n"
            "}\n")
        put("src/obs/ok_iter_allowed.cpp",
            "void emit(Trace& t) {\n"
            "  std::unordered_set<int> seen;\n"
            "  // sperke: allow(unordered-iteration) the sink sorts by id\n"
            "  for (int id : seen) {\n"
            "    t.record(id);\n"
            "  }\n"
            "}\n")

        # catch-all: a silent swallow fires; a rethrow does not.
        put("src/util/bad_catch.cpp",
            "void f() {\n"
            "  try {\n"
            "    g();\n"
            "  } catch (...) {\n"
            "  }\n"
            "}\n")
        put("src/util/ok_catch.cpp",
            "void f() {\n"
            "  try {\n"
            "    g();\n"
            "  } catch (...) {\n"
            "    throw;\n"
            "  }\n"
            "}\n")
        put("tests/ok_catch_allowed.cpp",
            "void f() {\n"
            "  try {\n"
            "    g();\n"
            "  } catch (...) {  // sperke: allow(catch-all) g() may throw\n"
            "  }\n"
            "}\n")

        # include-hygiene: src/ headers only; <cstdio> provides size_t.
        put("src/util/bad_incl.h",
            "#pragma once\n"
            "std::vector<int> make();\n")
        put("src/util/ok_incl.h",
            "#pragma once\n"
            "#include <cstdio>\n"
            "#include <vector>\n"
            "std::vector<std::size_t> sizes();\n")
        put("tests/ok_incl.h",
            "#pragma once\n"
            "std::string name();\n")
        put("src/util/ok_incl_allowed.h",
            "#pragma once\n"
            "// sperke: allow(include-hygiene) <optional> comes with the TU\n"
            "std::optional<int> maybe();\n")

        # header-guard: every header, any tree.
        put("bench/bad_guard.h",
            "inline int two() { return 2; }\n")
        put("examples/ok_guard.h",
            "#pragma once\n"
            "inline int three() { return 3; }\n")
        put("tests/ok_guard_allowed.h",
            "// sperke: allow(header-guard) re-includable X-macro table\n"
            "X(alpha)\n")

        # metric-name: literal [a-z0-9_.]+ names in src/bench/examples; a
        # literal head with dynamic parts passes; tests/ is exempt.
        put("bench/bad_metric.cpp",
            "void wire(obs::MetricsRegistry& m) {\n"
            "  m.counter(\"Bad-Name\");\n"
            "  m.gauge(name);\n"
            "}\n")
        put("examples/ok_metric.cpp",
            "void wire(obs::MetricsRegistry& m) {\n"
            "  m.histogram(\"fetch.latency_ms\", {1.0, 2.0});\n"
            "  m.counter(\"abr.\" + policy + \".plans\");\n"
            "}\n")
        put("tests/ok_metric_test.cpp",
            "reg.counter(\"Hostile Name\");\n")
        put("src/obs/ok_metric_allowed.cpp",
            "void wire(MetricsRegistry& m, const std::string& p) {\n"
            "  m.counter(p + \".hits\");  // sperke: allow(metric-name) fixed"
            " suffix\n"
            "}\n")

        # abr-factory: src/ and bench/ fire; src/abr/, tests/, *Config
        # structs and comment mentions do not.
        put("src/core/bad.cpp", "abr::SperkeVra vra(video, cfg);\n")
        put("bench/bad.cpp", "abr::FullPanoramaVra vra(video, {});\n")
        put("src/abr/ok.cpp", "SperkeVra vra(video, cfg);\n")
        put("tests/ok_test.cpp", "abr::KnapsackVra vra(video, {});\n")
        put("examples/ok_config.cpp",
            "// SperkeVra is built by the factory from this.\n"
            "abr::SperkeVraConfig cfg;\n")
        put("examples/ok_allowed.cpp",
            "// sperke: allow(abr-factory) demo of the concrete class\n"
            "abr::ConsistencyVra vra(video, {});\n")

        # link-construction: make_unique, stack instances and direct
        # start_transfer in src/ fire; src/net, src/cdn, tests/,
        # references, LinkConfig and ChunkSource fetches do not.
        put("src/engine/bad_link.cpp",
            "links_.push_back(std::make_unique<net::Link>(sim, cfg));\n")
        put("src/core/bad_link.cpp", "net::Link link(simulator, config);\n")
        put("src/net/ok_link.cpp",
            "auto l = std::make_unique<net::Link>(sim, cfg);\n")
        put("src/cdn/ok_link.cpp", "net::Link backhaul{sim, cfg};\n")
        put("tests/ok_link_test.cpp", "net::Link link(sim, cfg);\n")
        put("src/mp/ok_link_ref.cpp",
            "net::LinkConfig cfg;\n"
            "net::Link& link = topology.access_link(0);\n"
            "void wire(net::Link* l);\n")
        put("src/live/ok_link_allowed.cpp",
            "// sperke: allow(link-construction) first-mile pipe\n"
            "uplink_ = std::make_unique<net::Link>(sim, cfg);\n")
        put("src/mp/bad_transfer.cpp",
            "const auto id = path.link->start_transfer(bytes, cb, w);\n")
        put("src/cdn/ok_transfer.cpp",
            "access_.start_transfer(bytes, cb, weight);\n")
        put("src/core/ok_transfer.cpp",
            "// Not start_transfer(bytes) any more: the seam fetches.\n"
            "const net::FetchId id = source_.fetch(spec, cb);\n")

        # format-basics: tab and trailing space; an allow on the line before.
        put("tests/bad_format.cpp", "int a;\tint x;\nint b; \n")
        put("tests/ok_format_allowed.cpp",
            "// sperke: allow(format-basics) fixture keeps a trailing space\n"
            "int c; \n")

        # layering: a util -> core back-edge (closes a cycle, core already
        # depends on util), an undeclared-module include, and legal
        # downward/same-module includes.
        put("src/util/bad_layer.h",
            "#pragma once\n#include \"core/session.h\"\n")
        put("src/core/ok_layer.h",
            "#pragma once\n#include <vector>\n"
            "#include \"util/check.h\"\n#include \"core/buffer.h\"\n")
        put("src/net/bad_module.h",
            "#pragma once\n#include \"vendor/zlib.h\"\n")

        # shared-state: every flavor, annotated and not.
        put("src/core/bad_static.cpp",
            "namespace sperke::core {\n"
            "int answer() {\n"
            "  static int calls = 0;\n"
            "  return ++calls;\n"
            "}\n"
            "const std::vector<std::string>& names() {\n"
            "  static const std::vector<std::string> kNames = {\"a\"};\n"
            "  return kNames;\n"
            "}\n"
            "}  // namespace sperke::core\n")
        put("src/core/bad_tl.cpp",
            "namespace sperke::core {\n"
            "thread_local int scratch_size = 0;\n"
            "}\n")
        put("src/core/bad_global.cpp",
            "namespace {\n"
            "std::uint64_t g_total = 0;\n"
            "}  // namespace\n")
        put("src/geo/ok_shared.cpp",
            "#include <array>\n"
            "namespace sperke::geo {\n"
            "constexpr double kPi = 3.14159;\n"
            "const std::array<int, 2> kDims = {8, 12};\n"
            "int lookup(int i) {\n"
            "  static constexpr std::array<int, 2> kTable = {1, 2};\n"
            "  // sperke: allow(shared-state) per-thread scratch; never"
            " escapes\n"
            "  thread_local std::vector<int> scratch;\n"
            "  scratch.clear();\n"
            "  return kTable[i % 2] + kPi;\n"
            "}\n"
            "struct Grid {\n"
            "  static int area(int w, int h);\n"
            "  static constexpr int kCols = 12;\n"
            "};\n"
            "}  // namespace sperke::geo\n")

        # telemetry-contract: one good and one orphaned DESIGN reference,
        # one good and one orphaned baseline row, one orphaned baseline.
        put("src/obs/reg.cpp",
            "void wire(MetricsRegistry& m, const std::string& policy) {\n"
            "  m.counter(\"cdn.edge.hits\");\n"
            "  m.counter(\"abr.\" + policy + \".plans\");\n"
            "}\n")
        put("DESIGN.md",
            "Counters: `cdn.edge.hits`, `abr.<name>.plans` are exported;\n"
            "`cdn.edge.bytes_served` was renamed away.\n"
            "Fields such as `spec.shards` and files like `t.json` are\n"
            "not metric names.\n")
        put("bench/bench_widget.cpp",
            "// rows: Widget/users=8/hit_rate\n"
            "const char* kRow = \"Widget/hit_rate\";\n"
            "const char* kUsers = \"users\";\n")
        put("bench/baselines/widget.json", json.dumps({"benchmarks": [
            {"name": "Widget/users=8/hit_rate", "real_time": 1.0},
            {"name": "Widget/users=8/renamed_metric", "real_time": 2.0},
        ]}))
        put("bench/baselines/retired.json",
            json.dumps({"benchmarks": [{"name": "Gone/x", "real_time": 1.0}]}))

        # stale-suppression: one consumed allow (steady_clock in src/ is a
        # wall-clock finding), two stale ones, and an allow of a rule that
        # cannot be suppressed.
        put("src/sim/ok_allow.cpp",
            "void tick() {\n"
            "  auto t = std::chrono::steady_clock::now();"
            "  // sperke: allow(wall-clock) bench-only probe\n"
            "  (void)t;\n"
            "}\n")
        put("src/sim/stale_allow.cpp",
            "int pure() {\n"
            "  return 4;  // sperke: allow(ambient-entropy) was rand()\n"
            "}\n")
        put("src/sim/stale_shared.cpp",
            "int also_pure() {\n"
            "  // sperke: allow(shared-state) left behind after a refactor\n"
            "  return 5;\n"
            "}\n")
        put("src/sim/stale_layering.h",
            "#pragma once\n"
            "// sperke: allow(layering) the DAG is edited, not excused\n"
            "#include \"engine/engine.h\"\n")

        analyzer = Analyzer(root)
        findings, _ = analyzer.run()
        expected = {
            "wall-clock": ["src/sim/bad_clock.cpp:2:",
                           "src/sim/bad_clock.cpp:3:"],
            "ambient-entropy": ["bench/bad_entropy.cpp:1:",
                                "bench/bad_entropy.cpp:2:",
                                "bench/bad_entropy.cpp:3:",
                                "bench/bad_entropy.cpp:4:",
                                "tests/bad_reason.cpp:1:"],
            "unordered-iteration": ["src/obs/bad_iter.cpp:3:"],
            "catch-all": ["src/util/bad_catch.cpp:4:"],
            "include-hygiene": ["src/util/bad_incl.h:2:"],
            "header-guard": ["bench/bad_guard.h:1:"],
            "abr-factory": ["bench/bad.cpp:1:", "src/core/bad.cpp:1:"],
            "link-construction": ["src/core/bad_link.cpp:1:",
                                  "src/engine/bad_link.cpp:1:",
                                  "src/mp/bad_transfer.cpp:1:"],
            "metric-name": ["bench/bad_metric.cpp:2:",
                            "bench/bad_metric.cpp:3:"],
            "format-basics": ["tests/bad_format.cpp:1:",
                              "tests/bad_format.cpp:2:"],
            "layering": ["src/net/bad_module.h:2:",
                         "src/sim/stale_layering.h:3:",
                         "src/util/bad_layer.h:2:"],
            # The link-construction fixtures at namespace scope also read
            # as mutable globals.
            "shared-state": ["src/core/bad_global.cpp:2:",
                             "src/core/bad_static.cpp:3:",
                             "src/core/bad_static.cpp:7:",
                             "src/core/bad_tl.cpp:2:",
                             "src/mp/ok_link_ref.cpp:1:",
                             "src/mp/ok_link_ref.cpp:2:",
                             "src/net/ok_link.cpp:1:"],
            "telemetry-contract": ["DESIGN.md:2:",
                                   "bench/baselines/retired.json:1:",
                                   "bench/baselines/widget.json:1:"],
            "stale-suppression": ["src/sim/stale_allow.cpp:2:",
                                  "src/sim/stale_layering.h:2:",
                                  "src/sim/stale_shared.cpp:2:"],
        }
        assert sorted(expected) == sorted(RULES)

        def fail(why):
            print(f"sperke_analyze: SELF-TEST FAIL — {why}", file=sys.stderr)
            for f in findings:
                print(f"  {f}", file=sys.stderr)
            return 1

        for rule, want in expected.items():
            got = sorted(f.split(" ")[0] for f in findings
                         if f"[{rule}]" in f)
            if got != want:
                return fail(f"{rule} findings {got} != {want}")
        if len(findings) != sum(len(w) for w in expected.values()):
            return fail("findings outside the expected table")
        back_edge = [f for f in findings if "bad_layer" in f][0]
        if "cycle" not in back_edge:
            return fail(f"back-edge finding lacks the cycle: {back_edge}")
        if "without a reason" not in [f for f in findings
                                      if "bad_reason" in f][0]:
            return fail("a reasonless allow is not reported as such")
        dot = analyzer.dependency_dot()
        if "util -> core" not in dot or "color=red" not in dot:
            return fail("DOT report misses the back-edge")
        if "| util | core |" not in analyzer.dependency_markdown():
            return fail("markdown report misses the util -> core edge")

        # --fix: every mechanical format-basics finding is rewritten (the
        # allow comment does not protect the trailing space), the result
        # is clean, and a second pass is a no-op (idempotence).
        put("src/util/messy.cpp", "int a;\t\nint b; \r\nint c;")
        changed = fix_format_basics(root)
        want = ["src/util/messy.cpp", "tests/bad_format.cpp",
                "tests/ok_format_allowed.cpp"]
        if sorted(changed) != want:
            return fail(f"--fix changed {changed}, expected {want}")
        fixed = (root / "src/util/messy.cpp").read_text(encoding="utf-8")
        if fixed != "int a;\nint b;\nint c;\n":
            return fail(f"--fix produced {fixed!r}")
        if fix_format_basics(root) != []:
            return fail("--fix is not idempotent")
        findings, _ = Analyzer(root).run()
        if any("[format-basics]" in f for f in findings):
            return fail("format-basics findings survive --fix")
    print("sperke_analyze: self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the analyzer's own rule tests and exit")
    parser.add_argument("--fix", action="store_true",
                        help="rewrite mechanical format-basics findings "
                        "(CRLF, tabs, trailing whitespace, final newline) "
                        "in place, then exit")
    parser.add_argument("--dot", metavar="FILE",
                        help="write the observed module graph as DOT")
    parser.add_argument("--markdown", metavar="FILE",
                        help="write the module dependency table as markdown")
    args = parser.parse_args()
    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    if args.self_test:
        return self_test()
    if args.fix:
        changed = fix_format_basics(args.root)
        for rel in changed:
            print(f"fixed {rel}")
        print(f"sperke_analyze: --fix rewrote {len(changed)} file(s)")
        return 0

    analyzer = Analyzer(args.root)
    findings, nfiles = analyzer.run()
    if args.dot:
        pathlib.Path(args.dot).write_text(analyzer.dependency_dot(),
                                          encoding="utf-8")
    if args.markdown:
        pathlib.Path(args.markdown).write_text(analyzer.dependency_markdown(),
                                               encoding="utf-8")
    for finding in findings:
        print(finding)
    if findings:
        print(f"\nsperke_analyze: FAIL — {len(findings)} finding(s) "
              f"across {nfiles} files", file=sys.stderr)
        return 1
    print(f"sperke_analyze: OK — {nfiles} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
