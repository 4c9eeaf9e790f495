#!/usr/bin/env python3
"""Repo-specific static lint for the SafeMem simulator.

Rules (scoped to ``src/`` unless noted):

  raw-allocation   No raw ``new`` / ``delete`` / libc heap calls outside
                   ``src/alloc/``.  All simulated-heap traffic must go
                   through HeapAllocator, and host-side ownership through
                   smart pointers / containers, so the tools' view of the
                   heap is complete.
  stream-output    No ``std::cout`` outside ``src/workloads/``; simulator
                   layers report through common/logging so output stays
                   structured and silenceable in tests.
  include-hygiene  Every header carries ``#pragma once``, and ``src/common``
                   (the base layer) includes nothing but other ``common/``
                   headers.
  header-docs      Every public header opens with a Doxygen ``@file`` block.
  string-keyed-stats  No string-keyed ``stats_.add("...")`` (or set/maxOf/
                   get) under ``src/cache/`` or ``src/mem/``: those sit on
                   the per-access hot path and must use enum-indexed slots
                   (``stats_.add(CacheStat::Hits)``).
  mutable-globals  No new non-const namespace-scope mutable variables under
                   ``src/``: process-wide state breaks the "a run is a pure
                   function of its RunSpec" contract that the parallel run
                   matrix depends on.  ``const``/``constexpr`` data and
                   ``thread_local`` slots are fine; the deprecated quiet
                   flag is allowlisted.
  string-trace-payload  No string literal inside a ``SAFEMEM_TRACE_EMIT``
                   (or ``...trace->emit(...)``) argument list under
                   ``src/``: flight-recorder payloads are enum IDs and
                   integer words only, so the emit path never formats and
                   the binary record stays fixed-size.
  unguarded-shared-state  A class that owns a host mutex (``Mutex`` /
                   ``std::mutex``) must name the guarding capability of
                   every other mutable data member (``GUARDED_BY(...)`` /
                   ``PT_GUARDED_BY(...)``) or carry an explicit
                   ``// lint: unguarded`` waiver on the member's line.
                   const/constexpr/static members and self-synchronising
                   types (atomics, condition variables, Mutex/Capability
                   themselves) are exempt.  Textual approximation: members
                   whose declaration spells parentheses (e.g.
                   ``std::function`` fields without an annotation) look
                   like method declarations and are not inspected.
  lock-order       Lock acquisitions inside one function must follow the
                   declared hierarchy (outermost first): watch-manager
                   park -> memory-bus lock.  Acquiring a lock at the
                   same or an outer level while an inner one is held
                   (including double acquisition) is flagged;
                   ``// lint: lock-order`` on the acquisition line waives
                   a deliberate exception.  Checked textually per
                   function: explicit pairs (``lockBus``/``unlockBus``,
                   ``parkAllForScrub``/``restoreAfterScrub``) and the
                   scoped ``BusLockGuard``, with scope-exit treated as
                   release.
  toolkind-plumbing  Every ``ToolKind`` enumerator declared in
                   ``src/workloads/driver.h`` must be named (as
                   ``ToolKind::<Name>``) in the driver's name table and
                   tool-stack factory (``driver.cc``), the CLI parser
                   (``cli.cc``), and the report writer's findings
                   predicates (``report_writer.cc``).  A tool kind that
                   compiles but cannot be selected, named, or summarised
                   is half-plumbed; this rule catches the forgotten
                   mirror before the -Werror switch coverage can (which
                   only guards files that already switch on the enum).
  codeword-arithmetic  No raw ``codewordBytes`` arithmetic (adjacent
                   arithmetic/bit operators, or ``alignUp``/``alignDown``
                   over the field) outside ``src/mem/`` and ``src/ecc/``:
                   codeword framing — what a codeword covers, where its
                   boundaries fall — is the protection-geometry seam's
                   business.  Other layers treat ProtectionGeometry as an
                   opaque run parameter: compare it, name it via
                   ``geometryName()``/``geometryLabel()``, pass it whole.
  single-space-kernel  No legacy single-address-space kernel accessors
                   (``kernel().pageTable()`` / ``kernel().tlb()``) outside
                   ``src/os/``: the kernel is multi-process now, and those
                   delegate to *whichever process is current*.  Code
                   elsewhere must name the process it means via the
                   Process seam (``kernel().currentProcess().tlb()`` or
                   ``kernel().process(pid).pageTable()``).

Usage:
  lint.py [--root DIR]   lint the tree rooted at DIR (default: repo root)
  lint.py --self-test    prove each rule fires on a seeded violation

Exit status is non-zero when violations (or self-test failures) are found.
"""

import argparse
import os
import re
import sys
import tempfile

LINT_DIRS = ["src"]
CC_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")


def strip_comments_and_strings(text):
    """Replace comment/string contents with spaces, preserving line breaks.

    Keeps offsets stable so reported line numbers match the original file.
    String and char literals are blanked so identifiers inside them cannot
    trip rules; escape sequences are honoured.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append('"')
                i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


RAW_ALLOC_PATTERNS = [
    (re.compile(r"(?<!\boperator )\bnew\b(?!\s*\()"), "raw 'new'"),
    (re.compile(r"\bnew\s*\("), "raw placement/'new('"),
    (re.compile(r"(?<![=.\w])\s*\bdelete\b(?!\s*;)"), "raw 'delete'"),
    (re.compile(r"\bmalloc\s*\("), "libc malloc()"),
    (re.compile(r"\bcalloc\s*\("), "libc calloc()"),
    (re.compile(r"\brealloc\s*\("), "libc realloc()"),
    # libc free() is not matched: the simulated allocation wrappers
    # (Env::free and friends) legitimately use the name.
]

DELETED_FN = re.compile(r"=\s*delete\b")


def check_raw_allocation(rel, stripped, violations):
    if not rel.startswith("src/") or rel.startswith("src/alloc/"):
        return
    for lineno, line in enumerate(stripped.splitlines(), 1):
        scrubbed = DELETED_FN.sub("=       ", line)
        for pattern, label in RAW_ALLOC_PATTERNS:
            if pattern.search(scrubbed):
                violations.append(Violation(
                    rel, lineno, "raw-allocation",
                    f"{label}: route heap traffic through HeapAllocator "
                    "or smart pointers"))
                break


def check_stream_output(rel, stripped, violations):
    if not rel.startswith("src/") or rel.startswith("src/workloads/"):
        return
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if re.search(r"\bstd::cout\b", line):
            violations.append(Violation(
                rel, lineno, "stream-output",
                "std::cout in a simulator layer: use common/logging"))


def check_include_hygiene(rel, raw, violations):
    # Include directives are inspected in the raw text: the path lives in
    # a string literal, which the stripper blanks. The leading-# anchor
    # keeps commented-out includes from matching.
    if not rel.startswith("src/"):
        return
    if rel.endswith((".h", ".hpp")) and "#pragma once" not in raw:
        violations.append(Violation(
            rel, 1, "include-hygiene", "header lacks '#pragma once'"))
    if rel.startswith("src/common/"):
        for lineno, line in enumerate(raw.splitlines(), 1):
            match = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
            if match and not match.group(1).startswith("common/"):
                violations.append(Violation(
                    rel, lineno, "include-hygiene",
                    f"common/ is the base layer; it may not include "
                    f"'{match.group(1)}'"))
    if rel.startswith("src/ecc/"):
        # The codec layer must stay machine-agnostic so one codec
        # instance can serve many machines and campaign workers: only
        # common/ (logging, rng) and sibling ecc/ headers are allowed.
        for lineno, line in enumerate(raw.splitlines(), 1):
            match = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
            if match and not match.group(1).startswith(("common/",
                                                        "ecc/")):
                violations.append(Violation(
                    rel, lineno, "include-hygiene",
                    f"ecc/ may only include common/ and ecc/ headers, "
                    f"not '{match.group(1)}'"))


STRING_STAT_DIRS = ("src/cache/", "src/mem/")
STRING_STAT = re.compile(r'\bstats_\s*\.\s*(add|set|maxOf|get)\s*\(\s*"')


def check_string_keyed_stats(rel, stripped, violations):
    # The stripper blanks string *contents* but keeps the quote chars, so
    # a literal first argument still shows up as `stats_.add("`.
    if not rel.startswith(STRING_STAT_DIRS):
        return
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if STRING_STAT.search(line):
            violations.append(Violation(
                rel, lineno, "string-keyed-stats",
                "per-access stats in cache/mem must use enum-indexed "
                "slots (stats_.add(CacheStat::...)), not string keys"))


# Existing process-global state, kept deliberately: the setLogQuiet()
# compatibility shim. Everything else must be per-Machine / per-run.
MUTABLE_GLOBAL_ALLOWLIST = {
    ("src/common/logging.cc", "g_defaultQuiet"),
}

# Statement openers that are never variable definitions.
MUTABLE_GLOBAL_SKIP = re.compile(
    r"^\s*(?:[#{}]|$|using\b|typedef\b|namespace\b|class\b|struct\b|"
    r"union\b|enum\b|template\b|static_assert\b|extern\b|friend\b)")

# `type name = ...;` / `type name{...};` / `type name;` with optional
# array brackets. Function declarations never match: '(' cannot appear
# between the type and the terminator.
MUTABLE_GLOBAL_DECL = re.compile(
    r"^\s*(?:static\s+|inline\s+)*"
    r"[A-Za-z_][\w:<>,\*&\s]*?\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)*(?:=[^=]|\{|;)")

IMMUTABLE_KEYWORDS = re.compile(
    r"\b(?:const|constexpr|constinit|thread_local)\b")


def namespace_scope_lines(stripped):
    """1-based numbers of lines that *start* at namespace scope.

    Walks the brace structure of the stripped text. A ``{`` whose
    preceding statement fragment contains the ``namespace`` keyword
    keeps namespace scope; any other brace (function body, class,
    initializer) leaves it. Multi-line declarations are judged by their
    first line, which is where the type and name live in this codebase.
    """
    at_scope = set()
    stack = []  # True for namespace braces, False otherwise
    fragment = []  # code since the last ; { or }
    lineno = 1
    if stripped:
        at_scope.add(1)
    for c in stripped:
        if c == "\n":
            lineno += 1
            if not stack or all(stack):
                at_scope.add(lineno)
            fragment.append(" ")
        elif c == "{":
            text = "".join(fragment)
            stack.append(re.search(r"\bnamespace\b", text) is not None)
            fragment = []
        elif c == "}":
            if stack:
                stack.pop()
            fragment = []
        elif c == ";":
            fragment = []
        else:
            fragment.append(c)
    return at_scope


def check_mutable_globals(rel, stripped, violations):
    if not rel.startswith("src/"):
        return
    scope_lines = namespace_scope_lines(stripped)
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if lineno not in scope_lines:
            continue
        if MUTABLE_GLOBAL_SKIP.match(line):
            continue
        if IMMUTABLE_KEYWORDS.search(line):
            continue
        match = MUTABLE_GLOBAL_DECL.match(line)
        if not match:
            continue
        if (rel, match.group("name")) in MUTABLE_GLOBAL_ALLOWLIST:
            continue
        violations.append(Violation(
            rel, lineno, "mutable-globals",
            f"namespace-scope mutable '{match.group('name')}': runs must "
            "be pure functions of their RunSpec — keep state per-Machine "
            "or per-run (const/constexpr/thread_local are fine)"))


# A trace emit site: the SAFEMEM_TRACE_EMIT macro, or a direct emit()
# call on something trace-shaped (`trace_->emit(`, `machine.trace()->emit(`).
TRACE_EMIT_OPEN = re.compile(
    r"\bSAFEMEM_TRACE_EMIT\s*\(|"
    r"(?:\btrace\w*|\btrace\s*\(\s*\))\s*(?:->|\.)\s*emit\s*\(")


def check_string_trace_payload(rel, stripped, violations):
    # The stripper blanks string *contents* but keeps the quote chars, so
    # any literal in the argument list still shows up as a '"'.
    if not rel.startswith("src/"):
        return
    for match in TRACE_EMIT_OPEN.finditer(stripped):
        depth = 0
        end = match.end() - 1  # the opening '('
        while end < len(stripped):
            if stripped[end] == "(":
                depth += 1
            elif stripped[end] == ")":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        if '"' in stripped[match.end():end]:
            lineno = stripped.count("\n", 0, match.start()) + 1
            violations.append(Violation(
                rel, lineno, "string-trace-payload",
                "string literal in a trace emit: flight-recorder payloads "
                "are enum IDs and integer words only"))


# The legacy accessors delegate to the *current* process; outside the
# kernel's own layer that is an accident waiting for a context switch.
# `.process(pid).` / `.currentProcess().` between the kernel and the
# accessor is the sanctioned seam and must not match.
SINGLE_SPACE_KERNEL = re.compile(
    r"\bkernel(?:_|\s*\(\s*\))\s*(?:\.|->)\s*(?P<name>pageTable|tlb)\s*\(")


def check_single_space_kernel(rel, stripped, violations):
    if not rel.startswith("src/") or rel.startswith("src/os/"):
        return
    for lineno, line in enumerate(stripped.splitlines(), 1):
        match = SINGLE_SPACE_KERNEL.search(line)
        if match:
            violations.append(Violation(
                rel, lineno, "single-space-kernel",
                f"legacy kernel().{match.group('name')}() reads whichever "
                "process is current: go through the Process seam "
                "(kernel().currentProcess()/process(pid)) instead"))


# --- codeword-arithmetic ---------------------------------------------------

# ProtectionGeometry::codewordBytes fed into arithmetic — adjacent
# arithmetic/bit operators or an alignUp/alignDown call — outside the
# two layers that own codeword framing (src/mem/, src/ecc/).  Code
# elsewhere treats the geometry as an opaque run parameter: compare it,
# name it (geometryName/geometryLabel), pass it whole.  Equality tests
# against the field stay fine anywhere.
CODEWORD_ARITH_AFTER = re.compile(
    r"^\s*(?:<<|>>|[-+*/%^\[]|&(?!&)|\|(?!\|))")
CODEWORD_ARITH_BEFORE = re.compile(
    r"(?:<<|>>|[-+*/%^\[]|(?<!&)&(?!&)|(?<!\|)\|(?!\|))\s*$")
CODEWORD_ALIGN_CALL = re.compile(
    r"\balign(?:Up|Down)\s*\([^;{}]*\bcodewordBytes\b")


def check_codeword_arithmetic(rel, stripped, violations):
    if not rel.startswith("src/"):
        return
    if rel.startswith(("src/mem/", "src/ecc/")):
        return
    for lineno, line in enumerate(stripped.splitlines(), 1):
        flagged = bool(CODEWORD_ALIGN_CALL.search(line))
        if not flagged:
            for match in re.finditer(r"\bcodewordBytes\b", line):
                after = line[match.end():]
                before = line[:match.start()]
                # Walk back over the object expression the member hangs
                # off (geometry_.codewordBytes, spec->geometry.codewordBytes)
                # to find the operator in front of the whole access.
                expr = re.search(r"[A-Za-z_][\w.]*(?:->[\w.]*)*\s*$", before)
                head = before[:expr.start()] if expr else before
                if (CODEWORD_ARITH_AFTER.search(after)
                        or CODEWORD_ARITH_BEFORE.search(head)):
                    flagged = True
                    break
        if flagged:
            violations.append(Violation(
                rel, lineno, "codeword-arithmetic",
                "raw codeword-size arithmetic belongs to src/mem/ and "
                "src/ecc/; elsewhere treat ProtectionGeometry as opaque "
                "(compare it, geometryName() it, or pass it whole)"))


# --- lock-discipline rules -------------------------------------------------

# Owning one of these makes a class "mutex-owning": every other mutable
# member must say which capability guards it (or carry a waiver).
MUTEX_OWNER_MEMBER = re.compile(
    r"\b(?:safemem::)?(?:Mutex|std::mutex)\s+[A-Za-z_]\w*\s*;")

GUARD_ANNOTATION = re.compile(r"\b(?:PT_)?GUARDED_BY\s*\(")

# Members that synchronise themselves (atomics, condition variables, the
# lock objects) or cannot be written (const/static) need no guard.
UNGUARDED_EXEMPT = re.compile(
    r"^\s*(?:static|const|constexpr|using|typedef|friend|public|private|"
    r"protected)\b|"
    r"\b(?:Mutex|CondVar|Capability|std::mutex|std::condition_variable|"
    r"std::atomic)\b")

UNGUARDED_WAIVER = "lint: unguarded"
LOCK_ORDER_WAIVER = "lint: lock-order"

# The declared lock hierarchy, outermost level first. Acquiring a level
# while holding the same or a deeper (more senior) one is a violation.
# Explicit pairs release by name; RAII guards release at scope exit.
LOCK_HIERARCHY = [
    ("watch-park", "parkAllForScrub", "restoreAfterScrub", ()),
    ("bus-lock", "lockBus", "unlockBus", ("BusLockGuard",)),
]


def class_member_line_groups(stripped):
    """1-based line numbers at member scope, one list per class body.

    Walks the brace structure of the stripped text. A ``{`` whose
    preceding statement fragment contains ``class``/``struct``/``union``
    (but not ``enum``) opens a member scope; braces nested inside it
    (method bodies, initializers) leave it. A line belongs to the scope
    that is open where the line starts.
    """
    groups = []
    stack = []  # per open brace: index into groups, or None
    fragment = []
    lineno = 1
    for c in stripped:
        if c == "\n":
            lineno += 1
            if stack and stack[-1] is not None:
                groups[stack[-1]].append(lineno)
            fragment.append(" ")
        elif c == "{":
            text = "".join(fragment)
            if (re.search(r"\b(?:class|struct|union)\b", text)
                    and not re.search(r"\benum\b", text)):
                groups.append([])
                stack.append(len(groups) - 1)
            else:
                stack.append(None)
            fragment = []
        elif c == "}":
            if stack:
                stack.pop()
            fragment = []
        elif c == ";":
            fragment = []
        else:
            fragment.append(c)
    return groups


def check_unguarded_shared_state(rel, stripped, raw, violations):
    if not rel.startswith("src/"):
        return
    stripped_lines = stripped.splitlines()
    raw_lines = raw.splitlines()
    for member_lines in class_member_line_groups(stripped):
        lines = [(n, stripped_lines[n - 1]) for n in member_lines
                 if n - 1 < len(stripped_lines)]
        if not any(MUTEX_OWNER_MEMBER.search(text) for _, text in lines):
            continue
        for lineno, text in lines:
            if GUARD_ANNOTATION.search(text):
                continue
            if UNGUARDED_EXEMPT.search(text):
                continue
            if "(" in text:
                continue  # method declaration / annotated signature
            match = MUTABLE_GLOBAL_DECL.match(text)
            if not match:
                continue
            raw_line = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            if UNGUARDED_WAIVER in raw_line:
                continue
            violations.append(Violation(
                rel, lineno, "unguarded-shared-state",
                f"member '{match.group('name')}' of a mutex-owning class "
                "names no guard: add GUARDED_BY(...) or an explicit "
                "'// lint: unguarded' waiver with a reason"))


def _is_lock_call_site(line, pos):
    """True when the match at ``pos`` is a call, not a declaration.

    Declarations carry a return type (``void lockBus()``) or a
    ``Class::`` qualifier immediately before the name; call sites are
    reached through ``.``/``->`` or stand alone at statement start.
    """
    i = pos - 1
    while i >= 0 and line[i] in " \t":
        i -= 1
    if i < 0:
        return True
    return not (line[i].isalnum() or line[i] in "_:~")


def _lock_order_events(line):
    """(pos, kind, level) lock/brace events on a line, in textual order."""
    events = []
    for level, (_, acquire, release, guards) in enumerate(LOCK_HIERARCHY):
        for m in re.finditer(r"\b" + acquire + r"\s*\(", line):
            if _is_lock_call_site(line, m.start()):
                events.append((m.start(), "acquire", level))
        for m in re.finditer(r"\b" + release + r"\s*\(", line):
            if _is_lock_call_site(line, m.start()):
                events.append((m.start(), "release", level))
        for guard in guards:
            for m in re.finditer(r"\b" + guard + r"\s+\w+\s*[({]", line):
                events.append((m.start(), "acquire", level))
    for pos, ch in enumerate(line):
        if ch in "{}":
            events.append((pos, ch, None))
    events.sort(key=lambda e: e[0])
    return events


def check_lock_order(rel, stripped, raw, violations):
    if not rel.startswith("src/"):
        return
    raw_lines = raw.splitlines()
    held = []  # (level, depth at acquisition)
    depth = 0
    for lineno, line in enumerate(stripped.splitlines(), 1):
        for _, kind, level in _lock_order_events(line):
            if kind == "{":
                depth += 1
            elif kind == "}":
                depth = max(0, depth - 1)
                while held and held[-1][1] > depth:
                    held.pop()  # scope exit releases what it acquired
                if depth == 0:
                    held.clear()
            elif kind == "acquire":
                offending = [h for h in held if h[0] >= level]
                raw_line = (raw_lines[lineno - 1]
                            if lineno <= len(raw_lines) else "")
                if offending and LOCK_ORDER_WAIVER not in raw_line:
                    held_name = LOCK_HIERARCHY[offending[-1][0]][0]
                    violations.append(Violation(
                        rel, lineno, "lock-order",
                        f"acquires {LOCK_HIERARCHY[level][0]} while holding "
                        f"{held_name}: the hierarchy is watch-park > "
                        "bus-lock (outermost first), and a held level may "
                        "never be re-acquired"))
                held.append((level, depth))
            else:  # release: drop the most recent hold of that level
                for i in range(len(held) - 1, -1, -1):
                    if held[i][0] == level:
                        del held[i]
                        break


def check_header_docs(rel, raw, violations):
    if not rel.startswith("src/") or not rel.endswith((".h", ".hpp")):
        return
    head = "\n".join(raw.splitlines()[:5])
    if "/**" not in head or "@file" not in raw.split("*/", 1)[0]:
        violations.append(Violation(
            rel, 1, "header-docs",
            "public header must open with a '/** @file ... */' block"))


# The ToolKind declaration and the files that must mirror every
# enumerator: the driver (name table + tool-stack factory), the CLI
# parser, and the report writer (findings predicates).
TOOLKIND_HEADER = "src/workloads/driver.h"
TOOLKIND_MIRRORS = (
    "src/workloads/driver.cc",
    "src/workloads/cli.cc",
    "src/workloads/report_writer.cc",
)


def check_toolkind_plumbing(root, violations):
    # Tree-level rule (runs once, not per file): parse the enumerators
    # out of the header, then demand each mirror names every one.
    def read_stripped(rel):
        try:
            with open(os.path.join(root, rel), encoding="utf-8") as fh:
                return strip_comments_and_strings(fh.read())
        except (OSError, UnicodeDecodeError):
            return None

    header = read_stripped(TOOLKIND_HEADER)
    if header is None:
        return  # a tree without the driver layer (e.g. self-test seeds)
    match = re.search(r"enum\s+class\s+ToolKind[^{]*\{([^}]*)\}", header)
    if match is None:
        violations.append(Violation(
            TOOLKIND_HEADER, 1, "toolkind-plumbing",
            "could not find 'enum class ToolKind' to audit"))
        return
    enumerators = []
    for chunk in match.group(1).split(","):
        name = re.match(r"\s*([A-Za-z_]\w*)", chunk)
        if name:
            enumerators.append(name.group(1))

    for rel in TOOLKIND_MIRRORS:
        text = read_stripped(rel)
        if text is None:
            violations.append(Violation(
                rel, 1, "toolkind-plumbing",
                f"mirror of {TOOLKIND_HEADER}'s ToolKind is missing"))
            continue
        for name in enumerators:
            if not re.search(rf"\bToolKind\s*::\s*{name}\b", text):
                violations.append(Violation(
                    rel, 1, "toolkind-plumbing",
                    f"ToolKind::{name} is never named here; every "
                    "enumerator must be plumbed through the driver, "
                    "the CLI parser, and the report writer"))


def lint_file(root, rel, violations):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        violations.append(Violation(rel, 1, "io", f"unreadable: {err}"))
        return
    stripped = strip_comments_and_strings(raw)
    check_raw_allocation(rel, stripped, violations)
    check_stream_output(rel, stripped, violations)
    check_include_hygiene(rel, raw, violations)
    check_header_docs(rel, raw, violations)
    check_string_keyed_stats(rel, stripped, violations)
    check_mutable_globals(rel, stripped, violations)
    check_string_trace_payload(rel, stripped, violations)
    check_single_space_kernel(rel, stripped, violations)
    check_codeword_arithmetic(rel, stripped, violations)
    check_unguarded_shared_state(rel, stripped, raw, violations)
    check_lock_order(rel, stripped, raw, violations)


def lint_tree(root):
    violations = []
    for lint_dir in LINT_DIRS:
        base = os.path.join(root, lint_dir)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith(CC_EXTENSIONS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                rel = rel.replace(os.sep, "/")
                lint_file(root, rel, violations)
    check_toolkind_plumbing(root, violations)
    return violations


# --- self-test ------------------------------------------------------------

SEEDED_SOURCES = {
    # Each entry seeds exactly the violation named by the expected rule.
    "src/mem/bad_new.cc": (
        "raw-allocation",
        '#include "common/types.h"\nint *leak() { return new int; }\n'),
    "src/mem/bad_delete.cc": (
        "raw-allocation",
        "void drop(int *p) { delete p; }\n"),
    "src/mem/bad_malloc.cc": (
        "raw-allocation",
        "#include <cstdlib>\nvoid *grab() { return malloc(16); }\n"),
    "src/cache/bad_cout.cc": (
        "stream-output",
        "#include <iostream>\nvoid shout() { std::cout << 1; }\n"),
    "src/os/bad_pragma.h": (
        "include-hygiene",
        "/**\n * @file\n * Header missing its include guard.\n */\nint x;\n"),
    "src/common/bad_layering.h": (
        "include-hygiene",
        "/**\n * @file\n * Base layer reaching upward.\n */\n"
        "#pragma once\n#include \"mem/line.h\"\n"),
    "src/ecc/bad_docs.h": (
        "header-docs",
        "#pragma once\nint undocumented;\n"),
    "src/ecc/bad_layering_ecc.h": (
        "include-hygiene",
        "/**\n * @file\n * Codec layer reaching into the machine.\n */\n"
        "#pragma once\n#include \"mem/physical_memory.h\"\n"),
    "src/cache/bad_string_stats.cc": (
        "string-keyed-stats",
        '#include "common/stats.h"\n'
        "struct Hot\n{\n    safemem::StatSet stats_;\n"
        '    void hit() { stats_.add("hits"); }\n};\n'),
    "src/os/bad_global.cc": (
        "mutable-globals",
        '#include "common/types.h"\n'
        "namespace safemem {\nint g_counter = 0;\n}\n"),
    "src/ecc/bad_anon_global.cc": (
        "mutable-globals",
        '#include "common/types.h"\n'
        "namespace safemem {\nnamespace {\n"
        "std::size_t g_calls{0};\n}\n}\n"),
    "src/safemem/bad_trace_macro.cc": (
        "string-trace-payload",
        '#include "trace/trace.h"\n'
        "void oops(safemem::Trace *trace_)\n{\n"
        "    SAFEMEM_TRACE_EMIT(trace_, safemem::TraceEvent::WatchDrop,\n"
        '                       0, sizeof("leaked region"));\n}\n'),
    "src/safemem/bad_trace_emit.cc": (
        "string-trace-payload",
        '#include "trace/trace.h"\n'
        "void oops2(safemem::Trace &trace)\n{\n"
        "    trace.emit(safemem::TraceEvent::WatchDrop, 0,\n"
        '               sizeof("a string payload"));\n}\n'),
    "src/safemem/bad_kernel_tlb.cc": (
        "single-space-kernel",
        '#include "os/machine.h"\n'
        "std::uint64_t hits(safemem::Machine &machine)\n{\n"
        '    return machine.kernel().tlb().stats().get("hits");\n}\n'),
    "src/workloads/bad_kernel_pt.cc": (
        "single-space-kernel",
        '#include "os/machine.h"\n'
        "bool mapped(safemem::Kernel *kernel_, safemem::VirtAddr va)\n{\n"
        "    return kernel_->pageTable().find(va) != nullptr;\n}\n"),
    "src/os/bad_codeword_math.cc": (
        "codeword-arithmetic",
        '#include "ecc/geometry.h"\n'
        "std::size_t lines(const safemem::ProtectionGeometry &g)\n{\n"
        "    return g.codewordBytes / 64;\n}\n"),
    "src/workloads/bad_codeword_align.cc": (
        "codeword-arithmetic",
        '#include "common/types.h"\n#include "ecc/geometry.h"\n'
        "safemem::PhysAddr cwBase(safemem::PhysAddr addr,\n"
        "                         const safemem::ProtectionGeometry &g)\n{\n"
        "    return safemem::alignDown(addr, g.codewordBytes);\n}\n"),
    "src/os/bad_unguarded.cc": (
        "unguarded-shared-state",
        '#include "common/mutex.h"\n'
        "class Racy\n{\n"
        "  public:\n"
        "    void bump();\n"
        "  private:\n"
        "    safemem::Mutex mutex_;\n"
        "    int count_ = 0;\n};\n"),
    "src/mem/bad_lock_order.cc": (
        "lock-order",
        '#include "mem/memory_controller.h"\n'
        '#include "safemem/watch_manager.h"\n'
        "void backwards(safemem::MemoryController &c,\n"
        "               safemem::EccWatchManager &w)\n{\n"
        "    c.lockBus();\n"
        "    w.parkAllForScrub();\n"
        "    w.restoreAfterScrub();\n"
        "    c.unlockBus();\n}\n"),
    "src/mem/bad_double_bus.cc": (
        "lock-order",
        '#include "mem/memory_controller.h"\n'
        "void wedge(safemem::MemoryController &c)\n{\n"
        "    c.lockBus();\n"
        "    c.lockBus();\n"
        "    c.unlockBus();\n}\n"),
    # One ToolKind mirror (the report writer) forgets the Purify
    # enumerator declared by the seeded driver.h below; the other
    # mirrors (in CLEAN_SOURCES) name everything and must stay quiet.
    "src/workloads/report_writer.cc": (
        "toolkind-plumbing",
        '#include "workloads/driver.h"\n'
        "bool showsFindings(safemem::ToolKind kind)\n{\n"
        "    return kind != safemem::ToolKind::None;\n}\n"),
}

CLEAN_SOURCES = [
    # The ecc/ allowlist accepts both of its permitted layers.
    ("src/ecc/clean_codec_deps.h",
     "/**\n * @file\n * A codec header on the permitted layers only.\n */\n"
     "#pragma once\n#include \"common/types.h\"\n"
     "#include \"ecc/codec.h\"\n"),
    ("src/common/clean.h",
     "/**\n * @file\n * A well-behaved header: documented, guarded, and\n"
     " * allocation-free (new_size below is an identifier, 'delete' only\n"
     " * appears in a deleted function and this comment).\n */\n"
     "#pragma once\n#include \"common/types.h\"\n"
     "struct Clean\n{\n"
     "    Clean(const Clean &) = delete;\n"
     "    int resize(int new_size);\n"
     "};\n"),
    # Everything the mutable-globals rule must *not* flag: const data,
    # thread-local slots, function-local statics, member fields, and
    # plain function declarations.
    ("src/os/clean_statics.cc",
     '#include "common/types.h"\n'
     "namespace safemem {\n"
     "constexpr int kShift = 3;\n"
     "const int kTable[] = {1, 2, 3};\n"
     "thread_local int t_depth = 0;\n"
     "int countUp(int seed);\n"
     "int\ncountUp(int seed)\n{\n"
     "    static int history = 0;\n"
     "    history += seed;\n"
     "    return history;\n}\n"
     "struct Pod\n{\n    int field = 0;\n};\n"
     "}\n"),
    # Well-formed trace emits: integer payloads only — the macro form
    # (null-guarded) and a direct emit() both stay quiet.
    ("src/safemem/clean_trace.cc",
     '#include "trace/trace.h"\n'
     "void fine(safemem::Trace *trace_)\n{\n"
     "    SAFEMEM_TRACE_EMIT(trace_, safemem::TraceEvent::WatchDrop,\n"
     "                       1, 2, 3);\n"
     "    if (trace_)\n"
     "        trace_->emit(safemem::TraceEvent::WatchDrop, 1);\n}\n"),
    # The Process seam is the sanctioned way to read per-process state
    # outside src/os/ — and src/os/ itself may keep the legacy accessors.
    ("src/workloads/clean_process_seam.cc",
     '#include "os/machine.h"\n'
     "std::uint64_t hits(safemem::Machine &machine, safemem::Pid pid)\n{\n"
     "    return machine.kernel().currentProcess().tlb().stats()\n"
     '               .get("hits") +\n'
     "           machine.kernel().process(pid).tlb().stats()\n"
     '               .get("hits");\n}\n'),
    ("src/os/clean_kernel_internal.cc",
     '#include "os/machine.h"\n'
     "bool selfCheck(safemem::Machine &machine)\n{\n"
     "    return machine.kernel().tlb().size() <=\n"
     "           machine.kernel().pageTable().size();\n}\n"),
    # Disciplined locking the lock-order rule must accept: hierarchy
    # order with a scoped guard, release-then-reacquire of one level,
    # and a deliberate (waived) inversion.
    ("src/mem/clean_lock_discipline.cc",
     '#include "mem/memory_controller.h"\n'
     '#include "safemem/watch_manager.h"\n'
     "void scrubPass(safemem::MemoryController &c,\n"
     "               safemem::EccWatchManager &w)\n{\n"
     "    w.parkAllForScrub();\n"
     "    {\n"
     "        safemem::BusLockGuard bus(c);\n"
     "    }\n"
     "    w.restoreAfterScrub();\n}\n"
     "void relock(safemem::MemoryController &c)\n{\n"
     "    c.lockBus();\n"
     "    c.unlockBus();\n"
     "    c.lockBus();\n"
     "    c.unlockBus();\n}\n"
     "void waived(safemem::MemoryController &c,\n"
     "            safemem::EccWatchManager &w)\n{\n"
     "    c.lockBus();\n"
     "    w.parkAllForScrub(); // lint: lock-order\n"
     "    w.restoreAfterScrub();\n"
     "    c.unlockBus();\n}\n"),
    # The toolkind-plumbing seed tree: a two-enumerator ToolKind whose
    # driver and CLI mirrors name everything (the report-writer mirror
    # in SEEDED_SOURCES drops one and must be flagged).
    ("src/workloads/driver.h",
     "/**\n * @file\n * ToolKind seed for the toolkind-plumbing rule.\n"
     " */\n#pragma once\nnamespace safemem {\n"
     "enum class ToolKind\n{\n    None,\n    Purify\n};\n"
     "const char *toolKindName(ToolKind kind);\n}\n"),
    ("src/workloads/driver.cc",
     '#include "workloads/driver.h"\n'
     "namespace safemem {\n"
     "const char *\ntoolKindName(ToolKind kind)\n{\n"
     "    switch (kind) {\n"
     '      case ToolKind::None: return "none";\n'
     '      case ToolKind::Purify: return "purify";\n'
     "    }\n"
     '    return "?";\n}\n}\n'),
    ("src/workloads/cli.cc",
     '#include "workloads/driver.h"\n'
     "namespace safemem {\n"
     "ToolKind\ntoolKindFromName(int choice)\n{\n"
     "    return choice == 0 ? ToolKind::None : ToolKind::Purify;\n}\n"
     "}\n"),
    # Opaque geometry uses the rule must accept outside mem/ecc:
    # comparisons, isWord(), naming, and passing the struct whole.
    ("src/os/clean_codeword_queries.cc",
     '#include "ecc/geometry.h"\n'
     "const char *describe(const safemem::ProtectionGeometry &g)\n{\n"
     "    if (g.isWord() || g.codewordBytes == 512)\n"
     '        return "small";\n'
     "    return safemem::geometryName(g) == \"block:4096\"\n"
     '               ? "huge" : "medium";\n}\n'),
    # A mutex-owning class the unguarded-shared-state rule must accept:
    # every member is annotated, self-synchronising, or waived.
    ("src/check/clean_guarded_class.cc",
     '#include "common/mutex.h"\n'
     "#include <vector>\n"
     "class Disciplined\n{\n"
     "  public:\n"
     "    void set(int v);\n"
     "  private:\n"
     "    mutable safemem::Mutex mutex_;\n"
     "    safemem::CondVar ready_;\n"
     "    int value_ GUARDED_BY(mutex_) = 0;\n"
     "    /** Written once before any worker thread starts. */\n"
     "    int epoch_ = 0; // lint: unguarded\n};\n"),
]


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as root:
        for rel, (rule, text) in SEEDED_SOURCES.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        for clean_rel, clean_text in CLEAN_SOURCES:
            clean_path = os.path.join(root, clean_rel)
            os.makedirs(os.path.dirname(clean_path), exist_ok=True)
            with open(clean_path, "w", encoding="utf-8") as fh:
                fh.write(clean_text)

        violations = lint_tree(root)
        by_file = {}
        for v in violations:
            by_file.setdefault(v.path, set()).add(v.rule)

        for rel, (rule, _) in SEEDED_SOURCES.items():
            got = by_file.get(rel, set())
            if rule not in got:
                failures.append(
                    f"seeded {rule} violation in {rel} was not flagged "
                    f"(got: {sorted(got) or 'nothing'})")
        for clean_rel, _ in CLEAN_SOURCES:
            if clean_rel in by_file:
                failures.append(
                    f"clean file {clean_rel} was wrongly flagged: "
                    f"{sorted(by_file[clean_rel])}")

    if failures:
        for failure in failures:
            print(f"self-test FAILED: {failure}")
        return 1
    print(f"self-test passed: {len(SEEDED_SOURCES)} seeded violations "
          "flagged, clean files untouched")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on a seeded violation")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    violations = lint_tree(root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"lint: {len(violations)} violation(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
