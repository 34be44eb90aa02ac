#!/usr/bin/env python3
"""tflint — TurboFuzz project-invariant linter.

Machine-checks the repo invariants that ordinary compilers cannot see
(docs/static_analysis.md has the full rule catalogue):

  determinism   No wall-clock or ambient-randomness reads outside the
                sanctioned wrappers (telemetry::WallClock/nowNs,
                common::rng), and no iteration over unordered
                containers in serialization/merge paths — unordered
                iteration order leaking into serialized state silently
                breaks resume-equals-uninterrupted replay.
  hot-path      Functions annotated `// tflint: hot-path` must not
                allocate from the heap, touch std::map/unordered_map,
                or acquire locks (guards the decode-cache fast
                path).
  wire-safety   Every function that *constructs* a soc::SnapshotReader
                (i.e. a trust boundary where raw bytes enter) must
                either catch SnapshotFormatError in-function or
                length-validate via reader.remaining() before naked
                get* chains. Mid-chain functions that only receive a
                `SnapshotReader &` are inside an already-guarded
                boundary and exempt.

Engines: with python-libclang installed the AST supplies exact
function extents (`--engine clang`); without it a token-level scanner
(comment/string-aware brace matcher) is used (`--engine tokens`).
`--engine auto` (default) prefers clang and silently falls back.
Zero build-time dependencies either way.

Suppression syntax (same line or the line directly above a finding):
    // tflint: allow(rule) -- reason
    // tflint: allow(rule1, rule2)
    // tflint: allow-file(rule)        (anywhere in the file)
Annotation syntax (line(s) directly above a function, or its
signature line):
    // tflint: hot-path

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

RULES = ("determinism", "hot-path", "wire-safety")

# Files where the determinism wall-clock tokens are the sanctioned
# implementation itself (relative-path substrings).
DETERMINISM_ALLOWED_FILES = (
    "telemetry/clock.hh",
    "common/rng.",
    "common/lfsr.",
)

# (pattern, message) — matched against scrubbed text anywhere in a
# non-allowlisted file.
DETERMINISM_TOKENS = [
    (re.compile(r"\bstd\s*::\s*chrono\b"),
     "wall-clock read (std::chrono) outside telemetry::WallClock"),
    (re.compile(r"\b(?:std\s*::\s*)?random_device\b"),
     "ambient randomness (random_device) outside common::rng"),
    (re.compile(r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|"
                r"default_random_engine|ranlux\w+|knuth_b)\b"),
     "ambient randomness (<random> engine) outside common::rng"),
    (re.compile(r"\bs?rand\s*\("),
     "ambient randomness (rand/srand) outside common::rng"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall-clock read (time()) outside telemetry::WallClock"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|timespec_get)\s*\("),
     "wall-clock read outside telemetry::WallClock"),
    # Lookbehind rejects member access (.clock()/->clock()),
    # qualification (::clock) and declarations (SimClock &clock()).
    (re.compile(r"(?<![\w.>:&])clock\s*\(\s*\)"),
     "wall-clock read (clock()) outside telemetry::WallClock"),
]

# Function names that constitute a serialization/merge path for the
# unordered-iteration check.
def is_serialization_path(name):
    low = name.lower()
    return ("serialize" in low or "savestate" in low
            or low in ("merge", "mergefrom", "mergeinto"))

HOT_TOKENS = [
    (re.compile(r"\bnew\b"), "heap allocation (new)"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup)\s*\("),
     "heap allocation (malloc family)"),
    (re.compile(r"\bmake_(?:unique|shared)\b"),
     "heap allocation (make_unique/make_shared)"),
    (re.compile(r"\bstd\s*::\s*map\s*<"),
     "std::map in hot path (node allocation + pointer chasing)"),
    (re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<"),
     "hash container in hot path"),
    (re.compile(r"\b(?:lock_guard|unique_lock|scoped_lock|"
                r"shared_lock)\b"),
     "lock acquisition in hot path"),
    (re.compile(r"(?:\.|->)\s*lock\s*\(\s*\)"),
     "lock acquisition in hot path"),
    (re.compile(r"\bpthread_mutex_lock\b"),
     "lock acquisition in hot path"),
]

# Map-typed member/local access that constitutes a lookup.
MAP_LOOKUP_RE = (r"\b({vars})\s*(?:\.|->)\s*"
                 r"(?:find|at|count|emplace|insert|try_emplace|"
                 r"operator\s*\[\s*\])\s*\(")
MAP_INDEX_RE = r"\b({vars})\s*\["

CONTAINER_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?(unordered_(?:map|set|multimap|multiset)|map|"
    r"multimap)\s*<")

READER_CTOR_RE = re.compile(
    r"\bSnapshotReader\s+([A-Za-z_]\w*)\s*[({]")

ALLOW_RE = re.compile(r"tflint:\s*allow\(([^)]*)\)")
ALLOW_FILE_RE = re.compile(r"tflint:\s*allow-file\(([^)]*)\)")
HOT_PATH_RE = re.compile(r"tflint:\s*hot-path\b")

CONTROL_KEYWORDS = ("if", "for", "while", "switch", "catch", "do",
                    "return", "sizeof", "alignof", "decltype")
NONFUNC_HEADER = ("namespace", "class ", "struct ", "enum ", "union ",
                  "extern \"C\"")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def scrub(text):
    """Blank comments, string and char literals (preserving offsets
    and newlines) and collect per-line comment text for directives.

    Returns (scrubbed, comments) where comments maps 1-based line
    number -> concatenated comment text on that line.
    """
    out = list(text)
    comments = {}
    i, n = 0, len(text)
    line = 1

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def note(ln, s):
        comments[ln] = comments.get(ln, "") + s

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            note(line, text[i:j])
            blank(i, j)
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            start_line = line
            seg = text[i:j]
            for off, part in enumerate(seg.split("\n")):
                note(start_line + off, part)
            line += seg.count("\n")
            blank(i, j)
            i = j
        elif c == '"':
            # Raw strings: R"delim( ... )delim"
            if i >= 1 and text[i - 1] == "R" and \
                    (i < 2 or not (text[i - 2].isalnum()
                                   or text[i - 2] == "_")):
                m = re.match(r'"([^()\s\\]{0,16})\(', text[i:])
                if m:
                    endtok = ")" + m.group(1) + '"'
                    j = text.find(endtok, i)
                    j = n if j < 0 else j + len(endtok)
                    line += text.count("\n", i, j)
                    blank(i, j)
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    line += 1
                j += 1
            j = min(j + 1, n)
            blank(i + 1, j - 1)
            i = j
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            blank(i + 1, j - 1)
            i = j
        else:
            i += 1
    return "".join(out), comments


class Function:
    __slots__ = ("name", "qualified", "header", "body", "start_line",
                 "end_line", "hot")

    def __init__(self, name, qualified, header, body, start_line,
                 end_line):
        self.name = name
        self.qualified = qualified
        self.header = header
        self.body = body
        self.start_line = start_line
        self.end_line = end_line
        self.hot = False


def _header_function_name(header):
    """Identifier (and Class::qualified form) before the parameter
    list of a function header, or None if this is not a function."""
    h = header.strip()
    if not h or h.endswith("="):
        return None
    for kw in NONFUNC_HEADER:
        if h.startswith(kw) or h == kw.strip():
            return None
    # Strip template prologue.
    h = re.sub(r"^template\s*<[^{}]*?>\s*", "", h, count=1)
    paren = h.find("(")
    if paren <= 0:
        return None
    pre = h[:paren].rstrip()
    m = re.search(r"((?:[A-Za-z_]\w*\s*::\s*)*)(~?[A-Za-z_]\w*)$", pre)
    if not m:
        return None
    name = m.group(2)
    if name in CONTROL_KEYWORDS:
        return None
    qualified = (m.group(1) or "") + name
    return name, re.sub(r"\s+", "", qualified)


def extract_functions(scrubbed):
    """Brace-matching function extractor over scrubbed text.

    Finds bodies whose header looks like a function signature; a
    function-try-block's trailing catch clauses are folded into the
    function extent.
    """
    funcs = []
    n = len(scrubbed)
    i = 0
    header_start = 0
    depth = 0
    stack = []  # (kind, header_start_offset, func_index_or_None)
    pending_catch_for = None  # function index awaiting catch blocks

    def line_of(off):
        return scrubbed.count("\n", 0, off) + 1

    while i < n:
        c = scrubbed[i]
        if c == "{":
            header = scrubbed[header_start:i]
            kind = "other"
            func_idx = None
            stripped = header.strip()
            named = _header_function_name(header)
            is_try = bool(re.search(r"\)\s*(?:const\s*)?(?:noexcept\s*"
                                    r"(?:\([^()]*\)\s*)?)?try\s*$",
                                    stripped)) or stripped == "try"
            looks_like_sig = bool(
                re.search(r"\)\s*(?:const|noexcept|override|final|"
                          r"mutable|try|->\s*[\w:<>,\s&*\[\]]+|\s)*$",
                          stripped))
            if depth_ok(stack) and named and looks_like_sig \
                    and "(" in stripped:
                name, qualified = named
                funcs.append(Function(name, qualified, stripped, "",
                                      line_of(header_start),
                                      line_of(i)))
                func_idx = len(funcs) - 1
                kind = "func-try" if is_try else "func"
            elif stripped.startswith("catch") and \
                    pending_catch_for is not None:
                kind = "catch"
                func_idx = pending_catch_for
                # The exception type lives in the catch *header*;
                # fold it into the function text so guard checks
                # (e.g. wire-safety's SnapshotFormatError) see it.
                funcs[func_idx].body += stripped + "\n"
            stack.append((kind, i + 1, func_idx))
            depth += 1
            header_start = i + 1
            i += 1
        elif c == "}":
            if stack:
                kind, body_start, func_idx = stack.pop()
                depth -= 1
                if func_idx is not None and kind in ("func",
                                                     "func-try",
                                                     "catch"):
                    f = funcs[func_idx]
                    f.body += scrubbed[body_start:i] + "\n"
                    f.end_line = max(f.end_line, line_of(i))
                    pending_catch_for = (func_idx
                                         if kind != "func" else None)
                elif kind == "other":
                    pending_catch_for = None
            header_start = i + 1
            i += 1
        elif c in ";":
            header_start = i + 1
            pending_catch_for = None
            i += 1
        else:
            i += 1
    return funcs


def depth_ok(stack):
    """Function definitions live at namespace/class scope: every
    enclosing brace must be a non-function block (namespace, class,
    extern) — not inside another function body."""
    return all(kind == "other" for kind, _, _ in stack)


def collect_container_vars(scrubbed):
    """Identifiers declared with (unordered) map/set types in this
    text. Returns (unordered_vars, map_vars)."""
    unordered, maps = set(), set()
    for m in CONTAINER_DECL_RE.finditer(scrubbed):
        kind = m.group(1)
        # Skip the balanced template argument list.
        j = m.end()
        depth = 1
        n = len(scrubbed)
        while j < n and depth > 0:
            if scrubbed[j] == "<":
                depth += 1
            elif scrubbed[j] == ">":
                depth -= 1
            j += 1
        mm = re.match(r"\s*(?:&\s*)?([A-Za-z_]\w*)\s*[;{=,()\[]",
                      scrubbed[j:j + 160])
        if not mm:
            continue
        var = mm.group(1)
        if var in ("const", "static", "mutable"):
            continue
        maps.add(var)
        if kind.startswith("unordered"):
            unordered.add(var)
    return unordered, maps


def parse_directives(comments):
    """-> (allow: {line: set(rules)}, allow_file: set(rules),
           hot_lines: sorted list of directive lines)"""
    allow, allow_file, hot_lines = {}, set(), []
    for line, text in comments.items():
        for m in ALLOW_FILE_RE.finditer(text):
            allow_file.update(r.strip() for r in m.group(1).split(","))
        for m in ALLOW_RE.finditer(text):
            allow.setdefault(line, set()).update(
                r.strip() for r in m.group(1).split(","))
        if HOT_PATH_RE.search(text):
            hot_lines.append(line)
    return allow, sorted(hot_lines)[::-1], allow_file


def attach_hot_annotations(funcs, hot_lines):
    """A `// tflint: hot-path` comment marks the function whose
    extent contains the directive line. The extractor's header region
    stretches back to the previous statement, so the conventional
    spot — the line(s) directly above the signature — is inside the
    annotated function's extent."""
    funcs_by_start = sorted(funcs, key=lambda f: f.start_line)
    for ln in hot_lines:
        for f in funcs_by_start:
            if f.start_line <= ln <= f.end_line:
                f.hot = True
                break


def _line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def check_determinism(path, rel, scrubbed, funcs, unordered_vars,
                      findings):
    if not any(sub in rel for sub in DETERMINISM_ALLOWED_FILES):
        for pat, msg in DETERMINISM_TOKENS:
            for m in pat.finditer(scrubbed):
                findings.append(Finding(path, _line_of(scrubbed,
                                                       m.start()),
                                        "determinism", msg))
    if not unordered_vars:
        return
    var_alt = "|".join(re.escape(v) for v in sorted(unordered_vars))
    range_for = re.compile(
        r"for\s*\([^();]*:\s*[\w.\->\s]*\b(%s)\s*\)" % var_alt)
    begin_call = re.compile(
        r"\b(%s)\s*(?:\.|->)\s*c?begin\s*\(" % var_alt)
    for f in funcs:
        if not is_serialization_path(f.name):
            continue
        base = f.start_line
        body_with_header = f.header + "\n" + f.body
        for pat in (range_for, begin_call):
            for m in pat.finditer(body_with_header):
                line = base + body_with_header.count("\n", 0,
                                                     m.start())
                findings.append(Finding(
                    path, line, "determinism",
                    "iteration over unordered container '%s' in "
                    "serialization/merge path %s() — unordered order "
                    "must not reach serialized or merged state"
                    % (m.group(1), f.qualified)))


def check_hot_path(path, scrubbed, funcs, map_vars, findings):
    lookup_pats = []
    if map_vars:
        var_alt = "|".join(re.escape(v) for v in sorted(map_vars))
        lookup_pats = [
            (re.compile(MAP_LOOKUP_RE.format(vars=var_alt)),
             "map lookup in hot path"),
            (re.compile(MAP_INDEX_RE.format(vars=var_alt)),
             "map indexing in hot path"),
        ]
    for f in funcs:
        if not f.hot:
            continue
        base = f.start_line
        text = f.header + "\n" + f.body
        for pat, msg in HOT_TOKENS + lookup_pats:
            for m in pat.finditer(text):
                line = base + text.count("\n", 0, m.start())
                findings.append(Finding(
                    path, line, "hot-path",
                    "%s (function %s() is marked tflint: hot-path)"
                    % (msg, f.qualified)))


def check_wire_safety(path, funcs, findings):
    for f in funcs:
        m = READER_CTOR_RE.search(f.body)
        if not m:
            continue
        guarded = (re.search(r"catch\s*\(\s*(?:const\s+)?[\w:]*"
                             r"SnapshotFormatError", f.body)
                   or re.search(r"\bremaining\s*\(\s*\)", f.body))
        if not guarded:
            line = f.start_line + (f.header + "\n"
                                   + f.body).count(
                                       "\n", 0,
                                       len(f.header) + 1 + m.start())
            findings.append(Finding(
                path, line, "wire-safety",
                "%s() constructs a SnapshotReader (trust boundary) "
                "but neither catches SnapshotFormatError in-function "
                "nor length-validates via remaining() — route "
                "untrusted bytes through a tryDeserialize-style "
                "typed-error wrapper" % f.qualified))


def sibling_header_text(path):
    """Scrubbed text of the paired header (foo.cc -> foo.hh), so
    member containers declared in the header are known when linting
    the .cc."""
    root, ext = os.path.splitext(path)
    if ext not in (".cc", ".cpp", ".cxx"):
        return ""
    for hext in (".hh", ".h", ".hpp"):
        hp = root + hext
        if os.path.exists(hp):
            try:
                with open(hp, encoding="utf-8",
                          errors="replace") as fh:
                    return scrub(fh.read())[0]
            except OSError:
                return ""
    return ""


# --------------------------------------------------------------------
# Optional libclang engine: replaces the token-level function
# extractor with exact AST extents. Token rules are unchanged.
# --------------------------------------------------------------------

def _clang_functions(path, text, scrubbed):
    import clang.cindex as ci  # noqa: deferred import by design
    index = ci.Index.create()
    tu = index.parse(path, args=["-std=c++20", "-Isrc"],
                     unsaved_files=[(path, text)],
                     options=ci.TranslationUnit.PARSE_INCOMPLETE)
    funcs = []
    decl_kinds = (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                  ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR,
                  ci.CursorKind.FUNCTION_TEMPLATE)

    def walk(cur):
        for ch in cur.get_children():
            if ch.location.file and ch.location.file.name != path:
                continue
            if ch.kind in decl_kinds and ch.is_definition():
                ext = ch.extent
                start = ext.start.line
                end = ext.end.line
                lines = scrubbed.split("\n")[start - 1:end]
                body = "\n".join(lines)
                brace = body.find("{")
                header = body[:brace] if brace >= 0 else body
                f = Function(ch.spelling, ch.spelling,
                             header.strip(), body, start, end)
                funcs.append(f)
            walk(ch)

    walk(tu.cursor)
    return funcs


def lint_text(path, rel, text, rules, engine="tokens",
              extra_decl_text=""):
    scrubbed, comments = scrub(text)
    funcs = None
    if engine == "clang":
        try:
            funcs = _clang_functions(path, text, scrubbed)
        except Exception:
            funcs = None
    if funcs is None:
        funcs = extract_functions(scrubbed)
    allow, hot_lines, allow_file = parse_directives(comments)
    attach_hot_annotations(funcs, hot_lines)
    unordered_vars, map_vars = collect_container_vars(
        scrubbed + "\n" + extra_decl_text)

    findings = []
    if "determinism" in rules:
        check_determinism(path, rel, scrubbed, funcs, unordered_vars,
                          findings)
    if "hot-path" in rules:
        check_hot_path(path, scrubbed, funcs, map_vars, findings)
    if "wire-safety" in rules:
        check_wire_safety(path, funcs, findings)

    # A finding on line L is suppressed by an allow directive on L
    # itself, or on the comment block directly above it (directives
    # carry through contiguous comment-only lines, so multi-line
    # justifications work).
    scrubbed_lines = scrubbed.split("\n")

    def comment_only(ln):
        return (ln in comments and 1 <= ln <= len(scrubbed_lines)
                and not scrubbed_lines[ln - 1].strip())

    def suppressed(f):
        if f.rule in allow.get(f.line, ()):
            return True
        ln = f.line - 1
        while ln >= 1 and comment_only(ln):
            if f.rule in allow.get(ln, ()):
                return True
            ln -= 1
        return False

    kept = []
    for f in findings:
        if f.rule in allow_file:
            continue
        if suppressed(f):
            continue
        kept.append(f)
    kept.sort(key=lambda f: (f.line, f.rule))
    return kept


def lint_file(path, rel, rules, engine):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as e:
        print("tflint: cannot read %s: %s" % (path, e),
              file=sys.stderr)
        return None
    return lint_text(path, rel, text, rules, engine,
                     sibling_header_text(path))


CXX_EXTS = (".cc", ".cpp", ".cxx", ".hh", ".h", ".hpp")


def gather_files(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, _dirnames, filenames in os.walk(p):
                for fn in sorted(filenames):
                    if fn.endswith(CXX_EXTS):
                        files.append(os.path.join(dirpath, fn))
        elif os.path.isfile(p):
            files.append(p)
        else:
            print("tflint: no such path: %s" % p, file=sys.stderr)
            return None
    return sorted(set(files))


# --------------------------------------------------------------------
# Self-test over the fixture corpus (tests/tools/tflint/fixtures).
# Each fixture declares its expected findings in header comments:
#     // tflint-fixture: expect <rule> <count>
# Rules not listed must produce zero findings; a fixture with no
# expect lines must be entirely clean.
# --------------------------------------------------------------------

FIXTURE_RE = re.compile(r"tflint-fixture:\s*expect\s+([\w-]+)\s+(\d+)")


def self_test(fixture_dir, engine, verbose=True):
    if not os.path.isdir(fixture_dir):
        print("tflint: fixture dir not found: %s" % fixture_dir,
              file=sys.stderr)
        return 2
    failures = 0
    count = 0
    for fn in sorted(os.listdir(fixture_dir)):
        if not fn.endswith(CXX_EXTS):
            continue
        path = os.path.join(fixture_dir, fn)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        expected = {rule: int(cnt)
                    for rule, cnt in FIXTURE_RE.findall(text)}
        for rule in expected:
            if rule not in RULES:
                print("FAIL %s: unknown rule '%s' in expectation"
                      % (fn, rule))
                failures += 1
        findings = lint_text(path, fn, text, set(RULES), engine)
        got = {}
        for f in findings:
            got[f.rule] = got.get(f.rule, 0) + 1
        ok = True
        for rule in RULES:
            want = expected.get(rule, 0)
            have = got.get(rule, 0)
            if want != have:
                ok = False
                print("FAIL %s: rule %s expected %d finding(s), "
                      "got %d" % (fn, rule, want, have))
                for f in findings:
                    if f.rule == rule:
                        print("    " + str(f))
        count += 1
        if not ok:
            failures += 1
        elif verbose:
            print("ok   %s (%s)" % (fn,
                                    ", ".join("%s=%d" % kv
                                              for kv in
                                              sorted(expected.items()))
                                    or "clean"))
    if count == 0:
        print("tflint: no fixtures found in %s" % fixture_dir,
              file=sys.stderr)
        return 2
    print("tflint --self-test: %d fixture(s), %d failure(s)"
          % (count, failures))
    return 1 if failures else 0


def resolve_engine(requested):
    if requested == "tokens":
        return "tokens"
    try:
        import clang.cindex  # noqa: F401
        return "clang"
    except ImportError:
        if requested == "clang":
            print("tflint: --engine clang requested but "
                  "python-libclang is unavailable", file=sys.stderr)
            return None
        return "tokens"


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="tflint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint")
    ap.add_argument("--rules", default=",".join(RULES),
                    help="comma-separated rule subset (default: all)")
    ap.add_argument("--engine", default="auto",
                    choices=("auto", "tokens", "clang"))
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus under "
                         "tests/tools/tflint/fixtures")
    ap.add_argument("--fixture-dir", default=None,
                    help="override the self-test fixture directory")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    rules = set(r.strip() for r in args.rules.split(",") if r.strip())
    bad = rules - set(RULES)
    if bad:
        print("tflint: unknown rule(s): %s" % ", ".join(sorted(bad)),
              file=sys.stderr)
        return 2

    engine = resolve_engine(args.engine)
    if engine is None:
        return 2

    repo_root = os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))
    if args.self_test:
        fixture_dir = args.fixture_dir or os.path.join(
            repo_root, "tests", "tools", "tflint", "fixtures")
        return self_test(fixture_dir, engine,
                         verbose=not args.quiet)

    if not args.paths:
        ap.print_usage(sys.stderr)
        print("tflint: no paths given (and no --self-test)",
              file=sys.stderr)
        return 2

    files = gather_files(args.paths)
    if files is None:
        return 2

    total = 0
    for path in files:
        rel = os.path.relpath(path, repo_root) \
            if path.startswith(repo_root) else path
        findings = lint_file(path, rel.replace(os.sep, "/"), rules,
                             engine)
        if findings is None:
            return 2
        for f in findings:
            print(f)
        total += len(findings)
    if not args.quiet:
        print("tflint: %d file(s) scanned, %d finding(s)"
              % (len(files), total))
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
