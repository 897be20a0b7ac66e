#!/usr/bin/env python3
"""Trigger-context safety analyzer: transitive hot-closure verification.

The soft-timer premise (paper Section 3) is that handlers run in *borrowed*
kernel trigger states: they must be short, non-blocking, allocation-free, and
exception-free. tools/lint_hotpath.py enforces a fast regex approximation of
that contract on directly-marked function bodies; this analyzer enforces it
over the real call graph, so an allocation or a mutex N calls deep is just as
visible as one in the marked body.

It computes the transitive call closure of every entry point and statically
verifies five rule classes across the whole closure:

  hot-alloc              no heap allocation reachable (operator new/delete,
                         malloc family, allocating std containers,
                         std::function spill, __cxa_allocate_exception).
  hot-blocking           no blocking call reachable (mutex/condvar/sleep/
                         syscall/stream I/O/static-init guards), and no call
                         into a function marked `// SOFTTIMER_BLOCKING`.
  hot-throw              no `throw` (or std::__throw_* helper) reachable.
  hot-recursion          no recursion cycle inside the closure (unbounded
                         stack depth inside a borrowed trigger state).
  ordering-pair-missing  every non-relaxed weakened atomic's `// ordering:`
                         rationale must name (or fuzzily imply) a pairing
                         site of the opposite polarity that actually exists.

Entry points are the functions preceded by a standalone `// SOFTTIMER_HOT`
marker line. The handler-dispatch contexts (facility dispatch, multi-queue
poll, a spinning shard's spin step, pacing-wheel drain) carry the marker
like every other entry point.

Annotation vocabulary (all standalone comment lines, optional `: reason`):

  // SOFTTIMER_HOT            entry point; closure must satisfy all rules.
  // SOFTTIMER_COLD: why      traversal boundary: the function is runtime-
                              guarded off the hot path (error/teardown/
                              startup); its body is not part of the closure.
  // SOFTTIMER_BLOCKING: why  declares the function blocking; reaching it
                              from any hot closure is a hot-blocking finding
                              regardless of what its body looks like.

Residual violations that are justified (e.g. std::function's empty-call
throw on a slot the schedule path proves non-empty) are waived *per edge* in
tools/analyze/waivers.json - every waiver names caller, callee, rule, and
reason, and unused waivers are reported so the database cannot rot.

Frontends:
  clang   libclang cindex over an exported compile_commands.json (preferred;
          what CI installs).
  gcc     re-runs each TU's compile command with `-fcallgraph-info -O0
          -fno-inline` and merges the emitted VCG .ci call graphs. Keeps the
          analyzer fully functional on toolchains without libclang (the dev
          container ships only GCC).
  auto    clang if importable+loadable, else gcc, else skip (exit SKIP_CODE
          so `ctest -L lint` reports SKIPPED, not FAILED).

Exit status: 0 clean, 1 unwaived findings, 2 internal/self-test failure,
77 (SKIP_CODE) when no frontend is available.

`--self-test` runs the whole pipeline against the seeded-violation corpus in
tools/analyze/fixtures/, proving every rule class fires and that the
annotations and waivers silence them.
"""

import argparse
import concurrent.futures
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

SKIP_CODE = 77

HOT_MARKER = "SOFTTIMER_HOT"
COLD_MARKER = "SOFTTIMER_COLD"
BLOCKING_MARKER = "SOFTTIMER_BLOCKING"

# A marker must be a standalone comment line (`// SOFTTIMER_COLD: reason`),
# not a prose mention inside a longer comment.
MARKER_RE = re.compile(
    r"^\s*//\s*(SOFTTIMER_HOT|SOFTTIMER_COLD|SOFTTIMER_BLOCKING)"
    r"\s*(?::\s*(.*))?\s*$")

# A marker precedes the function whose definition starts within this many
# lines (signatures may span several lines).
MARKER_WINDOW = 10

INDIRECT = "__indirect_call"

# --- Sink classification ----------------------------------------------------

ALLOC_C = {
    "malloc", "calloc", "realloc", "free", "aligned_alloc", "posix_memalign",
    "memalign", "valloc", "pvalloc", "strdup", "strndup", "asprintf",
    "reallocarray", "__cxa_allocate_exception", "__cxa_free_exception",
    "__libc_malloc", "__libc_free",
}

BLOCKING_C = {
    "pthread_mutex_lock", "pthread_cond_wait", "pthread_cond_timedwait",
    "pthread_join", "pthread_rwlock_rdlock", "pthread_rwlock_wrlock",
    "pthread_barrier_wait", "sem_wait", "sem_timedwait",
    "sleep", "usleep", "nanosleep", "clock_nanosleep", "syscall",
    "poll", "ppoll", "select", "pselect", "epoll_wait", "epoll_pwait",
    "accept", "accept4", "connect", "recv", "recvfrom", "recvmsg",
    "send", "sendto", "sendmsg", "read", "write", "pread", "pwrite",
    "open", "openat", "close", "fsync", "fdatasync", "msync",
    "fopen", "fclose", "fread", "fwrite", "fflush", "fprintf", "printf",
    "puts", "putchar", "fputs", "fputc", "vfprintf", "vprintf",
    "getchar", "fgets", "scanf", "fscanf",
    # Static-local initialization guard: may block on another thread's
    # in-progress initialization - hidden one-time work inside a hot path.
    "__cxa_guard_acquire",
}

THROW_C = {"__cxa_throw", "__cxa_rethrow"}

# Syscall-shaped names that are NOT blocking (vDSO / trivial kernel reads).
NONBLOCKING_C = {"clock_gettime", "gettimeofday", "time", "getpid",
                 "sched_getcpu"}

# Demangled-name patterns (C++ library surface). Each entry is
# (substring, rule, human label).
CXX_SINK_PATTERNS = (
    ("std::this_thread::sleep", "hot-blocking", "std::this_thread sleep"),
    ("std::mutex::lock(", "hot-blocking", "std::mutex::lock"),
    ("std::timed_mutex::", "hot-blocking", "std::timed_mutex"),
    ("std::recursive_mutex::lock(", "hot-blocking", "std::recursive_mutex"),
    ("std::shared_mutex::lock", "hot-blocking", "std::shared_mutex"),
    ("std::condition_variable::wait", "hot-blocking", "condition_variable"),
    ("std::thread::join(", "hot-blocking", "std::thread::join"),
    ("std::basic_ostream", "hot-blocking", "stream I/O"),
    ("std::basic_istream", "hot-blocking", "stream I/O"),
    ("std::__ostream_insert", "hot-blocking", "stream I/O"),
    ("std::basic_filebuf", "hot-blocking", "file stream"),
)


def classify_sink(key, demangled):
    """Returns (rule, label) if the node is a forbidden sink, else None."""
    name = demangled or key
    plain = key.split(":")[-1]
    if not plain.startswith("_Z"):
        # External C symbol: classify by exact name.
        base = plain
        if base in NONBLOCKING_C:
            return None
        if base in ALLOC_C:
            return ("hot-alloc", base)
        if base in BLOCKING_C:
            return ("hot-blocking", base)
        if base in THROW_C:
            return ("hot-throw", base)
    if name:
        # operator new/delete: placement forms (trailing void* argument) do
        # not allocate; everything else does.
        m = re.match(r"(?:void\*? )?operator (new|delete)(\[\])?\((.*)\)$",
                     name)
        if m:
            args = m.group(3)
            if not re.search(r",\s*void\*\s*$", args):
                return ("hot-alloc", f"operator {m.group(1)}{m.group(2) or ''}")
            return None
        if "::__throw_" in name or name.startswith("std::__throw_"):
            return ("hot-throw", name.split("(")[0])
        for pat, rule, label in CXX_SINK_PATTERNS:
            if pat in name:
                return (rule, label)
    return None


# --- Source annotations -----------------------------------------------------

class Annotations:
    def __init__(self):
        self.hot = []       # (relpath, line)
        self.cold = []      # (relpath, line, reason)
        self.blocking = []  # (relpath, line, reason)

    def scan_file(self, relpath, lines):
        for idx, line in enumerate(lines):
            m = MARKER_RE.match(line)
            if not m:
                continue
            kind, reason = m.group(1), (m.group(2) or "").strip()
            if kind == HOT_MARKER:
                self.hot.append((relpath, idx + 1))
            elif kind == COLD_MARKER:
                self.cold.append((relpath, idx + 1, reason))
            else:
                self.blocking.append((relpath, idx + 1, reason))


def scan_annotations(root, subdirs):
    ann = Annotations()
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".cpp")):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as f:
                    ann.scan_file(rel, f.read().splitlines())
    return ann


# --- Call graph -------------------------------------------------------------

class Node:
    __slots__ = ("key", "demangled", "file", "line", "locations")

    def __init__(self, key, demangled, file, line):
        self.key = key
        self.demangled = demangled
        self.file = file
        self.line = line
        # All (file, line) locations any TU reported for this symbol. A TU
        # that only *declares* a function records the declaration site (often
        # a header), so marker matching must consider every location, not
        # just whichever TU was parsed first.
        self.locations = [(file, line)] if file else []

    def display(self):
        if self.demangled:
            return self.demangled
        return self.key


class CallGraph:
    def __init__(self):
        self.nodes = {}      # key -> Node
        self.edges = {}      # key -> {callee_key: (site_file, site_line)}

    def add_node(self, key, demangled, file, line):
        existing = self.nodes.get(key)
        if existing is None:
            self.nodes[key] = Node(key, demangled, file, line)
        else:
            if not existing.demangled and demangled:
                existing.demangled = demangled
            if file:
                if not existing.file:
                    existing.file = file
                    existing.line = line
                if (file, line) not in existing.locations:
                    existing.locations.append((file, line))

    def add_edge(self, src, dst, site_file, site_line):
        self.edges.setdefault(src, {}).setdefault(dst, (site_file, site_line))

    def node(self, key):
        n = self.nodes.get(key)
        if n is None:
            n = Node(key, "", "", 0)
            self.nodes[key] = n
        return n


class FrontendUnavailable(Exception):
    pass


# --- GCC -fcallgraph-info frontend ------------------------------------------

CI_NODE_RE = re.compile(
    r'^node:\s*\{\s*title:\s*"((?:[^"\\]|\\.)*)"\s*label:\s*'
    r'"((?:[^"\\]|\\.)*)"')
CI_EDGE_RE = re.compile(
    r'^edge:\s*\{\s*sourcename:\s*"((?:[^"\\]|\\.)*)"\s*targetname:\s*'
    r'"((?:[^"\\]|\\.)*)"(?:\s*label:\s*"((?:[^"\\]|\\.)*)")?')
CI_GRAPH_RE = re.compile(r'^graph:\s*\{\s*title:\s*"((?:[^"\\]|\\.)*)"')
LOC_RE = re.compile(r"^(.*):(\d+):(\d+)$")


class GccFrontend:
    name = "gcc"

    def __init__(self, root, jobs=0):
        self.root = root
        self.jobs = jobs or (os.cpu_count() or 4)
        self.cxx = None
        # Probe from a scratch directory: -fcallgraph-info drops its .ci aux
        # file in the cwd even under -fsyntax-only.
        with tempfile.TemporaryDirectory(prefix="hot_closure_probe_") as tmp:
            for cand in ("g++", "c++"):
                try:
                    probe = subprocess.run(
                        [cand, "-fcallgraph-info", "-fsyntax-only", "-x",
                         "c++", "-", "-o", os.devnull],
                        input="", capture_output=True, text=True, timeout=30,
                        cwd=tmp)
                except (OSError, subprocess.TimeoutExpired):
                    continue
                if "unrecognized command" not in probe.stderr:
                    self.cxx = cand
                    break
        if self.cxx is None:
            raise FrontendUnavailable(
                "no g++ with -fcallgraph-info support found")

    @staticmethod
    def _rewrite_command(argv, out_obj):
        """Original compile command -> callgraph-dump command."""
        out = []
        skip = False
        for arg in argv:
            if skip:
                skip = False
                continue
            if arg == "-o":
                skip = True
                continue
            if arg.startswith("-o") and len(arg) > 2 and arg != "-o":
                continue
            if re.match(r"-O[0-9sz]?$|-Ofast$", arg):
                continue
            if arg.startswith("-fcallgraph-info"):
                continue
            if arg in ("-flto", "-fno-fat-lto-objects"):
                continue
            out.append(arg)
        out += ["-O0", "-fno-inline", "-w", "-fcallgraph-info", "-o", out_obj]
        return out

    def _run_tu(self, entry, tmpdir, idx):
        argv = (entry.get("arguments")
                or shlex.split(entry["command"]))
        # Force our probed compiler: the recorded one may be clang-shaped.
        argv = [self.cxx] + argv[1:]
        out_obj = os.path.join(tmpdir, f"tu{idx}.o")
        argv = self._rewrite_command(argv, out_obj)
        proc = subprocess.run(argv, cwd=entry.get("directory", self.root),
                              capture_output=True, text=True)
        ci_path = os.path.join(tmpdir, f"tu{idx}.ci")
        if proc.returncode != 0 or not os.path.exists(ci_path):
            return (entry["file"], proc.stderr.strip()[:2000], None)
        with open(ci_path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        return (entry["file"], None, text)

    @staticmethod
    def _unescape(s):
        return s.replace('\\"', '"')

    def _canon_key(self, title, tu_title):
        """VCG node title -> stable cross-TU key.

        Vague-linkage (inline/template) definitions are emitted per-TU as
        "<tu>:<mangled>"; the mangled name alone identifies the function.
        Internal-linkage symbols (_ZL...) genuinely differ per TU, so they
        keep the TU qualifier.
        """
        if title.startswith(tu_title + ":"):
            mangled = title[len(tu_title) + 1:]
            if mangled.startswith("_ZL") or not mangled.startswith("_Z"):
                return title
            return mangled
        return title

    def _canon_loc(self, path):
        if not path:
            return ""
        ap = os.path.realpath(path) if not os.path.isabs(path) \
            else os.path.realpath(path)
        if ap.startswith(self.root + os.sep):
            return os.path.relpath(ap, self.root).replace(os.sep, "/")
        return ap

    def _parse_ci(self, text, graph, entry_dir):
        tu_title = ""
        for line in text.splitlines():
            gm = CI_GRAPH_RE.match(line)
            if gm:
                tu_title = self._unescape(gm.group(1))
                continue
            nm = CI_NODE_RE.match(line)
            if nm:
                title = self._canon_key(self._unescape(nm.group(1)), tu_title)
                label = self._unescape(nm.group(2))
                parts = label.split("\\n")
                demangled = parts[0] if parts else ""
                file, lineno = "", 0
                if len(parts) > 1:
                    lm = LOC_RE.match(parts[-1])
                    if lm:
                        raw = lm.group(1)
                        if not os.path.isabs(raw):
                            raw = os.path.join(entry_dir, raw)
                        file = self._canon_loc(raw)
                        lineno = int(lm.group(2))
                # GCC sometimes truncates the label to ") [with ...]"; those
                # names are recovered via c++filt later.
                if demangled.startswith(")"):
                    demangled = ""
                graph.add_node(title, demangled, file, lineno)
                continue
            em = CI_EDGE_RE.match(line)
            if em:
                src = self._canon_key(self._unescape(em.group(1)), tu_title)
                dst = self._canon_key(self._unescape(em.group(2)), tu_title)
                site_file, site_line = "", 0
                if em.group(3):
                    lm = LOC_RE.match(self._unescape(em.group(3)))
                    if lm:
                        raw = lm.group(1)
                        if not os.path.isabs(raw):
                            raw = os.path.join(entry_dir, raw)
                        site_file = self._canon_loc(raw)
                        site_line = int(lm.group(2))
                graph.add_edge(src, dst, site_file, site_line)

    def _demangle_missing(self, graph):
        keys = [k for k, n in graph.nodes.items() if not n.demangled]
        mangled = []
        for k in keys:
            m = k.split(":")[-1]
            mangled.append(m if m.startswith("_Z") else m)
        if not mangled:
            return
        for tool in ("c++filt", "llvm-cxxfilt"):
            try:
                proc = subprocess.run([tool], input="\n".join(mangled) + "\n",
                                      capture_output=True, text=True,
                                      timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                continue
            if proc.returncode == 0:
                out = proc.stdout.splitlines()
                if len(out) == len(keys):
                    for k, d in zip(keys, out):
                        if d and d != k.split(":")[-1]:
                            graph.nodes[k].demangled = d
                return

    def build(self, entries):
        graph = CallGraph()
        errors = []
        with tempfile.TemporaryDirectory(prefix="hot_closure_") as tmpdir:
            with concurrent.futures.ThreadPoolExecutor(self.jobs) as pool:
                futures = [pool.submit(self._run_tu, e, tmpdir, i)
                           for i, e in enumerate(entries)]
                results = []
                for fut, entry in zip(futures, entries):
                    results.append((fut.result(), entry))
            for (file, err, text), entry in results:
                if err is not None:
                    errors.append((file, err))
                    continue
                self._parse_ci(text, graph,
                               entry.get("directory", self.root))
        self._demangle_missing(graph)
        return graph, errors


# --- libclang cindex frontend -----------------------------------------------

class ClangFrontend:
    name = "clang"

    def __init__(self, root, jobs=0):
        self.root = root
        try:
            from clang import cindex  # noqa: F401
        except ImportError as e:
            raise FrontendUnavailable(f"python clang bindings missing: {e}")
        self.cindex = __import__("clang.cindex", fromlist=["cindex"])
        try:
            self.index = self.cindex.Index.create()
        except Exception as e:  # LibclangError: shared library missing
            raise FrontendUnavailable(f"libclang unavailable: {e}")

    def _canon_loc(self, path):
        if not path:
            return ""
        ap = os.path.realpath(path)
        if ap.startswith(self.root + os.sep):
            return os.path.relpath(ap, self.root).replace(os.sep, "/")
        return ap

    @staticmethod
    def _filter_args(argv):
        """Compile command -> cindex parse args (flags only, no in/out)."""
        args = []
        skip = False
        for arg in argv[1:]:
            if skip:
                skip = False
                continue
            if arg in ("-o", "-c"):
                skip = (arg == "-o")
                continue
            if arg.endswith((".cc", ".cpp", ".o")):
                continue
            args.append(arg)
        return args

    def _qualname(self, cursor):
        parts = []
        c = cursor
        ck = self.cindex.CursorKind
        while c is not None and c.kind != ck.TRANSLATION_UNIT:
            if c.kind in (ck.NAMESPACE, ck.CLASS_DECL, ck.STRUCT_DECL,
                          ck.CLASS_TEMPLATE, ck.UNION_DECL) or \
                    c == cursor:
                name = c.displayname if c == cursor else c.spelling
                if name:
                    parts.append(name)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def _key(self, cursor):
        return cursor.get_usr() or self._qualname(cursor)

    def build(self, entries):
        ck = self.cindex.CursorKind
        func_kinds = {ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR,
                      ck.DESTRUCTOR, ck.CONVERSION_FUNCTION,
                      ck.FUNCTION_TEMPLATE, ck.LAMBDA_EXPR}
        graph = CallGraph()
        errors = []

        def visit(cursor, current):
            kind = cursor.kind
            if kind in func_kinds and kind != ck.LAMBDA_EXPR and \
                    cursor.is_definition():
                key = self._key(cursor)
                loc = cursor.location
                graph.add_node(
                    key, self._qualname(cursor),
                    self._canon_loc(loc.file.name if loc.file else ""),
                    loc.line)
                current = key
            elif current is not None:
                loc = cursor.location
                site = (self._canon_loc(loc.file.name if loc.file else ""),
                        loc.line)
                if kind == ck.CALL_EXPR:
                    ref = cursor.referenced
                    if ref is None:
                        graph.add_edge(current, INDIRECT, *site)
                        graph.node(INDIRECT)
                    else:
                        rkey = self._key(ref)
                        rloc = ref.location
                        graph.add_node(
                            rkey, self._qualname(ref),
                            self._canon_loc(
                                rloc.file.name if rloc.file else ""),
                            rloc.line)
                        graph.add_edge(current, rkey, *site)
                elif kind == ck.CXX_NEW_EXPR:
                    placement = False
                    try:
                        toks = list(cursor.get_tokens())
                        for i, t in enumerate(toks):
                            if t.spelling == "new":
                                placement = (i + 1 < len(toks) and
                                             toks[i + 1].spelling == "(")
                                break
                    except Exception:
                        pass
                    if not placement:
                        graph.add_node("operator new",
                                       "operator new(unsigned long)", "", 0)
                        graph.add_edge(current, "operator new", *site)
                elif kind == ck.CXX_DELETE_EXPR:
                    graph.add_node("operator delete",
                                   "operator delete(void*)", "", 0)
                    graph.add_edge(current, "operator delete", *site)
                elif kind == ck.CXX_THROW_EXPR:
                    graph.add_node("__cxa_throw", "", "", 0)
                    graph.add_edge(current, "__cxa_throw", *site)
            for child in cursor.get_children():
                visit(child, current)

        sys.setrecursionlimit(100000)
        for entry in entries:
            argv = entry.get("arguments") or shlex.split(entry["command"])
            args = self._filter_args(argv)
            try:
                tu = self.index.parse(entry["file"], args=args)
            except Exception as e:
                errors.append((entry["file"], str(e)))
                continue
            fatal = [d for d in tu.diagnostics if d.severity >= 4]
            if fatal:
                errors.append((entry["file"], str(fatal[0])))
                continue
            visit(tu.cursor, None)
        return graph, errors


# --- Waivers ----------------------------------------------------------------

class Waiver:
    def __init__(self, rule, caller, callee, reason, index):
        self.rule = rule
        self.caller = caller
        self.callee = callee
        self.reason = reason
        self.index = index
        self.used = False

    def matches(self, rule, caller_name, callee_name):
        if self.rule != "*" and self.rule != rule:
            return False
        if self.caller != "*" and self.caller not in caller_name:
            return False
        if self.callee != "*" and self.callee not in callee_name:
            return False
        return True


def load_waivers(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    waivers = []
    for i, w in enumerate(data.get("waivers", [])):
        for field in ("rule", "caller", "callee", "reason"):
            if field not in w:
                raise ValueError(f"waiver #{i} missing '{field}'")
        if len(w["reason"].strip()) < 10:
            raise ValueError(f"waiver #{i}: reason too short to be a "
                             "justification")
        waivers.append(Waiver(w["rule"], w["caller"], w["callee"],
                              w["reason"], i))
    return waivers


# --- Closure analysis -------------------------------------------------------

class Finding:
    def __init__(self, rule, entry_name, message, path_desc=""):
        self.rule = rule
        self.entry = entry_name
        self.message = message
        self.path = path_desc

    def render(self):
        s = f"[{self.rule}] entry '{self.entry}': {self.message}"
        if self.path:
            s += f"\n    via {self.path}"
        return s


class Entry:
    def __init__(self, key, name):
        self.key = key
        self.name = name


def match_markers_to_nodes(graph, marked, window=MARKER_WINDOW):
    """(file,line) markers -> node keys whose definition follows the marker."""
    by_file = {}
    for key, node in graph.nodes.items():
        for file, line in node.locations:
            by_file.setdefault(file, []).append((line, key))
    for lst in by_file.values():
        lst.sort()
    matched = {}
    unmatched = []
    for item in marked:
        relpath, line = item[0], item[1]
        cands = [(ln, key) for ln, key in by_file.get(relpath, ())
                 if line < ln <= line + window]
        if not cands:
            unmatched.append((relpath, line))
            continue
        best_line = min(ln for ln, _ in cands)
        matched[(relpath, line)] = [key for ln, key in cands
                                    if ln == best_line]
    return matched, unmatched


class ClosureAnalyzer:
    def __init__(self, graph, annotations, waivers, strict_indirect=False):
        self.graph = graph
        self.waivers = waivers
        self.strict_indirect = strict_indirect
        self.findings = []
        self.notes = []
        hot_matched, hot_unmatched = match_markers_to_nodes(
            graph, annotations.hot)
        cold_matched, cold_unmatched = match_markers_to_nodes(
            graph, [(f, l) for f, l, _ in annotations.cold])
        blk_matched, blk_unmatched = match_markers_to_nodes(
            graph, [(f, l) for f, l, _ in annotations.blocking])
        self.hot_matched = hot_matched
        self.unmatched_markers = hot_unmatched
        self.cold_keys = {k for keys in cold_matched.values() for k in keys}
        self.blocking_keys = {k for keys in blk_matched.values()
                              for k in keys}
        for f, l in cold_unmatched:
            self.notes.append(f"note: SOFTTIMER_COLD marker at {f}:{l} "
                              "matches no analyzed function")
        for f, l in blk_unmatched:
            self.notes.append(f"note: SOFTTIMER_BLOCKING marker at {f}:{l} "
                              "matches no analyzed function")

    def entries(self):
        out = []
        seen = set()
        for (relpath, line), keys in sorted(self.hot_matched.items()):
            for key in keys:
                if key in seen:
                    continue
                seen.add(key)
                node = self.graph.nodes[key]
                name = node.display().split(" [with")[0]
                out.append(Entry(key, f"{name} ({relpath}:{line})"))
        return out

    def _edge_waived(self, rule, src, dst):
        src_name = self.graph.node(src).display() + " " + src
        dst_name = self.graph.node(dst).display() + " " + dst
        for w in self.waivers:
            if w.matches(rule, src_name, dst_name):
                w.used = True
                return True
        return False

    def _closure(self, entry_key, rule):
        """BFS respecting COLD boundaries and rule-specific edge waivers.

        Returns (visited_set, parents dict for path reconstruction).
        """
        parents = {entry_key: None}
        queue = [entry_key]
        while queue:
            cur = queue.pop(0)
            for callee in self.graph.edges.get(cur, {}):
                if callee in parents:
                    continue
                if callee in self.cold_keys:
                    continue
                if self._edge_waived(rule, cur, callee):
                    continue
                parents[callee] = cur
                # Sinks and declared-blocking functions are boundaries: we
                # report reaching them, never what is inside them.
                node = self.graph.nodes.get(callee)
                dem = node.demangled if node else ""
                if callee in self.blocking_keys or \
                        classify_sink(callee, dem) or callee == INDIRECT:
                    continue
                queue.append(callee)
        return parents

    def _path(self, parents, key):
        chain = []
        cur = key
        while cur is not None:
            node = self.graph.node(cur)
            name = node.display().split(" [with")[0]
            parent = parents.get(cur)
            if parent is not None:
                site = self.graph.edges.get(parent, {}).get(cur, ("", 0))
                loc = f" ({site[0]}:{site[1]})" if site[0] else ""
                chain.append(name + loc)
            else:
                chain.append(name)
            cur = parent
        return " -> ".join(reversed(chain))

    def _check_entry(self, entry):
        stats = {"nodes": 0, "indirect": 0}
        for rule in ("hot-alloc", "hot-blocking", "hot-throw"):
            parents = self._closure(entry.key, rule)
            if rule == "hot-alloc":
                stats["nodes"] = len(parents)
                stats["indirect"] = sum(1 for k in parents if k == INDIRECT)
            reported = set()
            for key in parents:
                if key == entry.key:
                    continue
                node = self.graph.node(key)
                if key == INDIRECT:
                    if self.strict_indirect and rule == "hot-blocking":
                        src = parents[key]
                        self.findings.append(Finding(
                            "hot-indirect", entry.name,
                            "unwaived indirect call inside hot closure "
                            "(strict mode)", self._path(parents, key)))
                    continue
                hit = None
                if rule == "hot-blocking" and key in self.blocking_keys:
                    hit = (rule, f"SOFTTIMER_BLOCKING function "
                                 f"{node.display().split(' [with')[0]}")
                else:
                    cls = classify_sink(key, node.demangled)
                    if cls and cls[0] == rule:
                        hit = cls
                if hit and hit[1] not in reported:
                    reported.add(hit[1])
                    self.findings.append(Finding(
                        rule, entry.name, f"reaches {hit[1]}",
                        self._path(parents, key)))
        self._check_recursion(entry)
        return stats

    def _check_recursion(self, entry):
        parents = self._closure(entry.key, "hot-recursion")
        visited = set(parents)
        # Iterative Tarjan SCC over the closure subgraph.
        index_of, low, on_stack = {}, {}, set()
        stack, sccs, counter = [], [], [0]
        for root in visited:
            if root in index_of:
                continue
            work = [(root, iter(sorted(self.graph.edges.get(root, {}))))]
            index_of[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                v, it = work[-1]
                advanced = False
                for w in it:
                    if w not in visited:
                        continue
                    if w not in index_of:
                        index_of[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append(
                            (w, iter(sorted(self.graph.edges.get(w, {})))))
                        advanced = True
                        break
                    if w in on_stack:
                        low[v] = min(low[v], index_of[w])
                if advanced:
                    continue
                work.pop()
                if low[v] == index_of[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == v:
                            break
                    if len(scc) > 1 or v in self.graph.edges.get(v, {}):
                        sccs.append(scc)
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
        for scc in sccs:
            names = sorted(self.graph.node(k).display().split(" [with")[0]
                           for k in scc)
            self.findings.append(Finding(
                "hot-recursion", entry.name,
                f"recursion cycle inside hot closure: {' <-> '.join(names)}"))

    def run(self):
        entry_list = self.entries()
        stats = []
        seen_finding = set()
        for entry in entry_list:
            before = len(self.findings)
            st = self._check_entry(entry)
            # Dedupe identical (rule, message, path) across entries that share
            # sub-closures, keeping the first entry that reported it.
            kept = []
            for f in self.findings[before:]:
                sig = (f.rule, f.message, f.path)
                if sig in seen_finding:
                    continue
                seen_finding.add(sig)
                kept.append(f)
            del self.findings[before:]
            self.findings.extend(kept)
            stats.append((entry, st))
        return stats


# --- Ordering-pairing pass (rule 5, pure source) ----------------------------

WEAK_ORDER_RE = re.compile(
    r"memory_order_(relaxed|acquire|release|acq_rel|consume)")
ORDERING_TAG = "ordering:"
ANNOTATION_LOOKBACK = 6
PAIR_REF_RE = re.compile(
    r"pairs?\s+w(?:ith|/)?\s+(?:the\s+)?((?:\w+\s+){0,4}\w+)",
    re.IGNORECASE)
SEE_REF_RE = re.compile(r"see\s+(k[A-Z]\w+|\w+\(\)|[A-Z]\w+(?:::\w+)*)")
IDENT_RE = re.compile(r"\b(k[A-Z]\w+)\b|\b([A-Za-z_]\w*)\(\)")

# Annotation phrases that declare the site synchronization-free or paired
# through a non-atomic mechanism (fence, thread launch/join, lock).
EXEMPT_PHRASES = (
    "fence", "no ordering", "no synchronization", "diagnostic",
    "counter", "best-effort", "staleness", "stale", "monotonic",
    "coherence", "self-check", "thread launch", "thread creation", "join",
    "quiesced", "heuristic", "mutex", "serializes", "single-threaded",
)

POLARITY = {"release": "rel", "acq_rel": "both", "acquire": "acq",
            "consume": "acq", "relaxed": "rlx"}


def strip_comment_and_strings(line):
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    cut = line.find("//")
    return line[:cut] if cut >= 0 else line


class OrderingSite:
    def __init__(self, relpath, lineno, orders, code, annotation):
        self.relpath = relpath
        self.lineno = lineno
        self.orders = orders          # set of order spellings on the line
        self.code = code
        self.annotation = annotation  # rationale text ("" if none)

    @property
    def polarities(self):
        return {POLARITY[o] for o in self.orders}


def collect_ordering_sites(root, subdirs):
    sites = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".cpp")):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as f:
                    lines = f.read().splitlines()
                for idx, line in enumerate(lines):
                    code = strip_comment_and_strings(line)
                    orders = set(WEAK_ORDER_RE.findall(code))
                    if not orders:
                        continue
                    annotation = ""
                    start = None
                    for back in range(idx, max(-1, idx - 1 - ANNOTATION_LOOKBACK), -1):
                        if ORDERING_TAG in lines[back]:
                            start = back
                            break
                    if start is not None:
                        parts = []
                        for li in range(start, idx + 1):
                            text = lines[li]
                            cut = text.find("//")
                            comment = text[cut + 2:] if cut >= 0 else ""
                            parts.append(comment.strip())
                        annotation = " ".join(p for p in parts if p)
                        annotation = annotation.split(ORDERING_TAG, 1)[-1]
                    sites.append(OrderingSite(rel, idx + 1, orders, code,
                                              annotation))
    return sites


def _opposite_ok(polarity, other):
    if polarity == "rel":
        return other & {"acq", "both"}
    if polarity == "acq":
        return other & {"rel", "both"}
    if polarity == "both":
        return other & {"rel", "acq", "both"}
    return True


def check_ordering_pairing(sites, findings):
    by_file = {}
    for s in sites:
        by_file.setdefault(s.relpath, []).append(s)

    def ident_resolves(ident, polarity, site):
        """An identifier resolves when an opposite-polarity site mentions or
        defines it - same file first, then the whole analyzed tree."""
        scopes = [by_file.get(site.relpath, ()), sites]
        for scope in scopes:
            for other in scope:
                if other is site:
                    continue
                if ident not in other.code and ident not in other.annotation:
                    continue
                if _opposite_ok(polarity, other.polarities):
                    return True
        return False

    for site in sites:
        strong = {p for p in site.polarities if p in ("rel", "acq", "both")}
        if not strong:
            continue  # relaxed-only: the lint already demands a rationale
        text = site.annotation
        low = text.lower()
        pair_refs = PAIR_REF_RE.findall(text)
        idents = []
        for phrase in pair_refs:
            for m in IDENT_RE.finditer(phrase):
                idents.append(m.group(1) or m.group(2))
        for m in SEE_REF_RE.finditer(text):
            idents.append(m.group(1).rstrip("()"))
        polarity = "both" if "both" in strong or len(strong) > 1 \
            else next(iter(strong))
        if idents:
            if any(ident_resolves(i, polarity, site) for i in idents):
                continue
            findings.append(Finding(
                "ordering-pair-missing",
                f"{site.relpath}:{site.lineno}",
                f"rationale names pairing site(s) {sorted(set(idents))} but "
                f"no opposite-polarity weakened-atomic site defines or "
                f"mentions them"))
            continue
        if any(p in low for p in EXEMPT_PHRASES):
            continue
        if pair_refs:
            # Phrase-level pairing claim ("pairs with the release handback"):
            # accept when the same file has an opposite-polarity site.
            others = [o for o in by_file.get(site.relpath, ()) if o is not site]
            if any(_opposite_ok(polarity, o.polarities) for o in others):
                continue
            findings.append(Finding(
                "ordering-pair-missing",
                f"{site.relpath}:{site.lineno}",
                "rationale claims a pairing but the file has no "
                "opposite-polarity weakened-atomic site"))
            continue
        others = [o for o in by_file.get(site.relpath, ()) if o is not site]
        if any(_opposite_ok(polarity, o.polarities) for o in others):
            continue
        findings.append(Finding(
            "ordering-pair-missing",
            f"{site.relpath}:{site.lineno}",
            f"{'/'.join(sorted(site.orders))} site has no pairing "
            "rationale (`pairs with <site>`), no exempting rationale, and "
            "no opposite-polarity site in the file"))


# --- Driver -----------------------------------------------------------------

def load_compile_db(build_dir, root, subdirs):
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(db_path):
        return None, db_path
    with open(db_path, encoding="utf-8") as f:
        entries = json.load(f)
    wanted = []
    prefixes = tuple(os.path.join(root, s) + os.sep for s in subdirs)
    for e in entries:
        f = e["file"]
        if not os.path.isabs(f):
            f = os.path.join(e.get("directory", root), f)
        f = os.path.realpath(f)
        if f.startswith(prefixes):
            e = dict(e)
            e["file"] = f
            wanted.append(e)
    return wanted, db_path


def make_frontend(kind, root, jobs):
    if kind in ("clang", "auto"):
        try:
            return ClangFrontend(root, jobs)
        except FrontendUnavailable as e:
            if kind == "clang":
                raise
            clang_reason = str(e)
    if kind in ("gcc", "auto"):
        try:
            return GccFrontend(root, jobs)
        except FrontendUnavailable:
            if kind == "gcc":
                raise
    raise FrontendUnavailable(
        f"clang frontend: {clang_reason}; gcc -fcallgraph-info also "
        "unavailable")


def run_analysis(root, entries, annotations, waivers, frontend,
                 ordering_subdirs, strict_indirect=False, verbose=False):
    """Returns (findings, notes, entry_stats, errors)."""
    graph, errors = frontend.build(entries)
    analyzer = ClosureAnalyzer(graph, annotations, waivers, strict_indirect)
    entry_stats = analyzer.run()
    findings = analyzer.findings
    notes = analyzer.notes
    for relpath, line in analyzer.unmatched_markers:
        notes.append(
            f"note: SOFTTIMER_HOT marker at {relpath}:{line} matched no "
            "function definition in the analyzed TUs (template never "
            "instantiated under src/, or marker adrift)")
    sites = collect_ordering_sites(root, ordering_subdirs)
    check_ordering_pairing(sites, findings)
    return findings, notes, entry_stats, errors, len(sites)


def report(findings, notes, entry_stats, errors, n_sites, waivers,
           verbose=False):
    out = []
    total_nodes = sum(st["nodes"] for _, st in entry_stats)
    indirect = sum(st["indirect"] for _, st in entry_stats)
    out.append(f"hot_closure: verified {len(entry_stats)} SOFTTIMER_HOT "
               "entry point(s); "
               f"{total_nodes} closure nodes traversed, "
               f"{indirect} indirect-call boundary(ies), "
               f"{n_sites} weakened-atomic site(s) checked for pairing")
    if verbose:
        for e, st in entry_stats:
            out.append(f"  {e.name}: {st['nodes']} nodes, "
                       f"{st['indirect']} indirect")
    for f, err in errors:
        out.append(f"warning: failed to analyze TU {f}: {err.splitlines()[0] if err else ''}")
    for n in notes:
        out.append(n)
    used = [w for w in waivers if w.used]
    unused = [w for w in waivers if not w.used]
    if used:
        out.append(f"{len(used)} waiver(s) applied")
        if verbose:
            for w in used:
                out.append(f"  waiver #{w.index} [{w.rule}] "
                           f"{w.caller} -> {w.callee}: {w.reason}")
    for w in unused:
        out.append(f"warning: unused waiver #{w.index} [{w.rule}] "
                   f"{w.caller} -> {w.callee} (remove it or fix the match)")
    for f in findings:
        out.append(f.render())
    if findings:
        out.append(f"{len(findings)} unwaived finding(s)")
    else:
        out.append("hot_closure: clean (zero unwaived findings)")
    return "\n".join(out)


# --- Self-test --------------------------------------------------------------

def fixture_compile_db(fixtures_dir, tmpdir):
    entries = []
    for name in sorted(os.listdir(fixtures_dir)):
        if not name.endswith(".cc"):
            continue
        path = os.path.join(fixtures_dir, name)
        entries.append({
            "directory": fixtures_dir,
            "command": f"c++ -std=c++20 -c {shlex.quote(path)} -o "
                       f"{shlex.quote(os.path.join(tmpdir, name + '.o'))}",
            "file": path,
        })
    return entries


def self_test(root, frontend_kind, jobs):
    fixtures = os.path.join(root, "tools", "analyze", "fixtures")
    if not os.path.isdir(fixtures):
        print(f"self-test FAILED: fixture corpus missing at {fixtures}",
              file=sys.stderr)
        return 2
    try:
        frontend = make_frontend(frontend_kind, fixtures, jobs)
    except FrontendUnavailable as e:
        print(f"hot_closure self-test SKIPPED: {e}")
        return SKIP_CODE

    annotations = scan_annotations(fixtures, ["."])
    annotations.hot = [(f, l) for f, l in annotations.hot]
    with tempfile.TemporaryDirectory(prefix="hot_closure_st_") as tmpdir:
        entries = fixture_compile_db(fixtures, tmpdir)
        failures = []

        def run(waivers):
            findings, notes, stats, errors, _ = run_analysis(
                fixtures, entries, annotations, waivers, frontend, ["."])
            return findings, notes, stats, errors

        findings, notes, stats, errors = run([])
        for f, err in errors:
            failures.append(f"fixture TU failed to compile: {f}: {err}")
        rules = {f.rule for f in findings}
        expected = {"hot-alloc", "hot-blocking", "hot-throw",
                    "hot-recursion", "ordering-pair-missing"}
        for rule in sorted(expected):
            if rule not in rules:
                failures.append(f"rule {rule} did not fire on the seeded "
                                "fixture corpus")

        def fired(rule, needle):
            return any(f.rule == rule and needle in (f.message + f.path +
                                                     f.entry)
                       for f in findings)

        # Rule 1: allocation one call deep (the regex lint cannot see it).
        if not fired("hot-alloc", "TransitiveAlloc"):
            failures.append("hot-alloc did not fire through the transitive "
                            "helper chain")
        # Rule 2: blocking two calls deep + declared-blocking function.
        if not fired("hot-blocking", "DeepLock"):
            failures.append("hot-blocking did not fire through the nested "
                            "mutex helper")
        if not fired("hot-blocking", "SOFTTIMER_BLOCKING"):
            failures.append("SOFTTIMER_BLOCKING annotation did not flag the "
                            "declared-blocking callee")
        # Rule 3: throw behind a helper.
        if not fired("hot-throw", "ThrowingHelper") and \
                not fired("hot-throw", "__cxa_throw"):
            failures.append("hot-throw did not fire through the helper")
        # Rule 4: mutual recursion inside the closure.
        if not fired("hot-recursion", "PingPongA") and \
                not fired("hot-recursion", "recursion cycle"):
            failures.append("hot-recursion did not fire on the seeded cycle")
        # SOFTTIMER_COLD prunes: the cold error path allocates, but must not
        # produce a finding against its caller.
        if fired("hot-alloc", "ColdErrorPath"):
            failures.append("SOFTTIMER_COLD did not prune the cold error "
                            "path from the closure")
        # The clean fixture must contribute no findings.
        if any("CleanHot" in (f.message + f.path + f.entry)
               for f in findings):
            failures.append("clean fixture produced findings")
        # Ordering: the broken pairing fires, the good pairing stays silent.
        if not any(f.rule == "ordering-pair-missing" and
                   "fixture_ordering" in f.entry for f in findings):
            failures.append("ordering-pair-missing did not fire on the "
                            "dangling pairing reference")
        bad_ordering = [f for f in findings
                        if f.rule == "ordering-pair-missing" and
                        "good" in f.entry]
        if bad_ordering:
            failures.append(f"well-paired ordering site misflagged: "
                            f"{bad_ordering[0].entry}")

        # Waivers silence, per edge: waive every seeded graph violation and
        # verify only ordering findings remain.
        waive_all = [
            Waiver("hot-alloc", "*", "*", "self-test: waive the seeded "
                   "allocations", 0),
            Waiver("hot-blocking", "*", "*", "self-test: waive the seeded "
                   "blocking calls", 1),
            Waiver("hot-throw", "*", "*", "self-test: waive the seeded "
                   "throws", 2),
            Waiver("hot-recursion", "PingPongA", "PingPongB",
                   "self-test: break the seeded cycle at one edge", 3),
        ]
        findings2, _, _, _ = run(waive_all)
        graph_rules = {f.rule for f in findings2} - {"ordering-pair-missing"}
        if graph_rules:
            failures.append(f"waivers did not silence the seeded graph "
                            f"violations; still firing: {sorted(graph_rules)}")
        if not all(w.used for w in waive_all):
            failures.append("some self-test waivers were never applied")

        # Targeted per-edge waiver: waiving ONE edge must not silence an
        # unrelated rule.
        one_edge = [Waiver("hot-alloc", "HotAllocEntry", "operator new",
                           "self-test: targeted single-edge waiver", 0)]
        findings3, _, _, _ = run(one_edge)
        if not any(f.rule == "hot-blocking" for f in findings3):
            failures.append("a hot-alloc waiver suppressed hot-blocking "
                            "findings (waivers must be per-rule)")

    if failures:
        for f in failures:
            print(f"hot_closure self-test FAILED: {f}", file=sys.stderr)
        return 2
    print(f"hot_closure self-test ({frontend.name} frontend): all 5 rule "
          "classes fire on the seeded corpus; COLD prunes, BLOCKING flags, "
          "waivers silence per-edge, clean fixture stays clean")
    return 0


# --- main -------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    default_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    parser.add_argument("--root", default=default_root,
                        help="repository root (default: ../../ from tools/"
                             "analyze/)")
    parser.add_argument("-p", "--build-dir", default=None,
                        help="directory containing compile_commands.json "
                             "(default: <root>/build)")
    parser.add_argument("--frontend", choices=("auto", "clang", "gcc"),
                        default="auto")
    parser.add_argument("--jobs", type=int, default=0,
                        help="parallel TU analyses (default: cpu count)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify all rule classes against the seeded "
                             "fixture corpus")
    parser.add_argument("--strict-indirect", action="store_true",
                        help="also flag unwaived indirect-call edges inside "
                             "hot closures")
    parser.add_argument("--verbose", "-v", action="store_true")
    args = parser.parse_args()

    root = os.path.realpath(args.root)
    if args.self_test:
        return self_test(root, args.frontend, args.jobs)

    build_dir = args.build_dir or os.path.join(root, "build")
    subdirs = ["src"]
    entries, db_path = load_compile_db(build_dir, root, subdirs)
    if entries is None:
        print(f"hot_closure: no compile_commands.json at {db_path}; "
              "configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON "
              "(the shipped CMake presets do)", file=sys.stderr)
        return SKIP_CODE
    if not entries:
        print("hot_closure: compile_commands.json has no src/ TUs",
              file=sys.stderr)
        return 2
    try:
        frontend = make_frontend(args.frontend, root, args.jobs)
    except FrontendUnavailable as e:
        # Graceful skip: the ordering pass needs no compiler, so still run it
        # before skipping the graph rules.
        print(f"hot_closure: call-graph frontends unavailable ({e}); "
              "running the source-level ordering-pairing pass only")
        findings = []
        sites = collect_ordering_sites(root, subdirs)
        check_ordering_pairing(sites, findings)
        for f in findings:
            print(f.render())
        if findings:
            print(f"{len(findings)} unwaived finding(s)", file=sys.stderr)
            return 1
        print(f"ordering-pairing: {len(sites)} weakened-atomic site(s) "
              "clean; graph rules SKIPPED")
        return SKIP_CODE

    annotations = scan_annotations(root, subdirs)
    waiver_path = os.path.join(root, "tools", "analyze", "waivers.json")
    try:
        waivers = load_waivers(waiver_path)
    except ValueError as e:
        print(f"hot_closure: invalid waiver database: {e}", file=sys.stderr)
        return 2

    findings, notes, entry_stats, errors, n_sites = run_analysis(
        root, entries, annotations, waivers, frontend, subdirs,
        args.strict_indirect, args.verbose)
    print(report(findings, notes, entry_stats, errors, n_sites, waivers,
                 args.verbose))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
