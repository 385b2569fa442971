#!/usr/bin/env python3
"""Atomics lint for the tamp sources: ten rules for conventions that no
compiler checks (README "Correctness tooling").  The rule table, RULES in
tools/lint_atomics.py, gives each rule's scope, message and rationale.

A finding on line N is suppressed when line N or line N-1 carries
`// tamp-lint: allow(<rule>)` (comma-separate several rules), and a whole
file opts out of a rule with `// tamp-lint: allow-file(<rule>)`.  Give the
reason in the surrounding comment; bare allows are poor form.

Exit status: 0 when clean, 1 when any unsuppressed finding remains, 2 on
usage errors.
"""

import argparse
import bisect
import os
import re
import sys

# The families migrated onto the tamp::atomic facade (tamp/sim/atomic.hpp).
FACADE = ("/tamp/mutex/", "/tamp/spin/", "/tamp/stacks/", "/tamp/queues/",
          "/tamp/lists/", "/tamp/kv/")

# rule: (path fragments a file must contain one of, or () for every file;
#        fragments it must contain none of; message)
RULES = {
    # In a retry loop (body or condition) the failure path re-reads and
    # retries anyway, so the cheaper compare_exchange_weak, which may fail
    # spuriously, suffices.  _strong there is a missed optimization or,
    # where single-attempt semantics are intended (helping CASes,
    # elimination hand-offs), deserves an annotation.
    "cas-strong-loop": ((), (), "compare_exchange_strong in a loop; _weak "
                        "suffices in retry loops (annotate if single-attempt "
                        "semantics are intentional)"),
    # A successful CAS is nearly always a publication or acquisition point;
    # a relaxed success order is legal only for pure bookkeeping
    # (statistics, monotonic maxima) and must say so.
    "cas-relaxed-success": ((), (), "CAS success ordering is "
                            "memory_order_relaxed; successful CAS is usually "
                            "an acquire/release point"),
    # volatile (outside `asm volatile`) is not a synchronization primitive
    # in C++; shared state must be atomic.
    "volatile-sync": ((), (), "volatile is not a synchronization primitive; "
                      "use std::atomic"),
    # A top-level class with two or more std::atomic data members where a
    # non-array member has no alignas padding (on its line or the line
    # above): adjacent hot atomics false-share (Herlihy & Shavit App. B.6).
    # Nested structs (nodes, per-thread records) are exempt: padding every
    # node would bloat the structures the book sizes carefully.
    "atomic-align": ((), (), "adjacent atomic members false-share; pad hot "
                     "atomics with alignas(kCacheLineSize)"),
    # The facade families declare shared state as tamp::atomic so the
    # TAMP_SIM model checker can schedule every access; a raw std::atomic
    # or std::atomic_flag is invisible to it.  The scheduler and the
    # infrastructure it rides on (core/, obs/, sim/, reclaim/, ...) stay on
    # std::atomic.
    "raw-atomic": (FACADE, (), "raw std::atomic in a facade-migrated family; "
                   "use tamp::atomic (tamp/sim/atomic.hpp) so TAMP_SIM can "
                   "schedule the access"),
    # The reclamation read side runs the asymmetric-fence protocol (release
    # store plus compiler barrier; the scanner's membarrier supplies the
    # store-load order), so a seq_cst `.store` there is dead weight on the
    # fast path or belongs to the deliberate fallback branch, which says so.
    "seqcst-store-reclaim": (("/tamp/reclaim/",), (), "seq_cst store on the "
                             "reclamation read side; the asymmetric-fence "
                             "protocol wants a release store (annotate "
                             "deliberate fallback branches)"),
    # Objects of the facade families are shared across threads, so each
    # mutable data member is synchronized (tamp::atomic), a plain field the
    # sim race detector checks (tamp::shared, tamp/sim/shared.hpp), or
    # const.  A bare scalar or pointer member is invisible to the checker;
    # a lock-guarded field kept plain on purpose takes the annotation and
    # names its lock.
    "plain-shared-member": (FACADE, (), "mutable plain member in a "
                            "facade-migrated family; use tamp::atomic, "
                            "tamp::shared (tamp/sim/shared.hpp), or const — "
                            "annotate lock-guarded fields, naming the lock"),
    # events.hpp is the one vocabulary of instrumentation points: a tag
    # minted in a structure header is invisible to anyone auditing what
    # the library can report.  The obs headers define the vocabulary and
    # take `Tag` template parameters.
    "obs-tag-registered": (("/src/tamp/",), ("/src/tamp/obs/",), "not "
                           "declared in src/tamp/obs/events.hpp; every "
                           "obs::ev tag must join the shared event "
                           "vocabulary there"),
    # A while loop whose condition reads an atomic (.load, .exchange,
    # .test, .test_and_set), or a do loop whose condition or body does,
    # with no SpinWait::spin, Backoff::backoff, cpu_relax, yield, wait or
    # park call in it: a pauseless spin hammers the line it waits on,
    # starving the writer it waits for (Herlihy & Shavit §7.4, App. B), and
    # hides the spin from the sim scheduler's spin-hint parking.  A CAS
    # retry loop re-attempts rather than re-reads, so it is exempt.
    "spin-needs-pause": (("/tamp/spin/", "/tamp/mutex/", "/tamp/queues/",
                          "/tamp/stacks/"), (), "spin-wait loop with no "
                         "pause; spin through SpinWait/Backoff (or "
                         "cpu_relax/yield) so the waiter stops hammering the "
                         "line and the sim scheduler sees the spin"),
    # Structures consume reclamation through the reclaim::domain concept
    # (tamp/reclaim/domain.hpp), which keeps them substrate-generic; an
    # include of a backend (epoch, hazard_pointers) hard-wires a scheme the
    # structure's user should pick.  The backends may include each other;
    # infrastructure that needs one backend takes the annotation.
    "direct-reclaim-include": (("/src/tamp/",), ("/src/tamp/reclaim/",),
                               "direct include of a concrete reclamation "
                               "backend; consume reclamation through the "
                               "reclaim::domain concept "
                               "(tamp/reclaim/domain.hpp) instead"),
}

WORD = r"[A-Za-z_][A-Za-z0-9_]*"
# A comment, or a string or char literal (its quote in group 1, its
# contents in group 2): what strip() blanks.
LITERAL_RE = re.compile(r"//[^\n]*|/\*[\s\S]*?(?:\*/|\Z)"
                        r"|([\"'])((?:(?!\1)[^\\]|\\[\s\S]?)*)\1?")
TOKEN_RE = re.compile(WORD + r"|[{};]")
OPEN_RE = re.compile(r"\s*\(")
SPACE_RE = re.compile(r"\s*")
ORDER_RE = re.compile(r"memory_order_(\w+)")
ALLOW_RE = re.compile(r"tamp-lint:\s*allow(-file)?\(([a-z\-, ]+)\)")
BACKEND_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s*[<"]tamp/reclaim/(?:epoch|hazard_pointers)\.hpp[>"]')
TAG_USE_RE = re.compile(r"\bev::(" + WORD + ")")
# A loop condition that reads an atomic: a spin-wait's signature.  A CAS
# does not match; its retry loop's pacing is the cas rules' business.
SPIN_COND_RE = re.compile(
    r"(?:\.|->)\s*(?:load|exchange|test|test_and_set)\s*\(")
SPIN_PAUSE_RE = re.compile(
    r"\b(?:spin|backoff|cpu_relax|pause|yield|wait|park)\w*\s*\(")
# What follows a std::atomic<...> member's template arguments.
MEMBER_DECL_RE = re.compile(r"\s*(" + WORD + r")\s*([;\[{=])")

# plain-shared-member: types already synchronized, checked or inert make a
# declaration exempt, as do these keywords; the scalar shapes it flags
# beyond pointers are arithmetic types, the payload parameter T and the
# NodeKind/Kind enum convention.
SYNCED_TYPE_RE = re.compile(
    r"tamp::atomic|tamp::shared|std::atomic|atomic_flag|AtomicMarkedPtr|"
    r"AtomicStampedIndex|std::mutex|std::condition_variable|std::vector|"
    r"std::array|std::unique_ptr|std::chrono|Padded<")
EXEMPT_KEYWORDS = {"const", "constexpr", "static", "using", "typedef",
                   "friend", "operator", "return", "template", "enum"}
PLAIN_SCALAR_RE = re.compile(
    r"(?:^|\s)(?:bool|char|short|int|long|float|double|unsigned|signed|"
    r"(?:std::)?size_t|(?:std::)?ptrdiff_t|(?:std::)?u?int(?:8|16|32|64)_t|"
    r"(?:std::)?u?intptr_t|T|[A-Za-z_][A-Za-z0-9_]*Kind|Kind)\s*$")
MEMBER_NAME_RE = re.compile(r"(" + WORD + r")\s*(?:\[[^\]]*\]\s*)?$")

PARTNER = {"(": ")", "{": "}", "<": ">", "}": "{"}
EVENT_TAGS = {}  # events.hpp path -> the tags it declares, or None


def strip(text):
    """Blank comments and literal contents, keeping newlines and quotes so
    that offsets and line numbers survive."""
    return LITERAL_RE.sub(
        lambda m: re.sub(r"[^\n]", " ", m[0]) if m[1] is None else
        m[1] + re.sub(r"[^\n]", " ", m[2]) + m[0][len(m[2]) + 1:], text)


def match(text, i):
    """Offset of the bracket paired with text[i]: the one closing a '(',
    '{' or '<', or the one opening a '}'.  Unpaired, the text's last offset
    when searching forward and -1 when searching back."""
    o, c = text[i], PARTNER[text[i]]
    step, depth = (-1 if o == "}" else 1), 0
    while 0 <= i < len(text):
        depth += (text[i] == o) - (text[i] == c)
        if depth == 0:
            return i
        i += step
    return min(i, len(text) - 1)


def event_tags(norm):
    """The tag structs declared in the obs/events.hpp of the src/tamp/ tree
    holding `norm` (so the self-test can fixture one), or None."""
    events = norm[:norm.rfind("/src/tamp/")] + "/src/tamp/obs/events.hpp"
    if events not in EVENT_TAGS:
        try:
            with open(events, encoding="utf-8") as f:
                EVENT_TAGS[events] = set(re.findall(
                    r"\bstruct\s+(" + WORD + r")\s*\{", strip(f.read())))
        except OSError:
            EVENT_TAGS[events] = None
    return EVENT_TAGS[events]


def spin_waits(text):
    """Offsets of the spin-wait loops with no pause in them."""
    for m in re.finditer(r"\bwhile\s*\(", text):
        cond_open, cond_close = m.end() - 1, match(text, m.end() - 1)
        cond = text[cond_open:cond_close + 1]
        if not SPIN_COND_RE.search(cond):
            continue
        # A `} while (...)` do-tail belongs to the do-loop pass below.
        before = text[:m.start()].rstrip()
        if before.endswith("}"):
            body_open = match(text, len(before) - 1)
            if body_open >= 0 and re.search(r"\bdo\s*$", text[:body_open]):
                continue
        k = SPACE_RE.match(text, cond_close + 1).end()
        if text[k:k + 1] == "{":
            region = text[cond_open:match(text, k) + 1]
        elif text[k:k + 1] in ("", ";"):
            region = cond  # empty body: nowhere to pause
        else:
            region = text[cond_open:text.find(";", k) + 1 or None]
        if not SPIN_PAUSE_RE.search(region):
            yield m.start()
    # A do loop re-runs its body each iteration, so an atomic read there
    # also makes it a spin-wait (MCS's wait for the successor link), unless
    # the condition is a CAS, which makes it a retry loop.
    for m in re.finditer(r"\bdo\s*\{", text):
        body_open, body_close = m.end() - 1, match(text, m.end() - 1)
        tail = re.compile(r"\s*while\s*\(").match(text, body_close + 1)
        if not tail:
            continue
        cond_close = match(text, tail.end() - 1)
        cond = text[tail.end() - 1:cond_close + 1]
        if ((SPIN_COND_RE.search(cond) or (
                SPIN_COND_RE.search(text[body_open:body_close + 1])
                and "compare_exchange" not in cond))
                and not SPIN_PAUSE_RE.search(
                    text[body_open:cond_close + 1])):
            yield m.start()


def plain_member_name(decl):
    """The name `decl` (one class-scope declaration, stripped, without its
    ';') declares if it is a mutable plain scalar or pointer data member,
    else None."""
    d = re.sub(r"\b(?:public|private|protected)\s*:", " ", decl)
    if ("(" in d or "&" in d  # a function, a constructor or a reference
            or set(re.findall(WORD, d)) & EXEMPT_KEYWORDS
            or SYNCED_TYPE_RE.search(d)):
        return None
    d = re.split(r"[={]", d, maxsplit=1)[0].strip()
    m = MEMBER_NAME_RE.search(d)
    type_text = d[:m.start()].strip() if m else ""
    if type_text and ("*" in type_text or PLAIN_SCALAR_RE.search(type_text)):
        return m[1]
    return None


def scan(text, raw_lines, line, live):
    """The findings, (line, rule, subject of the message), of the one pass
    over the tokens, in text order, then atomic-align's."""
    found = []
    scopes = []  # (kind, offset) of each open '{': loop, class or block
    conds = []  # [start, end) of each while/for condition
    members = {}  # class '{' offset -> [(line, name, exempt)] of its atomics
    pending = last = None  # the scope kind the next '{' opens; last word
    seg = 0  # start of the declaration under way
    for m in TOKEN_RE.finditer(text):
        tok, i, end = m[0], m.start(), m.end()
        if tok == "{":
            scopes.append((pending if pending in ("loop", "class")
                           else "block", i))
            pending, seg = None, end
            continue
        if tok == "}":
            if scopes:
                scopes.pop()
            seg = end
            continue
        if tok == ";":
            if ("plain-shared-member" in live and scopes
                    and scopes[-1][0] == "class"):
                decl = text[seg:i]
                name = plain_member_name(decl)
                if name is not None:
                    found.append((line(seg + decl.rfind(name)),
                                  "plain-shared-member",
                                  "member '%s' " % name))
            seg = end
            if pending == "class":  # `class Foo;` declares no scope
                pending = None
            continue
        if tok in ("while", "for"):
            # A `} while (...)` do-tail re-runs each iteration too.
            paren = OPEN_RE.match(text, end)
            if paren:
                conds.append((paren.end() - 1,
                              match(text, paren.end() - 1) + 1))
                pending = "loop"
        elif tok == "do":
            pending = "loop"
        elif tok in ("class", "struct", "union") and last != "enum":
            pending = "class"
        elif tok == "namespace":
            pending = "block"
        elif tok == "volatile":
            if last != "asm" and not OPEN_RE.match(text, end):
                found.append((line(i), "volatile-sync", ""))
        elif tok in ("compare_exchange_strong", "compare_exchange_weak"):
            if tok == "compare_exchange_strong" and (
                    any(kind == "loop" for kind, _ in scopes)
                    or any(a <= i < b for a, b in conds)):
                found.append((line(i), "cas-strong-loop", ""))
            j = text.find("(", end)
            if j != -1 and ORDER_RE.findall(
                    text, j, match(text, j) + 1)[:1] == ["relaxed"]:
                found.append((line(i), "cas-relaxed-success", ""))
        elif tok == "store" and i > 0 and text[i - 1] in ".>":
            paren = OPEN_RE.match(text, end)
            if paren and "seq_cst" in ORDER_RE.findall(
                    text, paren.end() - 1, match(text, paren.end() - 1) + 1):
                found.append((line(i), "seqcst-store-reclaim", ""))
        elif tok in ("atomic", "atomic_flag") and text[i - 5:i] == "std::":
            found.append((line(i), "raw-atomic", ""))
            # Only the members of a top-level (not nested) class count.
            classes = [o for kind, o in scopes if kind == "class"]
            if (tok == "atomic" and len(classes) == 1
                    and scopes[-1][0] == "class" and text[end:end + 1] == "<"):
                close = match(text, end)
                decl = MEMBER_DECL_RE.match(text[close + 1:close + 200])
                if decl:
                    n = line(i)
                    members.setdefault(classes[0], []).append(
                        (n, decl[1], decl[2] == "[" or any(
                            "alignas" in raw for raw in
                            raw_lines[max(n - 2, 0):n])))
        last = tok
    for atomics in members.values():
        if len(atomics) > 1:
            found += [(n, "atomic-align", "atomic member '%s' " % name)
                      for n, name, exempt in atomics if not exempt]
    return found


def lint_path(path):
    """The unsuppressed findings in one file: (path, line, rule, message)."""
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    norm = os.path.abspath(path).replace(os.sep, "/")
    live = {rule for rule, (must, never, _) in RULES.items()
            if (not must or any(frag in norm for frag in must))
            and not any(frag in norm for frag in never)}
    text, raw_lines = strip(raw), raw.splitlines()
    starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def line(i):
        return bisect.bisect_right(starts, i)

    # A pass whose rule is out of scope is skipped; the token pass checks
    # seven rules in one walk, and `live` drops its out-of-scope findings.
    found = []
    tags = event_tags(norm) if "obs-tag-registered" in live else None
    if tags is not None:
        found += [(line(m.start()), "obs-tag-registered",
                   "tag 'ev::%s' " % m[1])
                  for m in TAG_USE_RE.finditer(text) if m[1] not in tags]
    if "spin-needs-pause" in live:
        found += [(line(i), "spin-needs-pause", "") for i in spin_waits(text)]
    if "direct-reclaim-include" in live:
        found += [(n, "direct-reclaim-include", "")
                  for n, raw in enumerate(raw_lines, start=1)
                  if BACKEND_INCLUDE_RE.match(raw)]
    found += scan(text, raw_lines, line, live)
    # rule -> suppressed lines; 0 means the whole file.  A line's first
    # allow(...) and first allow-file(...) count.
    allowed = {}
    for n, raw in enumerate(raw_lines, start=1):
        for file_wide, names in dict(reversed(ALLOW_RE.findall(raw))).items():
            for rule in re.split(r"[,\s]+", names.strip()):
                allowed.setdefault(rule, set()).update(
                    (0,) if file_wide else (n, n + 1))
    return [(path, n, rule, subject + RULES[rule][2])
            for n, rule, subject in found
            if rule in live and not allowed.get(rule, set()) & {0, n}]


# Self-test fixtures: (relative path, source, expected {(line, rule)}).
# The relative path matters: rules are scoped by directory.
SELF_TEST_CASES = [
    # Written first on purpose: the obs-tag-registered fixtures below
    # resolve their events.hpp relative to their own src/tamp/ root, so
    # this file must already exist in the shared fixture directory.  The
    # file itself is in obs/ and therefore out of the rule's scope.
    ("src/tamp/obs/events.hpp",
     "namespace tamp::obs::ev {\n"
     "struct spin_acquires { static constexpr const char* n = \"a\"; };\n"
     "struct spin_acquire_ns { static constexpr const char* n = \"b\"; };\n"
     "struct kv_gets { static constexpr const char* n = \"c\"; };\n"
     "}\n",
     set()),

    # A tag declared in events.hpp: clean.
    ("src/tamp/spin/tag_ok.hpp",
     "#include \"tamp/obs/events.hpp\"\n"
     "inline void f() {\n"
     "    obs::counter<obs::ev::spin_acquires>::inc();\n"
     "    obs::scoped_timer<obs::ev::spin_acquire_ns> t;\n"
     "}\n",
     set()),

    # A tag minted ad hoc (not in events.hpp): one finding per use line.
    ("src/tamp/spin/tag_bad.hpp",
     "#include \"tamp/obs/events.hpp\"\n"
     "inline void f() {\n"
     "    obs::histogram<obs::ev::mystery_ns>::record(1);\n"
     "}\n",
     {(3, "obs-tag-registered")}),

    ("src/tamp/spin/raw.hpp",
     "#include <atomic>\n"
     "class L {\n"
     "    std::atomic<bool> state_{false};\n"
     "};\n",
     {(3, "raw-atomic")}),

    ("src/tamp/queues/raw_flag.hpp",
     "#include <atomic>\n"
     "class Q {\n"
     "    std::atomic_flag busy_ = ATOMIC_FLAG_INIT;\n"
     "};\n",
     {(3, "raw-atomic")}),

    ("src/tamp/spin/allowed.hpp",
     "#include <atomic>\n"
     "class L {\n"
     "    // tamp-lint: allow(raw-atomic)\n"
     "    std::atomic<bool> state_{false};\n"
     "};\n",
     set()),

    # Out of facade scope: core/ (and sim/ itself) may use std::atomic.
    ("src/tamp/core/ok.hpp",
     "#include <atomic>\n"
     "class C {\n"
     "    std::atomic<int> v_{0};\n"
     "};\n",
     set()),

    # The facade type is what the families are expected to use.
    ("src/tamp/stacks/facade.hpp",
     "#include \"tamp/sim/atomic.hpp\"\n"
     "class S {\n"
     "    tamp::atomic<int> top_{0};\n"
     "};\n",
     set()),

    # std::atomic in a *comment* must not fire.
    ("src/tamp/lists/comment.hpp",
     "// a std::atomic<int> mentioned in prose only\n"
     "class N {\n"
     "    tamp::atomic<int> x_{0};\n"
     "};\n",
     set()),

    ("src/tamp/core/cas.hpp",
     "#include <atomic>\n"
     "inline void f(std::atomic<int>& a) {\n"
     "    int e = 0;\n"
     "    while (!a.compare_exchange_strong(e, 1)) {\n"
     "    }\n"
     "    a.compare_exchange_weak(e, 2, std::memory_order_relaxed);\n"
     "}\n",
     {(4, "cas-strong-loop"), (6, "cas-relaxed-success")}),

    ("src/tamp/core/vol.hpp",
     "inline volatile int g = 0;\n",
     {(1, "volatile-sync")}),

    ("src/tamp/core/align.hpp",
     "#include <atomic>\n"
     "class P {\n"
     "    std::atomic<int> a_{0};\n"
     "    std::atomic<int> b_{0};\n"
     "};\n",
     {(3, "atomic-align"), (4, "atomic-align")}),

    # seq_cst store in reclaim/: fires on store, not on load.
    ("src/tamp/reclaim/pub.hpp",
     "#include <atomic>\n"
     "inline void pub(std::atomic<int>& slot, std::atomic<int>& src) {\n"
     "    slot.store(1, std::memory_order_seq_cst);\n"
     "    (void)src.load(std::memory_order_seq_cst);\n"
     "}\n",
     {(3, "seqcst-store-reclaim")}),

    # The annotated fallback branch is the sanctioned exception.
    ("src/tamp/reclaim/fallback.hpp",
     "#include <atomic>\n"
     "inline void pub(std::atomic<int>& slot) {\n"
     "    // tamp-lint: allow(seqcst-store-reclaim)\n"
     "    slot.store(1, std::memory_order_seq_cst);\n"
     "}\n",
     set()),

    # Release store in reclaim/ is the intended fast path: clean.
    ("src/tamp/reclaim/light.hpp",
     "#include <atomic>\n"
     "inline void pub(std::atomic<int>& slot) {\n"
     "    slot.store(1, std::memory_order_release);\n"
     "}\n",
     set()),

    # Outside reclaim/, seq_cst stores are not this rule's business.
    ("src/tamp/core/seqcst_ok.hpp",
     "#include <atomic>\n"
     "inline void pub(std::atomic<int>& flag) {\n"
     "    flag.store(1, std::memory_order_seq_cst);\n"
     "}\n",
     set()),

    # Plain scalar and pointer members in a facade family: both fire,
    # including inside a nested node struct.
    ("src/tamp/stacks/plain.hpp",
     "class S {\n"
     "    struct Node {\n"
     "        int value;\n"
     "        Node* next;\n"
     "    };\n"
     "    std::size_t used_ = 0;\n"
     "};\n",
     {(3, "plain-shared-member"), (4, "plain-shared-member"),
      (6, "plain-shared-member")}),

    # The sanctioned forms: tamp::shared, tamp::atomic, const, containers,
    # mutexes — all clean.
    ("src/tamp/lists/clean.hpp",
     "#include \"tamp/sim/shared.hpp\"\n"
     "class L {\n"
     "    struct Node {\n"
     "        const int key;\n"
     "        tamp::shared<int> value{};\n"
     "        tamp::atomic<Node*> next{nullptr};\n"
     "    };\n"
     "    std::mutex mu_;\n"
     "    std::vector<int> slots_;\n"
     "    Node* const head_ = nullptr;\n"
     "    void step() { int local = 0; local++; }\n"
     "};\n",
     set()),

    # The annotated escape hatch: a lock-guarded plain field may stay
    # plain when the comment names its guard.
    ("src/tamp/queues/guarded.hpp",
     "class Q {\n"
     "    std::mutex mu_;  // guards tail_\n"
     "    Node* tail_;  // tamp-lint: allow(plain-shared-member)\n"
     "};\n",
     set()),

    # Out of facade scope: plain members elsewhere are fine.
    ("src/tamp/core/plain_ok.hpp",
     "class C {\n"
     "    int v_ = 0;\n"
     "    Node* n_ = nullptr;\n"
     "};\n",
     set()),

    # Pauseless spin-waits: braced-empty body, statement body without a
    # pause, empty-statement body, and a do-while — all fire.
    ("src/tamp/spin/hot.hpp",
     "inline void f(tamp::atomic<bool>& flag, tamp::atomic<int>& v) {\n"
     "    while (flag.exchange(true)) {\n"
     "    }\n"
     "    while (v.load() != 0) ++v;\n"
     "    while (flag.load());\n"
     "    do {\n"
     "        ++v;\n"
     "    } while (v.load() < 8);\n"
     "}\n",
     {(2, "spin-needs-pause"), (4, "spin-needs-pause"),
      (5, "spin-needs-pause"), (6, "spin-needs-pause")}),

    # The sanctioned shapes: SpinWait, Backoff, cpu_relax, yield — clean.
    ("src/tamp/spin/paused.hpp",
     "inline void f(tamp::atomic<bool>& flag, tamp::atomic<int>& v) {\n"
     "    tamp::SpinWait w;\n"
     "    while (flag.exchange(true)) w.spin();\n"
     "    tamp::Backoff b;\n"
     "    while (v.load() != 0) {\n"
     "        b.backoff();\n"
     "    }\n"
     "    while (flag.load()) cpu_relax();\n"
     "    do {\n"
     "        std::this_thread::yield();\n"
     "    } while (v.load() < 8);\n"
     "}\n",
     set()),

    # A CAS retry loop is not a spin-wait: it re-attempts an update, it
    # does not blindly re-read a line.  (weak + default orders: the cas
    # rules stay quiet too.)
    ("src/tamp/stacks/cas_retry.hpp",
     "inline void push(tamp::atomic<int>& top) {\n"
     "    int e = top.load();\n"
     "    while (!top.compare_exchange_weak(e, e + 1)) {\n"
     "    }\n"
     "}\n",
     set()),

    # A do-loop spin-waits even when the atomic read sits in the body
    # (MCS wait-for-link); the Treiber-style do { load } while (CAS)
    # retry shape stays exempt.
    ("src/tamp/queues/do_body_load.hpp",
     "inline void f(tamp::atomic<int*>& next, tamp::atomic<int*>& top) {\n"
     "    int* succ = nullptr;\n"
     "    do {\n"
     "        succ = next.load();\n"
     "    } while (succ == nullptr);\n"
     "    int* e = nullptr;\n"
     "    do {\n"
     "        e = top.load();\n"
     "    } while (!top.compare_exchange_weak(e, succ));\n"
     "}\n",
     {(3, "spin-needs-pause")}),

    # `} while (...)` after an if-block is a fresh while, not a do-tail.
    ("src/tamp/mutex/block_then_while.hpp",
     "inline void f(tamp::atomic<bool>& flag, int x) {\n"
     "    if (x) {\n"
     "        ++x;\n"
     "    }\n"
     "    while (flag.load()) {\n"
     "    }\n"
     "}\n",
     {(5, "spin-needs-pause")}),

    # The escape hatch, for loops that are pauseless on purpose (e.g. the
    # two-step MCS unlock window where the successor link is imminent).
    ("src/tamp/queues/allowed_spin.hpp",
     "inline void f(tamp::atomic<bool>& flag) {\n"
     "    // tamp-lint: allow(spin-needs-pause)\n"
     "    while (flag.load()) {\n"
     "    }\n"
     "}\n",
     set()),

    # Out of scope: spin loops elsewhere (core/, sim/, ...) are not this
    # rule's business.
    ("src/tamp/core/spin_ok.hpp",
     "inline void f(tamp::atomic<bool>& flag) {\n"
     "    while (flag.load()) {\n"
     "    }\n"
     "}\n",
     set()),

    # A structure header hard-wiring a concrete backend: one finding per
    # backend include; the concept header stays clean.
    ("src/tamp/lists/hardwired.hpp",
     "#include \"tamp/reclaim/epoch.hpp\"\n"
     "#include \"tamp/reclaim/hazard_pointers.hpp\"\n"
     "#include \"tamp/reclaim/domain.hpp\"\n"
     "#include \"tamp/reclaim/asym_fence.hpp\"\n",
     {(1, "direct-reclaim-include"), (2, "direct-reclaim-include")}),

    # Inside reclaim/ the backends may include each other freely.
    ("src/tamp/reclaim/internal.hpp",
     "#include \"tamp/reclaim/epoch.hpp\"\n"
     "#include \"tamp/reclaim/hazard_pointers.hpp\"\n",
     set()),

    # A backend include mentioned in a comment must not fire; the angle-
    # bracket form must.
    ("src/tamp/queues/comment_include.hpp",
     "// #include \"tamp/reclaim/epoch.hpp\" — prose only\n"
     "#include <tamp/reclaim/hazard_pointers.hpp>\n",
     {(2, "direct-reclaim-include")}),

    # The escape hatch, for infrastructure that genuinely needs one
    # backend.
    ("src/tamp/obs/backend_probe.hpp",
     "// tamp-lint: allow(direct-reclaim-include)\n"
     "#include \"tamp/reclaim/epoch.hpp\"\n",
     set()),

    # ---- kv/ is a facade family too: the facade
    # rules fire there like in any migrated family ---------------------
    ("src/tamp/kv/raw_and_plain.hpp",
     "#include <atomic>\n"
     "class M {\n"
     "    struct Node {\n"
     "        std::uint64_t so_key;\n"
     "        Node* next;\n"
     "    };\n"
     "    std::atomic<std::uint64_t> gate_{0};\n"
     "};\n",
     {(4, "plain-shared-member"), (5, "plain-shared-member"),
      (7, "raw-atomic")}),

    # The shapes the real kv headers use: const keys, tamp::atomic
    # values, marked pointers, owning containers — all clean.
    ("src/tamp/kv/clean.hpp",
     "#include \"tamp/sim/atomic.hpp\"\n"
     "class M {\n"
     "    struct Node {\n"
     "        const std::uint64_t so_key;\n"
     "        tamp::atomic<int> value;\n"
     "        AtomicMarkedPtr<Node> next;\n"
     "    };\n"
     "    const std::size_t max_load_;\n"
     "    Node* const head_ = nullptr;\n"
     "    tamp::atomic<std::uint64_t> gate_{0};\n"
     "    std::vector<int> shards_;\n"
     "};\n",
     set()),

    # kv consumes reclamation through the domain concept only.
    ("src/tamp/kv/hardwired.hpp",
     "#include \"tamp/reclaim/epoch.hpp\"\n"
     "#include \"tamp/reclaim/domain.hpp\"\n",
     {(1, "direct-reclaim-include")}),

    # kv telemetry tags must live in the shared events.hpp vocabulary.
    ("src/tamp/kv/tags.hpp",
     "#include \"tamp/obs/events.hpp\"\n"
     "inline void f() {\n"
     "    obs::counter<obs::ev::kv_gets>::inc();\n"
     "    obs::counter<obs::ev::kv_adhoc>::inc();\n"
     "}\n",
     {(4, "obs-tag-registered")}),

    # `asm volatile` is a compiler barrier, not a volatile object; a
    # volatile cast on the next line still fires.
    ("src/tamp/core/asm_volatile.hpp",
     "inline void f(int& x) {\n"
     "    asm volatile(\"\" ::: \"memory\");\n"
     "    (volatile int&)x = 1;\n"
     "}\n",
     {(3, "volatile-sync")}),

    # `enum class` opens no class scope: the struct after it is still a
    # top-level class, so both unpadded members fire.
    ("src/tamp/core/enum_then_struct.hpp",
     "#include <atomic>\n"
     "enum class Kind { kA, kB };\n"
     "struct P {\n"
     "    std::atomic<int> a_{0};\n"
     "    std::atomic<int> b_{0};\n"
     "};\n",
     {(4, "atomic-align"), (5, "atomic-align")}),

    # The atomic-align exemptions: alignas on the line above or on the
    # member's own line, an array member, the members of a nested struct,
    # and a class with a single atomic member.
    ("src/tamp/core/align_exempt.hpp",
     "#include <atomic>\n"
     "class A {\n"
     "    alignas(64)\n"
     "    std::atomic<int> a_{0};\n"
     "    alignas(64) std::atomic<int> b_{0};\n"
     "    int pad_ = 0;\n"
     "    std::atomic<int> slots_[4];\n"
     "    struct Node {\n"
     "        std::atomic<int> x;\n"
     "        std::atomic<int> y;\n"
     "    };\n"
     "};\n"
     "class B {\n"
     "    std::atomic<int> only_{0};\n"
     "};\n",
     set()),

    # compare_exchange_strong outside any loop is fine; inside a braced
    # for body it fires.
    ("src/tamp/core/cas_for.hpp",
     "#include <atomic>\n"
     "inline void f(std::atomic<int>& a) {\n"
     "    int e = 0;\n"
     "    a.compare_exchange_strong(e, 1);\n"
     "    for (int i = 0; i < 2; ++i) {\n"
     "        a.compare_exchange_strong(e, i);\n"
     "    }\n"
     "}\n",
     {(6, "cas-strong-loop")}),

    # A seq_cst store through a pointer fires under reclaim/ too.
    ("src/tamp/reclaim/arrow.hpp",
     "#include <atomic>\n"
     "inline void pub(std::atomic<int>* slot) {\n"
     "    slot->store(1, std::memory_order_seq_cst);\n"
     "}\n",
     {(3, "seqcst-store-reclaim")}),

    # The file-wide hatch silences a rule for the whole file.
    ("src/tamp/core/allow_file.hpp",
     "// tamp-lint: allow-file(atomic-align)\n"
     "#include <atomic>\n"
     "class P {\n"
     "    std::atomic<int> a_{0};\n"
     "    std::atomic<int> b_{0};\n"
     "};\n",
     set()),

    # One allow names two rules, and covers its own line and the next
    # only: the member after that still draws both.
    ("src/tamp/spin/allow_two.hpp",
     "#include <atomic>\n"
     "class L {\n"
     "    // tamp-lint: allow(raw-atomic, atomic-align)\n"
     "    std::atomic<int> a_{0};\n"
     "    std::atomic<int> b_{0};\n"
     "};\n",
     {(5, "raw-atomic"), (5, "atomic-align")}),

    # A src/tamp/ tree without an obs/events.hpp has no vocabulary to
    # check its tags against, so obs-tag-registered stays quiet.
    ("other/src/tamp/spin/untracked.hpp",
     "inline void f() {\n"
     "    obs::counter<obs::ev::anything>::inc();\n"
     "}\n",
     set()),
]


def self_test():
    import tempfile

    failures = []
    with tempfile.TemporaryDirectory() as td:
        for relpath, source, expected in SELF_TEST_CASES:
            path = os.path.join(td, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(source)
            got = {(line, rule) for _, line, rule, _ in lint_path(path)}
            if got != expected:
                failures.append((relpath, sorted(expected), sorted(got)))
    for relpath, expected, got in failures:
        print("self-test FAIL %s\n  expected: %s\n  got:      %s"
              % (relpath, expected, got), file=sys.stderr)
    if failures:
        return 1
    print("lint_atomics: self-test OK (%d fixtures)" % len(SELF_TEST_CASES))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
        epilog="rules:\n"
        + "\n".join("  %-22s %s" % (rule, RULES[rule][2])
                    for rule in sorted(RULES)))
    ap.add_argument("--root", action="append", default=[],
                    help="directory to scan recursively (repeatable); "
                         "default: src/ next to this script")
    ap.add_argument("--self-test", action="store_true",
                    help="run the linter over its built-in fixtures")
    args = ap.parse_args()
    if args.self_test:
        return self_test()

    files = []
    for root in args.root or [os.path.join(
            os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")]:
        if not os.path.isdir(root):
            print("lint_atomics: no such directory: %s" % root,
                  file=sys.stderr)
            return 2
        for dirpath, _, names in os.walk(root):
            files += [os.path.join(dirpath, name) for name in names
                      if name.endswith((".hpp", ".cpp", ".h", ".cc"))]

    findings = [f for path in sorted(files) for f in lint_path(path)]
    for path, line, rule, msg in findings:
        print("%s:%d: [%s] %s" % (os.path.relpath(path), line, rule, msg))
    if findings:
        print("\nlint_atomics: %d finding(s) in %d file(s) scanned"
              % (len(findings), len(files)), file=sys.stderr)
        return 1
    print("lint_atomics: clean (%d files scanned)" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
