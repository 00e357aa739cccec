#!/usr/bin/env python3
"""Public-API documentation audit for the sweep-surface headers.

Walks the audited headers and reports every *public* symbol (type,
member function, data member, enumerator, alias) that carries neither a
preceding `///` Doxygen block nor a trailing `///<` comment.  CI runs
this as the hard gate of the docs job — the full Doxygen build is
advisory (warn-only), this script is not.

The parser is a deliberately small line-based state machine tuned to
this repo's clang-format style (it is NOT a general C++ parser):

  - scopes open with a `{` at the end of a declaration and close with a
    line starting `}`;
  - inline function bodies are skipped by brace counting;
  - `private:`/`protected:` sections, friend declarations, forward
    declarations and `= default`/`= delete` members are exempt.

Usage:  python3 tools/docs_audit.py [header...]
Exit status is the number of undocumented public symbols (0 = clean).
"""

import re
import sys

DEFAULT_HEADERS = [
    "src/sta/sweep.hpp",
    "src/sta/scengen.hpp",
    "src/interconnect/coupled.hpp",
    "src/sta/ids.hpp",
    "src/sta/service.hpp",
    "src/sta/edits.hpp",
    "src/sta/macromodel.hpp",
    "src/sta/hiergraph.hpp",
    "src/wave/kernels.hpp",
    "src/util/thread_pool.hpp",
]

DOC_LINE = re.compile(r"^///(?!<)")
ACCESS = re.compile(r"^(public|private|protected)\s*:")
OPEN_SCOPE = re.compile(
    r"^(?:template\s*<[^>]*>\s*)?"
    r"(?P<kind>namespace|class|struct|enum(?:\s+(?:class|struct))?)\b"
    r"\s*(?P<name>[A-Za-z_][\w:]*)?"
)
FORWARD_DECL = re.compile(r"^(?:class|struct|enum(?:\s+class)?)\s+[A-Za-z_]\w*$")
EXEMPT = re.compile(r"(\bfriend\b|= *default\b|= *delete\b|\bstatic_assert\b)")


class Scope:
    def __init__(self, kind, access, visible):
        self.kind = kind  # "namespace" | "class" | "enum"
        self.access = access  # current access inside the scope
        self.visible = visible  # the scope itself is public API


def base_kind(kind):
    if kind == "namespace":
        return "namespace"
    if kind.startswith("enum"):
        return "enum"
    return "class"


def audit_file(path, findings):
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()

    stack = []  # Scope
    depth = 0  # brace depth of open scopes + skipped bodies
    body_until = None  # skip lines until depth returns to this value
    doc = False  # a /// block immediately precedes the next symbol
    decl = None  # accumulating declaration: [lineno, text, documented]

    def public_here():
        if not stack:
            return True
        top = stack[-1]
        if top.kind == "namespace":
            return top.visible
        return top.visible and top.access == "public"

    def flag(lineno, head):
        findings.append((path, lineno, re.sub(r"\s+", " ", head.strip())[:72]))

    def check(lineno, head, documented, is_definition=False):
        head = head.strip()
        if not head or EXEMPT.search(head):
            return
        if not is_definition and FORWARD_DECL.match(head):
            return
        if head.startswith("using namespace"):
            return
        if not documented:
            flag(lineno, head)

    for lineno, raw in enumerate(lines, 1):
        stripped = raw.strip()

        if body_until is not None:
            depth += stripped.count("{") - stripped.count("}")
            if depth <= body_until:
                body_until = None
            continue

        if not stripped:
            if decl is None:
                doc = False
            continue
        if stripped.startswith("//"):
            if DOC_LINE.match(stripped):
                doc = True
            continue
        if stripped.startswith("#"):
            doc = False
            continue

        m = ACCESS.match(stripped)
        if m and stack and stack[-1].kind == "class":
            stack[-1].access = m.group(1)
            doc = False
            continue

        if stripped.startswith("}"):
            if stack:
                stack.pop()
            depth = max(depth - 1, 0)
            doc = False
            decl = None
            continue

        # Enumerators: one per line inside an enum scope.
        if stack and stack[-1].kind == "enum":
            if public_here() and "///<" not in stripped and not doc:
                flag(lineno, stripped.rstrip(","))
            doc = False
            continue

        if decl is None:
            decl = [lineno, "", doc]
        doc = False
        decl[1] += " " + stripped
        text = decl[1]
        semi = text.find(";")
        brace = text.find("{")
        if semi == -1 and brace == -1:
            continue  # declaration continues on the next line

        documented = decl[2] or "///<" in text
        if brace != -1 and (semi == -1 or brace < semi):
            head = text[:brace]
            m = OPEN_SCOPE.match(head.strip())
            if m:  # opens a type or namespace scope
                kind = base_kind(m.group("kind"))
                if kind != "namespace" and public_here():
                    check(decl[0], head, documented, is_definition=True)
                stack.append(
                    Scope(
                        kind,
                        "private" if m.group("kind") == "class" else "public",
                        public_here(),
                    )
                )
                depth += 1
            else:  # inline function body (or brace initializer)
                if public_here():
                    check(decl[0], head, documented)
                opens = text.count("{") - text.count("}")
                if opens > 0:
                    body_until = depth
                    depth += opens
        else:
            if public_here():
                check(decl[0], text[:semi], documented)
        decl = None

    return findings


def main(argv):
    headers = argv[1:] or DEFAULT_HEADERS
    findings = []
    for path in headers:
        audit_file(path, findings)
    for path, lineno, head in findings:
        print(f"{path}:{lineno}: undocumented public symbol: {head}")
    if findings:
        print(f"\n{len(findings)} undocumented public symbol(s). "
              "Every public type/member of the audited headers needs a /// "
              "Doxygen comment (or ///< for data members).")
    else:
        print(f"docs audit clean: {', '.join(headers)}")
    return min(len(findings), 99)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
