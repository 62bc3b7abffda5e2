"""In-process loopback stand-in for a chat-completions endpoint.

One server thread answers every request. A code reply is one fenced module
derived only from the seed, the module text in the prompt and how many times
that module was asked about since the last ``reset``. So a run's replies are
fixed by the seed and the run's own request sequence, and a repeated prompt
still gets a fresh reply (the proposer asks again when a reply duplicates a
candidate).

The first reply after ``reset`` (one per run) has no code block, so the
client rejects it and the proposer fills that slot from its rule catalog;
the rule path, the quality it reaches and the number of filled slots are
then the same under every seed. Of the other replies about half are
equivalent reassociations or commutations of one operator node and half
are single-operator swaps or constant mutations, which SEC must reject.
The stub parses the printer's fully parenthesised output with its own
small parser and never imports the program.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

_MODULE_RE = re.compile(r"Module source:\n(.*?endmodule\n?)", re.DOTALL)
_TOKEN_RE = re.compile(r"\s*(\d+'d\d+|[A-Za-z_][A-Za-z0-9_]*|<<|>>|==|\d+|[()\[\]?:~&|^+\-<])")
_DECL_RE = re.compile(r"\b(?:input|output|wire|reg)\s+(?:\[(\d+):0\]\s*)?([A-Za-z_]\w*)")
_STMT_RE = re.compile(r"^(\s*(?:assign\s+\w+\s*=|\w+\s*<=)\s*)(.*);\s*$")

NO_CODE_REPLY = "This module is already well balanced; I have no rewrite."

_ASSOCIATIVE = {"+", "&", "|", "^"}
_SWAP = {"+": "-", "-": "+", "&": "|", "|": "&", "^": "&", "==": "<", "<": "=="}


class _Node:
    """``kind`` is atom, not, slice, mux or bin; ``kids`` are child nodes."""

    __slots__ = ("kind", "text", "kids")

    def __init__(self, kind: str, text: str = "", kids: list | None = None):
        self.kind = kind
        self.text = text
        self.kids = kids or []

    def render(self) -> str:
        if self.kind == "atom":
            return self.text
        if self.kind == "not":
            return f"~{self.kids[0].render()}"
        if self.kind == "slice":
            inner = self.kids[0].render()
            if self.kids[0].kind not in ("atom", "slice"):
                inner = f"({inner})"
            return f"{inner}{self.text}"
        if self.kind == "mux":
            c, a, b = (k.render() for k in self.kids)
            return f"({c} ? {a} : {b})"
        a, b = self.kids
        return f"({a.render()} {self.text} {b.render()})"

    def walk(self):
        yield self
        for kid in self.kids:
            yield from kid.walk()


def _parse_expr(text: str) -> _Node:
    tokens = _TOKEN_RE.findall(text)
    pos = 0

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def primary() -> _Node:
        tok = take()
        if tok == "~":
            node = _Node("not", kids=[primary()])
        elif tok == "(":
            first = primary()
            if tokens[pos] == "?":
                take()
                a = primary()
                take()  # ':'
                node = _Node("mux", kids=[first, a, primary()])
            elif tokens[pos] == ")":
                node = first
            else:
                node = _Node("bin", take(), [first, primary()])
            take()  # ')'
        else:
            node = _Node("atom", tok)
        while pos < len(tokens) and tokens[pos] == "[":
            sl = "".join(take() for _ in range(5))  # [ m : l ]
            node = _Node("slice", sl, [node])
        return node

    return primary()


def _widths(module: str) -> dict[str, int]:
    return {name: int(msb) + 1 if msb else 1 for msb, name in _DECL_RE.findall(module)}


def _mutate(root: _Node, rng: random.Random, widths: dict[str, int]) -> bool:
    """Apply one edit in place; False when the expression offers none."""
    bins = [n for n in root.walk() if n.kind == "bin"]
    roll = rng.random()
    if roll < 0.25:
        swappable = [n for n in bins if n.text in _SWAP]
        if swappable:
            node = rng.choice(swappable)
            node.text = _SWAP[node.text]
            return True
    elif roll < 0.5:
        leaves = [n for n in root.walk() if n.kind == "atom" and n.text in widths]
        if leaves:
            node = rng.choice(leaves)
            width = widths[node.text]
            node.text = f"{width}'d{rng.randrange(1 << width)}"
            return True
    rotatable = [n for n in bins if n.text in _ASSOCIATIVE
                 and n.kids[0].kind == "bin" and n.kids[0].text == n.text]
    if rotatable:
        node = rng.choice(rotatable)  # ((a op b) op c) -> (a op (b op c))
        (a, b), c = node.kids[0].kids, node.kids[1]
        node.kids = [a, _Node("bin", node.text, [b, c])]
        return True
    commutable = [n for n in bins if n.text in _ASSOCIATIVE]
    if commutable:
        node = rng.choice(commutable)
        node.kids.reverse()
        return True
    return False


def reply_for(module: str, seed: int, nth: int) -> str:
    """The stub's answer for the ``nth`` request about ``module``."""
    digest = hashlib.sha256(f"{seed}:{nth}:{module}".encode()).hexdigest()
    rng = random.Random(digest)
    widths = _widths(module)
    lines = module.splitlines()
    stmts = [i for i, line in enumerate(lines) if _STMT_RE.match(line)]
    for i in rng.sample(stmts, len(stmts)):
        head, expr = _STMT_RE.match(lines[i]).groups()
        root = _parse_expr(expr)
        if _mutate(root, rng, widths):
            lines[i] = f"{head}{root.render()};"
            break
    return "Here is the rewrite.\n```verilog\n" + "\n".join(lines) + "\n```\n"


class LlmStub:
    """Serve replies on 127.0.0.1 from one thread until ``close``."""

    def __init__(self, seed: int):
        self.seed = seed
        self._asked: dict[str, int] = {}
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server API
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                payload = json.dumps({"choices": [{"message": {
                    "content": stub.answer(body)}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}"

    def answer(self, body: dict) -> str:
        module = _MODULE_RE.search(body["messages"][-1]["content"]).group(1)
        first = not self._asked
        nth = self._asked.get(module, 0)
        self._asked[module] = nth + 1
        if first:
            return NO_CODE_REPLY
        return reply_for(module, self.seed, nth)

    def reset(self):
        """Forget earlier prompts so the next run sees the same replies."""
        self._asked.clear()

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
