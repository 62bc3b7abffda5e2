"""Chat-completion client for LLM-authored rewrites.

The output contract is strict: exactly one fenced code block containing a
complete module with the parent's port interface. Anything else is retried
up to the configured limit and then dropped, letting the proposer fall
back to a rule-based slot; a failed LLM never aborts a run. Every attempt
is appended to one transcript log, one JSON line each, so stub-based
contract tests can replay them.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import urllib.request
from dataclasses import dataclass

from .dsl import RtlDesign, RtlError, parse, print_design
from .proposer import Proposal, LlmSettings, PROVENANCE_LLM
from .skills import SkillLibrary, match
from .timing import BottleneckDiagnosis

_FENCE_RE = re.compile(r"```[a-zA-Z]*\n(.*?)```", re.DOTALL)

TRANSCRIPT_LOG = "transcripts.jsonl"

SYSTEM_DIRECTIVE = (
    "You optimize the timing of small RTL modules. Reply with exactly one "
    "fenced code block containing a complete rewritten module. Keep the "
    "module name and port list identical and preserve cycle-level behavior, "
    "including pipeline latency."
)


def _reply_text(body) -> str:
    """The string at ``choices[0].message.content``; ValueError for a body of
    any other shape."""
    try:
        text = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise ValueError("reply has no choices[0].message.content") from None
    if not isinstance(text, str):
        raise ValueError(f"reply content is {type(text).__name__}, not a string")
    return text


@dataclass
class Transcript:
    request: dict
    response_text: str | None
    outcome: str


class LlmClient:
    def __init__(self, settings: LlmSettings, transcript_dir: str | None = None):
        self.settings = settings
        self.transcript_dir = transcript_dir
        self.transcripts: list[Transcript] = []
        # One opener per client: it reads the proxy addresses from the
        # environment now, where urlopen's process-wide opener keeps those
        # of the first request in the process.
        self._opener = urllib.request.build_opener()

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.settings.credential_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _prompt(self, parent: RtlDesign, diagnosis: BottleneckDiagnosis | None,
                library: SkillLibrary) -> list[dict]:
        lines = [f"Module source:\n{print_design(parent)}"]
        if diagnosis is not None:
            lines.append(
                f"Critical path: {diagnosis.path.startpoint} -> "
                f"{diagnosis.path.endpoint}, slack {diagnosis.path.slack_ns:.3f} ns. "
                f"Root cause: {diagnosis.root_cause} ({diagnosis.evidence}).")
            prohibitions = match(diagnosis.pattern, library).prohibitions
            if prohibitions:
                avoid = ", ".join(s.strategy for s in prohibitions)
                lines.append(f"Do not attempt these known-bad strategies: {avoid}.")
        lines.append("Rewrite the module to shorten the critical path.")
        return [
            {"role": "system", "content": SYSTEM_DIRECTIVE},
            {"role": "user", "content": "\n\n".join(lines)},
        ]

    def _record(self, transcript: Transcript):
        """Keep the attempt and append it to ``transcript_dir``'s log, which
        the client's first record creates afresh."""
        self.transcripts.append(transcript)
        if self.transcript_dir:
            first = len(self.transcripts) == 1
            if first:
                os.makedirs(self.transcript_dir, exist_ok=True)
            with open(os.path.join(self.transcript_dir, TRANSCRIPT_LOG),
                      "w" if first else "a") as fh:
                fh.write(json.dumps({"request": transcript.request,
                                     "response": transcript.response_text,
                                     "outcome": transcript.outcome},
                                    sort_keys=True, separators=(",", ":")) + "\n")

    def _extract_module(self, text: str, parent: RtlDesign) -> RtlDesign:
        blocks = _FENCE_RE.findall(text)
        if len(blocks) != 1:
            raise ValueError(f"response contains {len(blocks)} fenced code blocks, "
                             "expected exactly one")
        design = parse(blocks[0], filename=parent.filename)
        if design.port_signature() != parent.port_signature():
            raise ValueError("rewritten module changes the port interface")
        # The canonical text is what gets stored, synthesized and diagnosed,
        # so line regions found on a promoted reply match its stored lines. A
        # reply that already was canonical parses back to the same design.
        return parse(print_design(design), filename=parent.filename)

    def propose(self, parent: RtlDesign, diagnosis: BottleneckDiagnosis | None,
                library: SkillLibrary) -> Proposal | None:
        """One structured request; returns None after retries are exhausted."""
        messages = self._prompt(parent, diagnosis, library)
        payload = {"model": self.settings.model, "messages": messages}
        url = self.settings.base_url.rstrip("/") + "/chat/completions"
        for attempt in range(self.settings.max_retries + 1):
            text = None
            try:
                request = urllib.request.Request(url, json.dumps(payload).encode(),
                                                 self._headers(), method="POST")
                with self._opener.open(request, timeout=self.settings.timeout_s) as response:
                    body = json.loads(response.read())
                text = _reply_text(body)
                design = self._extract_module(text, parent)
            # OSError covers refused or dropped connections, timeouts and
            # statuses >= 400 (HTTPError); HTTPException a truncated body.
            except (OSError, http.client.HTTPException, ValueError, RtlError) as exc:
                self._record(Transcript(payload, text, f"attempt {attempt}: {exc}"))
                continue
            self._record(Transcript(payload, text, "accepted"))
            return Proposal(design, PROVENANCE_LLM, None, diagnosis,
                            rationale=f"llm rewrite ({self.settings.model})")
        return None
