"""LLM contract path against a local stub endpoint. No live network."""

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from corpus import CHAIN_ADDER_8
from rtlopt.dsl import parse, print_design
from rtlopt.llm import LlmClient
from rtlopt.proposer import LlmSettings, ProposerConfig, propose_group
from rtlopt.skills import SkillLibrary

REBALANCED = """\
module chain(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d, output [7:0] y);
  assign y = (a + b) + (c + d);
endmodule
"""

# Valid but not canonical: a comment, a blank line and free spacing.
COMMENTED = """\
// rebalanced by hand

module chain(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d, output [7:0] y);
  wire [7:0] s;
  assign s = c+d;
  assign y = (a + b) + s;
endmodule
"""

BAD_PORTS = REBALANCED.replace("output [7:0] y", "output [7:0] out").replace(
    "assign y", "assign out")


def _chat_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


def _send(handler, payload, status=200, length=None):
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(payload) if length is None else length))
    handler.end_headers()
    handler.wfile.write(payload)


class _StubHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of replies, in order. A reply is a response
    payload, or a function that answers through the handler itself."""

    script = []
    received = []

    def do_POST(self):  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).received.append((self.path, dict(self.headers), body))
        reply = self.script.pop(0) if self.script else _chat_body("no more")
        if callable(reply):
            reply(self)
        else:
            _send(self, reply)

    def log_message(self, *args):
        pass


class _ProxyHandler(_StubHandler):
    """A second endpoint with its own record, standing in for a proxy."""

    script = []
    received = []


def _serve(handler):
    server = HTTPServer(("127.0.0.1", 0), handler)
    handler.script = []
    handler.received = []
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join()
    server.server_close()


@pytest.fixture
def stub_server():
    yield from _serve(_StubHandler)


@pytest.fixture
def proxy_server():
    yield from _serve(_ProxyHandler)


def _client(base_url, transcript_dir=None, max_retries=2):
    return LlmClient(LlmSettings(base_url=base_url, model="stub-model",
                                 max_retries=max_retries),
                     transcript_dir=transcript_dir)


def test_valid_response_becomes_proposal(stub_server, tmp_path):
    _StubHandler.script = [_chat_body(f"Here you go:\n```verilog\n{REBALANCED}```\n")]
    client = _client(stub_server, transcript_dir=str(tmp_path / "transcripts"))
    parent = parse(CHAIN_ADDER_8)
    proposal = client.propose(parent, None, SkillLibrary())
    assert proposal is not None
    assert proposal.provenance == "llm"
    assert proposal.design.port_signature() == parent.port_signature()
    path, headers, body = _StubHandler.received[0]
    assert path.endswith("/chat/completions")
    assert body["model"] == "stub-model"
    assert os.listdir(str(tmp_path / "transcripts")) == ["transcripts.jsonl"]
    line = (tmp_path / "transcripts" / "transcripts.jsonl").read_text()
    record = json.loads(line)
    assert record["outcome"] == "accepted" and record["request"] == body
    # One compact line with sorted keys.
    assert line == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def test_transcript_log_has_one_line_per_attempt(stub_server, tmp_path):
    """Every attempt, failed ones too, appends one line to one log, which the
    client's first record creates afresh."""
    log = tmp_path / "transcripts.jsonl"
    log.write_text("an earlier client's log\n")
    _StubHandler.script = [_chat_body("prose"), _chat_body(f"```\n{BAD_PORTS}```"),
                           _chat_body(f"```\n{REBALANCED}```")]
    client = _client(stub_server, transcript_dir=str(tmp_path), max_retries=2)
    assert client.propose(parse(CHAIN_ADDER_8), None, SkillLibrary()) is not None
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["outcome"] for r in records] == [t.outcome for t in client.transcripts]
    assert len(records) == 3 and records[-1]["outcome"] == "accepted"
    assert records[0]["response"] == "prose"
    assert os.listdir(str(tmp_path)) == ["transcripts.jsonl"]


def test_accepted_reply_is_stored_as_canonical_text(stub_server):
    _StubHandler.script = [_chat_body(f"```verilog\n{COMMENTED}```")]
    proposal = _client(stub_server).propose(parse(CHAIN_ADDER_8), None, SkillLibrary())
    design = proposal.design
    assert design.source == print_design(design)
    # Statement lines are those of the canonical text: header, wire, assigns.
    assert [a.loc[0] for a in design.assigns] == [3, 4]
    lines = design.source.splitlines()
    assert [lines[a.loc[0] - 1].split()[:2] for a in design.assigns] == [
        ["assign", "s"], ["assign", "y"]]


def test_canonical_reply_is_the_live_design_of_its_text(stub_server):
    """A reply that already is canonical text parses back, through the design
    table, to the one live design of that text."""
    canonical = str(print_design(parse(REBALANCED)))
    live = parse(canonical)
    _StubHandler.script = [_chat_body(f"```verilog\n{canonical}```")]
    proposal = _client(stub_server).propose(parse(CHAIN_ADDER_8), None, SkillLibrary())
    assert proposal.design is live


def test_prose_then_valid_retries(stub_server):
    _StubHandler.script = [
        _chat_body("I think you should balance the adder tree."),
        _chat_body(f"```\n{REBALANCED}```"),
    ]
    client = _client(stub_server)
    proposal = client.propose(parse(CHAIN_ADDER_8), None, SkillLibrary())
    assert proposal is not None
    assert len(_StubHandler.received) == 2
    assert client.transcripts[0].outcome.startswith("attempt 0")
    assert client.transcripts[1].outcome == "accepted"


def test_changed_ports_rejected_then_none(stub_server):
    _StubHandler.script = [_chat_body(f"```\n{BAD_PORTS}```")] * 3
    client = _client(stub_server, max_retries=2)
    proposal = client.propose(parse(CHAIN_ADDER_8), None, SkillLibrary())
    assert proposal is None
    assert len(_StubHandler.received) == 3  # initial + 2 retries
    assert all("port interface" in t.outcome for t in client.transcripts)


def test_two_code_blocks_rejected(stub_server):
    _StubHandler.script = [_chat_body(f"```\n{REBALANCED}```\nor\n```\n{REBALANCED}```")]
    client = _client(stub_server, max_retries=0)
    assert client.propose(parse(CHAIN_ADDER_8), None, SkillLibrary()) is None
    assert "2 fenced code blocks" in client.transcripts[0].outcome


def test_unparseable_module_rejected(stub_server):
    _StubHandler.script = [_chat_body("```\nmodule broken(input a; endmodule\n```")]
    client = _client(stub_server, max_retries=0)
    assert client.propose(parse(CHAIN_ADDER_8), None, SkillLibrary()) is None


def test_credential_header_from_env(stub_server, monkeypatch):
    monkeypatch.setenv("RTLOPT_LLM_TOKEN", "sk-test-123")
    _StubHandler.script = [_chat_body(f"```\n{REBALANCED}```")]
    _client(stub_server).propose(parse(CHAIN_ADDER_8), None, SkillLibrary())
    _, headers, _ = _StubHandler.received[0]
    assert headers.get("Authorization") == "Bearer sk-test-123"


def test_propose_group_falls_back_to_rules(stub_server, bcfg):
    """A malformed LLM still yields a full, rule-backed candidate group."""
    from rtlopt.backend import synthesize
    from rtlopt.timing import diagnose, select_critical_paths

    _StubHandler.script = [_chat_body("prose only")] * 50
    client = _client(stub_server, max_retries=0)
    parent = parse(CHAIN_ADDER_8)
    _, report = synthesize(parent, bcfg)
    diagnoses = [diagnose(p, parent) for p in select_critical_paths(report, 1)]
    proposals = propose_group(parent, diagnoses, SkillLibrary(),
                              ProposerConfig(n_candidates=3), llm_client=client)
    assert len(proposals) == 3
    assert all(p.provenance in ("rule", "skipped") for p in proposals)
    assert any(p.provenance == "rule" for p in proposals)


def test_llm_candidate_records_its_path(stub_server, tmp_path, capsys):
    """An LLM slot names the diagnosed path it targeted, and no strategy."""
    from rtlopt.cli import main
    from rtlopt.orchestrator import RunConfig, run
    from rtlopt.trajectory import RunState

    _StubHandler.script = [_chat_body(f"```\n{REBALANCED}```")]  # then prose
    result = run(parse(CHAIN_ADDER_8, "chain.rtl"), RunConfig(iterations=1),
                 str(tmp_path), llm_client=_client(stub_server, max_retries=0))
    with open(os.path.join(result.run_dir, "state.json")) as fh:
        iteration = RunState.from_dict(json.load(fh)).iterations[0]
    llm = [c for c in iteration.candidates if c.proposer_kind == "llm"]
    assert len(llm) == 1 and llm[0].strategy is None
    assert iteration.diagnoses[llm[0].path].path.endpoint == "y"
    capsys.readouterr()
    assert main(["show", "--run", result.run_dir]) == 0
    assert "    path a->y wide-arithmetic -> llm (sec-pass)\n" in capsys.readouterr().out


def test_dead_endpoint_degrades_gracefully():
    client = LlmClient(LlmSettings(base_url="http://127.0.0.1:9",  # discard port
                                   model="stub", timeout_s=0.2, max_retries=0))
    assert client.propose(parse(CHAIN_ADDER_8), None, SkillLibrary()) is None


@pytest.mark.parametrize("body, problem", [
    ({"choices": []}, "no choices[0].message.content"),
    ({"choices": None}, "no choices[0].message.content"),
    ({"choices": [{"message": {"content": None}}]}, "content is NoneType"),
    ({"choices": [{"message": {"content": [{"type": "text", "text": "x"}]}}]},
     "content is list"),
    ([{"choices": []}], "no choices[0].message.content"),
], ids=["no-choices", "null-choices", "null-content", "list-content", "list-body"])
def test_reply_of_wrong_shape_is_a_failed_attempt(stub_server, body, problem):
    _StubHandler.script = [json.dumps(body).encode()]
    client = _client(stub_server, max_retries=0)
    assert client.propose(parse(CHAIN_ADDER_8), None, SkillLibrary()) is None
    (transcript,) = client.transcripts
    assert transcript.response_text is None
    assert transcript.outcome.startswith("attempt 0: ") and problem in transcript.outcome


def _server_error(handler):
    _send(handler, b'{"error": "overloaded"}', status=500)


def _hang_up(handler):
    handler.close_connection = True  # the request is read; nothing is written


def _truncated(handler):
    payload = _chat_body(f"```\n{REBALANCED}```")
    _send(handler, payload[:20], length=len(payload))


def _slow(handler):
    time.sleep(0.6)
    _send(handler, _chat_body(f"```\n{REBALANCED}```"))


@pytest.mark.parametrize("reply", [
    _server_error, _hang_up, _truncated, b"\xff\xfe\x00not json", _slow,
], ids=["status-500", "closed-without-reply", "short-body", "not-json", "timeout"])
def test_failed_request_is_a_failed_attempt(stub_server, reply):
    _StubHandler.script = [reply]
    client = LlmClient(LlmSettings(base_url=stub_server, model="stub-model",
                                   timeout_s=0.3, max_retries=0))
    assert client.propose(parse(CHAIN_ADDER_8), None, SkillLibrary()) is None
    (transcript,) = client.transcripts
    assert transcript.response_text is None
    assert transcript.outcome.startswith("attempt 0: ")


def test_optimize_against_truncating_endpoint_fills_slots_from_rules(stub_server, tmp_path,
                                                                     capsys):
    from rtlopt.cli import main
    from rtlopt.trajectory import RunState

    _StubHandler.script = [_truncated] * 100
    design = tmp_path / "chain.rtl"
    design.write_text(CHAIN_ADDER_8)
    config = tmp_path / "llm.json"
    config.write_text(json.dumps({
        "iterations": 2,
        "proposer": {"n_candidates": 3,
                     "llm": {"base_url": stub_server, "model": "stub-model",
                             "max_retries": 0}}}))
    out = tmp_path / "runs"
    assert main(["optimize", "--design", str(design), "--config", str(config),
                 "--out", str(out)]) == 0
    with open(out / "chain-seed0" / "state.json") as fh:
        iterations = RunState.from_dict(json.load(fh)).iterations
    kinds = [c.proposer_kind for it in iterations for c in it.candidates]
    assert "rule" in kinds and "llm" not in kinds
    assert os.listdir(str(out / "llm")) == ["transcripts.jsonl"]
    outcomes = [json.loads(line)["outcome"]
                for line in (out / "llm" / "transcripts.jsonl").read_text().splitlines()]
    # One line per attempt: with no retries, one per request.
    assert len(outcomes) == len(_StubHandler.received)
    assert outcomes and all(o.startswith("attempt 0: ") for o in outcomes)


def _proxy_environment(monkeypatch, **values):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    for name, value in values.items():
        monkeypatch.setenv(name, value)


def test_proxy_is_read_when_the_client_is_made(stub_server, proxy_server, monkeypatch):
    _proxy_environment(monkeypatch)
    earlier = _client(stub_server, max_retries=0)
    _proxy_environment(monkeypatch, http_proxy=proxy_server)
    _client(stub_server, max_retries=0).propose(parse(CHAIN_ADDER_8), None, SkillLibrary())
    # Through a proxy the request line carries the absolute URL.
    assert [path for path, _, _ in _ProxyHandler.received] == [
        stub_server + "/chat/completions"]
    assert _StubHandler.received == []
    earlier.propose(parse(CHAIN_ADDER_8), None, SkillLibrary())
    assert [path for path, _, _ in _StubHandler.received] == ["/chat/completions"]


def test_no_proxy_goes_direct(stub_server, proxy_server, monkeypatch):
    _proxy_environment(monkeypatch, http_proxy=proxy_server, no_proxy="127.0.0.1")
    _client(stub_server, max_retries=0).propose(parse(CHAIN_ADDER_8), None, SkillLibrary())
    assert _ProxyHandler.received == []
    assert [path for path, _, _ in _StubHandler.received] == ["/chat/completions"]
