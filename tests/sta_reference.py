"""Reference builtin STA: the list-building timing analysis that
``rtlopt.backend`` used before it carried shared paths. Every node copies its
best operand's stage list, so a wire chain costs time and memory quadratic in
its length; tests compare the linear analysis with it on small designs.
"""

from rtlopt.backend import (
    CLK_TO_Q_NS,
    REGISTER_AREA_PER_BIT,
    SETUP_NS,
    PpaMetrics,
    _operand_width,
    node_area,
    node_delay_ns,
    synthesize,
)
from rtlopt.dsl import topo_order
from rtlopt.timing import Stage, TimingPath, TimingReport


def _arrival(expr, locs, nets, filename):
    occurrences = iter(locs)

    def visit(node, args):
        line, col = next(occurrences, (0, 0))
        if node.kind == "const":
            return 0.0, []
        if node.kind == "var":
            if node.name in nets:
                return nets[node.name]
            return 0.0, [Stage(node=node.name, op="startpoint", delay_ns=0.0,
                               file=filename, line=line, col=col)]
        best = (0.0, [])
        for cand in args:
            if cand[0] > best[0] or (cand[0] == best[0] and not best[1]):
                best = cand
        delay = node_delay_ns(node.kind, _operand_width(node))
        stage = Stage(node=f"{node.kind}_{line}_{col}", op=node.kind, delay_ns=delay,
                      file=filename, line=line, col=col, width=_operand_width(node))
        return best[0] + delay, best[1] + [stage]

    return expr.fold(visit)


def _make_path(endpoint, arrival, stages, clock_ns):
    delay = CLK_TO_Q_NS + arrival + SETUP_NS
    slack = clock_ns - delay
    if stages and stages[0].op == "startpoint":
        startpoint = stages[0].node
        op_stages = tuple(stages[1:])
    else:
        startpoint = endpoint
        op_stages = tuple(stages)
    return TimingPath(startpoint=startpoint, endpoint=endpoint,
                      slack_ns=slack, stages=op_stages)


def reference_synthesize(design, clock_ns):
    """(PpaMetrics, TimingReport) of ``design`` by the reference analysis."""
    nets = {}
    for assign in topo_order(design):
        nets[assign.target] = _arrival(assign.expr, assign.locs, nets, design.filename)
    paths = [_make_path(p.name, *nets.get(p.name, (0.0, [])), clock_ns)
             for p in design.output_ports]
    for reg in design.registers:
        arrival, stages = _arrival(reg.next, reg.locs, nets, design.filename)
        paths.append(_make_path(reg.name, arrival, stages, clock_ns))

    paths.sort(key=lambda p: (p.slack_ns, p.endpoint))
    report = TimingReport(clock_ns=clock_ns, endpoints=tuple(paths))

    slacks = [p.slack_ns for p in paths]
    wns = min(slacks) if slacks else clock_ns - (CLK_TO_Q_NS + SETUP_NS)
    tns = sum(min(s, 0.0) for s in slacks)

    area = float(sum(REGISTER_AREA_PER_BIT * r.width for r in design.registers))
    for _, expr in design.all_exprs():
        for node in expr.walk():
            area += node_area(node.kind, _operand_width(node))

    return PpaMetrics(wns=wns, tns=tns, area=area), report


def sources_in(value):
    """Every module text held in ``value``, a string or nested lists and tuples."""
    if isinstance(value, str):
        return [value] if value.lstrip().startswith("module") else []
    if isinstance(value, (list, tuple)):
        return [text for item in value for text in sources_in(item)]
    return []


def assert_matches_reference(design, config):
    """``synthesize`` gives the reference's metrics and report, exactly."""
    metrics, report = synthesize(design, config)
    want_metrics, want_report = reference_synthesize(design, config.clock_period)
    assert metrics == want_metrics, design.name
    assert report.to_dict() == want_report.to_dict(), design.name
