"""Closed-loop RTL timing optimization with group-relative skill learning."""

from .backend import (
    BackendConfig,
    EvalResult,
    PpaMetrics,
    check_equivalence,
    evaluate,
    synthesize,
)
from .dsl import RtlDesign, RtlError, parse, print_design, simulate
from .orchestrator import RunConfig, RunResult, run
from .proposer import Proposal, ProposerConfig, propose_group
from .rewrites import NotApplicable, apply_strategy
from .scoring import CandidateScore, ScoreWeights, group_advantage, score
from .skills import Skill, SkillLibrary, assign_tier, distill, match, merge
from .timing import (
    BottleneckDiagnosis,
    TimingPath,
    TimingReport,
    diagnose,
    map_path_to_rtl,
    select_critical_paths,
)

__version__ = "0.1.0"
