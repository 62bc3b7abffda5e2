from .ast import (
    ASSOCIATIVE_OPS,
    BINARY_OPS,
    OP_SYMBOL,
    Assign,
    Expr,
    Net,
    Port,
    Register,
    RtlDesign,
    RtlError,
    RtlSemanticError,
    RtlSyntaxError,
    reference_counts,
)
from .normal import output_forms, simplify
from .parser import parse, topo_order
from .printer import print_design, print_expr
from .simulate import CompiledDesign, eval_expr, simulate, uint_dtype

__all__ = [
    "Assign", "CompiledDesign", "Expr", "Net", "Port", "Register",
    "RtlDesign", "RtlError", "RtlSemanticError", "RtlSyntaxError",
    "eval_expr", "output_forms", "parse", "print_design", "print_expr",
    "reference_counts", "simplify", "simulate", "topo_order", "uint_dtype",
]
