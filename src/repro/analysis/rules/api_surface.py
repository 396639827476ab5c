"""Rule for an API-surface hazard: exact float equality.

An exact float ``==`` encodes an assumption the numerics do not honor
once a kernel is vectorized or reordered — the PR-3 vectorization kept
results *bit-identical* only because nothing downstream gated on exact
float equality.  (Mutable default arguments, the other classic footgun,
are ruff's ``B006``.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Finding, ModuleContext, Rule, register_rule

__all__ = ["FloatEqRule"]


@register_rule("float-eq")
class FloatEqRule(Rule):
    """No exact == / != against float literals outside tests."""

    title = "exact equality comparison against a float literal"
    severity = "warning"
    rationale = (
        "Exact float equality encodes an assumption about the bit "
        "pattern a computation produces; any reordering (vectorization, "
        "BLAS dispatch, accumulation order across workers) silently "
        "flips the branch.  The PR-3 kernel rewrites were only safe "
        "because no production branch gated on exact float equality."
    )
    hint = (
        "Compare with a tolerance (math.isclose / np.isclose), or — "
        "for genuine degenerate-value guards like 'variance == 0.0' — "
        "keep the exact test and suppress with a justification."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        stem = context.module.rpartition(".")[2]
        if stem.startswith("test_") or stem == "conftest":
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_nan_idiom(left, right):
                    continue
                literal = self._float_literal(left) or self._float_literal(
                    right
                )
                if literal is not None:
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        context,
                        node,
                        f"exact float comparison '{symbol} {literal}'; "
                        "use a tolerance or justify the exact guard",
                    )

    @staticmethod
    def _float_literal(node: ast.expr) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return repr(node.value)
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        ):
            return f"-{node.operand.value!r}"
        return None

    @staticmethod
    def _is_nan_idiom(left: ast.expr, right: ast.expr) -> bool:
        # `x != x` is the portable NaN test; identical sides are allowed.
        return ast.dump(left) == ast.dump(right)
