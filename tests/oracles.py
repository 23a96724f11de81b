"""Dense oracles that the tests check the sparse program paths against."""

from aecodes.errors import ErrorOp
from aecodes.exactnum import SqrtRational


def apply(op: ErrorOp, v) -> list[SqrtRational]:
    """Apply an operator to a coefficient vector; result lives in the target sector.

    The output has length source_two_J + 2*delta_J + 1.  Each target index
    receives at most one contribution because the operator is a diagonal
    shift.
    """
    if len(v) != op.source_two_J + 1:
        raise ValueError(
            f"vector length {len(v)} does not match source dimension {op.source_two_J + 1}"
        )
    out = [SqrtRational.zero()] * (op.target_two_J + 1)
    for j, amp in op.amplitudes().items():
        tgt = j + op.delta_m + op.delta_J
        if 0 <= tgt <= op.target_two_J and not v[j].is_zero():
            out[tgt] = amp * v[j]
    return out
