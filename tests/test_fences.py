"""The structural fences of the CI workflow, run in tier-1.

Each fence guards one simplification: patterns that must not come back into
``src/nullcartan``, or a definition that must stay unique.  The CI steps of
the same names grep for the same patterns; this file runs them with the
other tests.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nullcartan"


def _literal(*texts):
    return "|".join(re.escape(text) for text in texts)


# name: [(files, pattern, number of matching lines it must have)], where
# files "*" is every module of the package
FENCES = {
    "Only metric.py reads the sign vector": [
        ([p.name for p in sorted(SRC.glob("*.py")) if p.name != "metric.py"],
         r"\.signs\b|\b_signs\b", 0)],
    "One frame type in one row order": [
        ("*", r"CartanFrame|FrameJets|FrameState|frame_vectors|as_matrix|from_matrix|to_frame",
         0)],
    "One report path": [
        ("*", r"_base_body|load_profile|_(INPUT|HYPOTHESIS|NUMERICAL)_ERRORS", 0)],
    "One rate rule": [
        ("*", r"_rate_square_jet|_rate_power", 0),
        (["curve.py"], r"def _rate_square\b", 1)],
    "One gate rule": [
        ("*", _literal("if np.any(bad):", "for t, rep in zip(", "bad.reshape(-1, self.dimension)",
                       "if not evidence[", "if np.any(sign_votes", "if np.any(s <= 0.0)"), 0)],
    "Frames at the orders they read": [
        (["constructions.py"], _literal("extra_order=n", "extra_order=2"), 0),
        (["frame.py"], _literal(".scale(", "inner_jet(", ".differentiate("), 0)],
    "Records without code generation": [
        ("*", r"dataclass|\bexec\(|\beval\(", 0)],
    "Tables read their interpolant": [
        (["curve.py"], r"self\.f\b|weakref", 0)],
    "One subspace rule": [
        (["metric.py"], _literal("_unit_rows", "for i in lengths"), 0),
        ("*", _literal("svd(", "matrix_rank("), 0)],
    "Synthesis at matmul cost": [
        (["constructions.py"], _literal("einsum("), 0)],
    "One norm rule": [
        ("*", _literal("linalg.norm("), 0)],
    "Caches belong to their instance": [
        ("*", r"^\s+@(functools\.)?(lru_cache|cache)\b", 2)],
}


@pytest.mark.parametrize("name", list(FENCES))
def test_fence(name):
    for files, pattern, count in FENCES[name]:
        paths = sorted(SRC.rglob("*.py")) if files == "*" else [SRC / f for f in files]
        found = [f"{path.name}:{number}: {line.strip()}"
                 for path in paths
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(pattern, line)]
        assert len(found) == count, f"{pattern}:\n" + "\n".join(found)
