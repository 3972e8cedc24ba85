"""Acceptance suite: one test per criterion, each printing its own verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import json
import math
import pathlib
import time

import numpy as np

from opertuple.cli import main
from opertuple.defects import null_reducing_check, partial_isometry_defect
from opertuple.generators import paper_example, polynomial_family, random_unitary, scaled_family
from opertuple.linalg import frobenius_norm
from opertuple.minverse import beta, expand_power_sum
from opertuple.multiindex import multinomial_weight
from opertuple.spectra import audit_theorem_3_1, joint_spectrum
from opertuple.tuples import make_tuple

from multiindex_oracle import beta_enumeration, enumerate_multiindices, pascal_multinomial

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"

GOLDEN_A = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)


def verdict(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def unitary_scaled(d, dim, seed):
    u = random_unitary(dim, np.random.default_rng(seed))
    return make_tuple([u / math.sqrt(d)] * d)


def test_criterion_01_example_2_1_reproduction():
    ok = True
    for d in (1, 2, 3):
        ex = paper_example(f"2.1({d})")
        ok &= partial_isometry_defect(ex.tuple, 1, (1,) * d).norm <= 1e-12
    verdict(1, "example 2.1 joint (1; 1...1)-partial isometry, d = 1..3", ok)


def test_criterion_02_example_2_2_reproduction():
    ex = paper_example("2.2")
    ok = True
    for j in range(2):
        single = make_tuple([ex.tuple[j]])
        ok &= partial_isometry_defect(single, 2, (1,)).norm <= 1e-12
    pair = partial_isometry_defect(ex.tuple, 2, (1, 1))
    ok &= abs(pair.norm - math.sqrt(3.0)) <= 1e-10
    ok &= not pair.is_zero
    verdict(2, "example 2.2 components pass (2;1), pair fails at sqrt(3)", ok)


def test_criterion_03_golden_ratio_example():
    ok = True
    for d in (1, 2, 3):
        ex = paper_example(f"3.golden({d})")
        ok &= partial_isometry_defect(ex.tuple, 2, ex.q).norm <= 1e-12
    ex2 = paper_example("3.golden(2)")
    points = [lam for lam, _ in joint_spectrum(ex2.tuple).point_spectrum]
    expected = [(GOLDEN_A, 0.0), (0.0, 0.0)]
    ok &= len(points) == 2
    for target in expected:
        ok &= any(max(abs(a - b) for a, b in zip(target, lam)) <= 1e-8 for lam in points)
    radius = joint_spectrum(ex2.tuple).spectral_radius
    ok &= abs(radius - GOLDEN_A) <= 1e-8
    # negative control for corollary 3.1: hypotheses unmet, r != 1 recorded
    rep = audit_theorem_3_1(ex2.tuple, 2, (1, 0))
    ok &= not rep.hypotheses_hold
    ok &= abs(rep.norms["spectral_radius"] - GOLDEN_A) <= 1e-8
    verdict(3, "golden-ratio example: defect, spectrum, radius 1.2720196", ok)


def test_criterion_04_lemma_4_1_recurrence_agreement():
    rng = np.random.default_rng(20240804)
    start = time.monotonic()
    ok = True
    for trial in range(100):
        d = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        s = polynomial_family(np.random.default_rng(10_000 + trial), dim, d, 3)
        t = polynomial_family(np.random.default_rng(20_000 + trial), dim, d, 3)
        en, en_scale = beta_enumeration(s, t, m)
        re = beta(s, t, m, method="recurrence")
        scale = max(en_scale, re.scale)
        ok &= frobenius_norm(en - re.matrix) <= 1e-10 * scale
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    verdict(4, f"beta recurrence == enumeration on 100 pairs ({elapsed:.2f}s)", ok)


def test_criterion_05_proposition_4_1_modes():
    ok = True
    for trial in range(20):
        s = polynomial_family(np.random.default_rng(3_000 + trial), 3, 2, 3)
        t = polynomial_family(np.random.default_rng(4_000 + trial), 3, 2, 3)
        for n in range(1, 7):
            _, _, dev = expand_power_sum(s, t, n, "binomial")
            ok &= dev <= 1e-10
    probe = make_tuple([math.sqrt(2.0) * np.eye(2)])
    _, _, dev_p = expand_power_sum(probe, probe, 2, "pochhammer")
    ok &= abs(dev_p - 0.25) <= 1e-12
    verdict(5, "prop 4.1: binomial exact on 20 instances, pochhammer probe = 0.25", ok)


def test_criterion_06_theorem_2_3_ascent():
    ok = True
    for trial in range(25):
        rng = np.random.default_rng(np.random.SeedSequence(5_000 + trial).spawn(1)[0])
        t = make_tuple([np.pad(m, (0, 2)) for m in scaled_family(rng, 3, 2, 3)])
        q = (1, 1)
        base = partial_isometry_defect(t, 1, q)
        reducing, _ = null_reducing_check(t, q)
        ok &= base.is_zero and reducing
        for m_up in (2, 3):
            up = partial_isometry_defect(t, m_up, q)
            ok &= up.norm <= 1e-10 * max(1.0, up.scale)
    verdict(6, "thm 2.3 ascent on 25 reducing partial isometries", ok)


def test_criterion_07_theorem_3_1_audit():
    ok = True
    for seed in range(5):
        t = unitary_scaled(2, 4, seed)
        for lam, _ in joint_spectrum(t).point_spectrum:
            norm2 = math.sqrt(sum(abs(z) ** 2 for z in lam))
            ok &= abs(norm2 - 1.0) <= 1e-8
        rep = audit_theorem_3_1(t, 1, (1, 1))
        ok &= rep.hypotheses_hold and rep.conclusion_holds
    ex = paper_example("2.1(2)")
    rep = audit_theorem_3_1(ex.tuple, 1, (1, 1))
    ok &= not rep.hypotheses_hold
    mu = 2.0 ** (-0.25)
    witness_norms = [
        math.sqrt(sum(abs(z) ** 2 for z in w.value))
        for w in rep.witnesses
        if w.label.startswith("eigenvalue outside")
    ]
    ok &= bool(witness_norms) and all(abs(n - mu) <= 1e-8 for n in witness_norms)
    verdict(7, "thm 3.1: unitary-scaled on sphere; 2.1 flagged with 2^(-1/4) witness", ok)


def test_criterion_08_example_4_1_findings():
    printed = paper_example("4.1-as-printed")
    corrected = paper_example("4.1-corrected")
    ok = True
    for m in (1, 2, 3, 4):
        ok &= abs(beta(printed.partner, printed.tuple, m).norm - math.sqrt(2.0)) <= 1e-12
        ok &= beta(corrected.partner, corrected.tuple, m).norm <= 1e-12
    # discrepancy note recorded on the CLI surface for both variants
    for variant in ("4.1-as-printed", "4.1-corrected"):
        code = main(["reproduce", "--example", variant, "--json"])
        ok &= code == 0
    verdict(8, "example 4.1: printed beta = sqrt(2), corrected = 0, notes recorded", ok)


def test_criterion_08b_example_4_1_notes_in_output(capsys):
    main(["reproduce", "--example", "4.1-as-printed", "--json"])
    doc = json.loads(capsys.readouterr().out)
    ok = any("beta_m = I" in note for note in doc["paper_discrepancy_notes"])
    verdict(8, "example 4.1 discrepancy note present in report (part 2)", ok)


def test_criterion_09_theorem_4_1_audit(capsys):
    code_ok = main(
        ["audit", "--claim", "thm4.1", "--input", str(DATA / "example_4_1_corrected.json")]
    )
    capsys.readouterr()
    code_bad = main(
        [
            "audit",
            "--claim",
            "thm4.1",
            "--input",
            str(DATA / "scalar_counterexample_thm4_1.json"),
            "--json",
        ]
    )
    out = capsys.readouterr().out
    doc = json.loads(out)
    witnesses = [
        w
        for rep in doc["reports"]
        for w in rep["witnesses"]
        if w["label"] == "eigenvalue whose image is missing"
    ]
    ok = code_ok == 0 and code_bad == 1 and len(witnesses) == 1
    lam = witnesses[0]["value"]
    ok &= abs(lam[0][0] - 1 / 3) <= 1e-8 and abs(lam[1][0] - 2 / 3) <= 1e-8
    verdict(9, "thm 4.1: corrected passes, scalar counterexample exits 1 with witness", ok)


def test_criterion_10_proposition_3_2_orthogonality():
    ok = True
    for seed in range(5):
        t = unitary_scaled(2, 5, 100 + seed)
        points = joint_spectrum(t).point_spectrum
        pairs = 0
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                lam, x = points[i]
                mu, y = points[j]
                sep = abs(1.0 - sum(a * b.conjugate() for a, b in zip(lam, mu)))
                if sep < 1e-8:
                    continue
                pairs += 1
                ok &= abs(np.vdot(x, y)) <= 1e-8
        ok &= pairs > 0
    verdict(10, "prop 3.2(3): distinct-eigenvalue witnesses orthogonal", ok)


def test_criterion_11_combinatorial_exactness():
    ok = True
    for d in range(1, 5):
        for k in range(0, 13):
            total = sum(multinomial_weight(a) for a in enumerate_multiindices(d, k))
            ok &= total == d**k
    for d in range(2, 5):
        for n in range(1, 13):
            for parts in enumerate_multiindices(d, n):
                lhs, rhs = pascal_multinomial(n, parts)
                ok &= lhs == rhs
    verdict(11, "multinomial sums d^k and Pascal identity exact, d <= 4, k,n <= 12", ok)


def test_criterion_12_interface_roundtrip(capsys):
    files = sorted(DATA.glob("*.json"))
    ok = len(files) >= 8
    known_examples = ("2.1(", "2.2", "3.golden(", "4.1-as-printed", "4.1-corrected")
    for path in files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        claim = "thm4.1" if "left_inverse" in doc.get("metadata", {}) else "thm2.1"
        m = str(doc.get("m", 1))
        q = ",".join(str(v) for v in doc.get("q", [1] * doc["d"]))
        example_id = doc.get("metadata", {}).get("example", "")
        commands = {
            "classify": ["classify", "--input", str(path), "--m", m, "--q", q, "--json"],
            "spectrum": ["spectrum", "--input", str(path), "--seed", "7", "--json"],
            "audit": ["audit", "--claim", claim, "--input", str(path), "--seed", "7", "--json"],
        }
        if example_id.startswith(known_examples):
            commands["reproduce"] = ["reproduce", "--example", example_id, "--json"]
        for argv in commands.values():
            code_1 = main(argv)
            out_1 = capsys.readouterr().out
            code_2 = main(argv)
            out_2 = capsys.readouterr().out
            ok &= code_1 == code_2
            ok &= code_1 in (0, 1)
            ok &= out_1 == out_2  # byte-stable under fixed seed
            ok &= bool(json.loads(out_1))
    verdict(12, "CLI round-trips on all shipped files; JSON byte-stable", ok)
