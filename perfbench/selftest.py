"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py      # from the repository root; exits 0 on success

Runs each kind of operation once on real inputs, confirms that the genuine
outputs pass their check, then perturbs one output at a time and confirms
that every perturbed result is counted as a failed operation.
"""

import json
import os
import shutil
import sys

import numpy as np

import checks
import inputs

SEED = 3


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    edit(doc)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def _edit_lines(path, edit):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(edit(lines)) + "\n")


def _bump_csv_value(lines, row, col, delta):
    fields = lines[row].split(",")
    fields[col] = repr(float(fields[col]) + delta)
    lines[row] = ",".join(fields)
    return lines


def _scale_mat1(path, factor):
    with open(path, "rb") as f:
        raw = bytearray(f.read())
    first = np.frombuffer(bytes(raw[12:20]), dtype="<f8")[0] * factor
    raw[12:20] = np.array([first], dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(raw)


def _cli(cli_main, argv):
    rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"{argv[0]} exited with code {rc}")


def _perturbed(out_dir, scratch, edit):
    """Copy of an output directory with one edit applied."""
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(out_dir, scratch)
    edit(scratch)
    return scratch


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import margin_auditor as ma
    from margin_auditor.cli import main as cli_main

    work = os.path.join(root, ".perfbench", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    genuine = checks.Tally()
    perturbed = checks.Tally()
    expected_failures = 0

    def expect_fail(label, check, *args):
        nonlocal expected_failures
        expected_failures += 1
        before = perturbed.failed
        perturbed.record(label, check, *args)
        print(f"[{'ok' if perturbed.failed > before else 'MISSED'}] perturbed {label}")

    # analyze and margins
    d = inputs.ensure_inputs(ma, root, "analyze-digits", SEED)
    x, y = checks.read_idx(f"{d}/images.idx", f"{d}/labels.idx")
    ref = checks.Reference(checks.read_weights(f"{d}/net/network.json"), x, y)
    out_a, out_m = os.path.join(work, "analyze"), os.path.join(work, "margins")
    _cli(cli_main, ["analyze", f"{d}/net/network.json", "--features", f"{d}/images.idx",
                    "--labels", f"{d}/labels.idx", "--out", out_a])
    _cli(cli_main, ["margins", f"{d}/net/network.json", "--features", f"{d}/features.mat",
                    "--labels", f"{d}/labels.lbl", "--out", out_m])
    genuine.record("analyze", checks.check_analyze, out_a, ref)
    genuine.record("margins", checks.check_margins, out_m, ref)
    scratch = os.path.join(work, "perturbed")
    report = "bound-report.json"
    for label, edit in (
        ("R_A x (1 + 1e-6)",
         lambda p: _edit_json(f"{p}/{report}", lambda r: r.update(R_A=r["R_A"] * (1 + 1e-6)))),
        ("s_0 x (1 + 1e-7)",
         lambda p: _edit_json(f"{p}/{report}",
                              lambda r: r["layer_norms"][0].update(s=r["layer_norms"][0]["s"]
                                                                   * (1 + 1e-7)))),
        ("bound_total off its terms by 1e-9",
         lambda p: _edit_json(f"{p}/{report}",
                              lambda r: r.update(bound_total=r["bound_total"] * (1 + 1e-9)))),
        ("margins.csv missing its last row",
         lambda p: _edit_lines(f"{p}/margins.csv", lambda lines: lines[:-1])),
        ("one raw margin moved by 1e-6",
         lambda p: _edit_lines(f"{p}/margins.csv",
                               lambda lines: _bump_csv_value(lines, 17, 1, 1e-6))),
    ):
        expect_fail(f"analyze: {label}", checks.check_analyze,
                    _perturbed(out_a, scratch, edit), ref)
    expect_fail("margins: one histogram density + 0.05", checks.check_margins,
                _perturbed(out_m, scratch, lambda p: _edit_lines(
                    f"{p}/histogram.csv", lambda lines: _bump_csv_value(lines, 5, 2, 0.05))), ref)

    # train: one true-label epoch
    d = inputs.ensure_inputs(ma, root, "train-digits", SEED)
    x, y = checks.read_idx(f"{d}/train-images.idx", f"{d}/train-labels.idx")
    x_test, y_test = checks.read_idx(f"{d}/test-images.idx", f"{d}/test-labels.idx")
    data = (x, y, x_test, y_test)
    out_t = os.path.join(work, "train")
    _cli(cli_main, ["train", f"{d}/true.json", "--train-features", f"{d}/train-images.idx",
                    "--train-labels", f"{d}/train-labels.idx",
                    "--test-features", f"{d}/test-images.idx",
                    "--test-labels", f"{d}/test-labels.idx", "--out", out_t])
    genuine.record("train", checks.check_train, out_t, data, "true_labels", SEED)
    expect_fail("train: snapshot R_A x (1 + 1e-6)", checks.check_train,
                _perturbed(out_t, scratch, lambda p: _edit_json(
                    f"{p}/epoch_000.json", lambda s: s.update(R_A=s["R_A"] * (1 + 1e-6)))),
                data, "true_labels", SEED)
    expect_fail("train: final weight entry x 1.5", checks.check_train,
                _perturbed(out_t, scratch, lambda p: _scale_mat1(f"{p}/net/final_w0.mat", 1.5)),
                data, "true_labels", SEED)
    expect_fail("train: checked against the random-label draw", checks.check_train,
                out_t, data, "random_labels", SEED)

    # verify suite: one item of each kind
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((17, 9))
    values = (ma.spectral_norm(a), ma.jacobi_singular_values(a), ma.frobenius_norm(a),
              ma.norm_2_1_of_transpose(a))
    genuine.record("norms", checks.check_norms, a, *values)
    expect_fail("norms: spectral norm x (1 + 1e-7)", checks.check_norms,
                a, values[0] * (1 + 1e-7), *values[1:])
    bumped = values[1].copy()
    bumped[0] *= 1 + 1e-9
    expect_fail("norms: top singular value x (1 + 1e-9)", checks.check_norms,
                a, values[0], bumped, *values[2:])
    expect_fail("norms: Frobenius norm x (1 + 1e-11)", checks.check_norms,
                a, *values[:2], values[2] * (1 + 1e-11), values[3])

    atoms, alpha = rng.standard_normal((5, 7)), rng.uniform(0.05, 1.0, size=5)
    result = ma.maurey_sparsify(list(atoms), alpha, 9, seed=1)
    genuine.record("maurey", checks.check_maurey, atoms, alpha, 9, result.counts,
                   result.approx_error_sq)
    counts = list(result.counts)
    counts[counts.index(max(counts))] += 1
    expect_fail("maurey: counts summing to k + 1", checks.check_maurey, atoms, alpha, 9,
                tuple(counts), result.approx_error_sq)

    ca, cx = rng.standard_normal((4, 3)), rng.standard_normal((8, 4))
    w_hat, _ = ma.cover_element_for(ca, cx, 0.8, seed=2)
    genuine.record("cover", checks.check_cover, ca, cx, 0.8, w_hat)
    expect_fail("cover: every entry moved by eps", checks.check_cover, ca, cx, 0.8, w_hat + 0.8)

    la, lx = rng.standard_normal(4), rng.standard_normal((2, 4))
    net = ma.build_linear_network(la, 4)
    weights = [layer.weight for layer in net.layers]
    product = float(np.prod([ma.spectral_norm(w) for w in weights]))
    genuine.record("lowerbound", checks.check_lowerbound, weights, net.forward(lx), product,
                   la, lx)
    expect_fail("lowerbound: output moved by 1e-9", checks.check_lowerbound, weights,
                net.forward(lx) + 1e-9, product, la, lx)

    print(f"genuine outputs: {genuine.attempted} checked, {genuine.failed} failed")
    for message in genuine.messages:
        print("  " + message)
    print(f"perturbed outputs: {perturbed.attempted} checked, {perturbed.failed} counted as failed")
    ok = (genuine.failed == 0 and perturbed.attempted == expected_failures
          and perturbed.failed == expected_failures)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
