"""Golden outputs: SHA-256 of `ngn run` outputs over a fixed config matrix.

Every problem family x every policy x each sampler the policy accepts,
40 steps, seeds 0 and 1, metric cadence 7, plus a few runs at batch 5 on
9 classes, two runs that exercise the trace writer, and the report rows of
the lemma and gradient checks. A refactor that changes any trace,
aggregate or report byte changes a digest here, or a pinned report row of
the stability, contraction and strongly convex checks. The digests were
recorded with Python 3.11.7 and numpy 2.4.6; another numpy may round
differently.
To re-record after an intended output change, run this file as a script.
"""

import hashlib

import numpy as np

from ngn.cli import main
from ngn.objectives import make_blobs_dataset, make_logistic
from ngn.verify import (
    check_deterministic_contraction,
    check_logistic_large_sigma,
    check_never_diverge,
    check_strongly_convex_rate,
    suite_gradients,
    suite_lemmas,
)

PROBLEMS = (
    "quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)",
    "two_quadratics()",
    "linear_regression(d=4, n=12, seed=1, noise_std=0.1)",
    "logistic_blobs(n=30, d=3, classes=3, seed=2)",
    "nonconvex_sum(n=6, seed=1, eps=0.4)",
)
POLICIES = (
    "ngn(sigma=1.0)",
    "ngn(sigma=2.0, schedule=inv_linear)",
    "ggn(sigma=1.0, h=neg_log)",
    "ggn(sigma=0.5, h=monomial, p=3)",
    "aps()",
    "sps_max(c=0.5, gamma_b=2.0)",
    "adagrad_norm(eta=1.0, delta0=0.1)",
    "constant(gamma=0.1)",
    "polyak(fstar=0.0)",
    "armijo(c1=0.1, backtrack=0.7, gamma_init=2.0)",
)
FULL_BATCH_ONLY = ("polyak", "armijo")
SAMPLERS = ("with_replacement_uniform", "epoch_shuffle", "full_batch")
OUTPUTS = ("trace_seed0.csv", "trace_seed1.csv", "aggregate.csv")

GOLDEN = {
    ('quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)', 'ngn(sigma=1.0)'):
        'b1ed729c48f94e1003b32224d9e5464cdf77a5ca2d03c8ca60fe0a689d47c5de',
    ('quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)', 'ngn(sigma=2.0, schedule=inv_linear)'):
        'f2b58f060a2be4700ea33bb00f03e70c2c1bb06885ec294118e40a3c43dc4e4e',
    ('quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)', 'ggn(sigma=1.0, h=neg_log)'):
        'fec6bc0cc9270f4e77070f8dd00e232b246fb5ac251c50fcde5f10fb7fd94b69',
    ('quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)', 'ggn(sigma=0.5, h=monomial, p=3)'):
        '824099ce29cf726c24d15893533e484ccbbebde8cd9c6e98c83b156a587d597b',
    ('quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)', 'aps()'):
        'e249be6194dab25f73a075dd04e44c30071fe936252f1e0d29fbef6ce846e926',
    ('quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)', 'sps_max(c=0.5, gamma_b=2.0)'):
        '00ae4f5845762c3cd37446a1bab036edad7ec760dbd2274b0625aaa78ffcc96a',
    ('quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)', 'adagrad_norm(eta=1.0, delta0=0.1)'):
        '0882f4ce0492341b3e27bfc644ef34f1fa2fa24846b7716797505c0ce103684f',
    ('quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)', 'constant(gamma=0.1)'):
        'ca3c946177af291a4760478590dbfa9de0de8886189cde176dc7afa50b44c89c',
    ('quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)', 'polyak(fstar=0.0)'):
        '7442f234b57470c28142e6d04318a073348b03bdc87c183f78bee6790632cc12',
    ('quadratic1d(lam=1.2, xstar=0.5, fstar=0.1)', 'armijo(c1=0.1, backtrack=0.7, gamma_init=2.0)'):
        'f7aadc8a6ebf3beafc13fff7673ea29e2af1fb25af123888ca32718e4888d280',
    ('two_quadratics()', 'ngn(sigma=1.0)'):
        '8a06397fbf27e61fd73a7083871af8bdf13d919934e510a60afc61b42d0738b9',
    ('two_quadratics()', 'ngn(sigma=2.0, schedule=inv_linear)'):
        '571745d6430cb39d1c9b876abe5fc1d32560aefe12d2e147a488739f183b9642',
    ('two_quadratics()', 'ggn(sigma=1.0, h=neg_log)'):
        '099487e2667ecbf9d3dcfbd968cbd1927e6be82a3e075555ca42e2fa85c647e7',
    ('two_quadratics()', 'ggn(sigma=0.5, h=monomial, p=3)'):
        'f5d23ba6b318c66e2dab0bc6272c3b8787141fcfde82221a2b756b6abf004133',
    ('two_quadratics()', 'aps()'):
        '6ecd0656dc2f8410872ebdf2859097985a5fe99201c88873971ee0f87ee2c927',
    ('two_quadratics()', 'sps_max(c=0.5, gamma_b=2.0)'):
        '93543e645857f807d4cf297412b4d92c68f6b4899e456ffc1fb6dd33806cccaa',
    ('two_quadratics()', 'adagrad_norm(eta=1.0, delta0=0.1)'):
        'a499a66fd6a92bcde85781db4c9415acbbf99db97a39f014402e0e30a9d508fb',
    ('two_quadratics()', 'constant(gamma=0.1)'):
        'e73202951548ee0c54ad4ebeb3d41c93b6a52f5fafbd8e4113d1ef476421309b',
    ('two_quadratics()', 'polyak(fstar=0.0)'):
        '2d0189a18906057154c3d1368c3841597cd376eea4060c932d1a24a7641c78ad',
    ('two_quadratics()', 'armijo(c1=0.1, backtrack=0.7, gamma_init=2.0)'):
        '47d509bddedbd605dd83fcef3ac2325b97243346ce7b0e85a7f7ada9b2d439bc',
    ('linear_regression(d=4, n=12, seed=1, noise_std=0.1)', 'ngn(sigma=1.0)'):
        'f05ec9fa3de460970997d161b50468a395b3b969011aa1ecea66acb25b7b606a',
    ('linear_regression(d=4, n=12, seed=1, noise_std=0.1)', 'ngn(sigma=2.0, schedule=inv_linear)'):
        '457039016687c542c5ba0c8826524595f13bfef38aa7fe65609a78bcc0cf93ac',
    ('linear_regression(d=4, n=12, seed=1, noise_std=0.1)', 'ggn(sigma=1.0, h=neg_log)'):
        'd29266c6f95d258868c2623358e881091d9db2381d6fc3b0667ce3edc2826152',
    ('linear_regression(d=4, n=12, seed=1, noise_std=0.1)', 'ggn(sigma=0.5, h=monomial, p=3)'):
        '0dae3c0788b1e69f2a5921cf0cd354b889d28bc4d6a9d965092dd47709b650c5',
    ('linear_regression(d=4, n=12, seed=1, noise_std=0.1)', 'aps()'):
        '3e334d32397484dd86ef2b5497e7221ffa61a0e57778cc3fb32b3149511c0b64',
    ('linear_regression(d=4, n=12, seed=1, noise_std=0.1)', 'sps_max(c=0.5, gamma_b=2.0)'):
        'b777437b92460389af81182871267a32cacc6224366753a48e5489d49ce1b5a7',
    ('linear_regression(d=4, n=12, seed=1, noise_std=0.1)', 'adagrad_norm(eta=1.0, delta0=0.1)'):
        'bd0d8f35999a713ca12a09a97caf60cd39d4082ca5f79396d71209f010c7da64',
    ('linear_regression(d=4, n=12, seed=1, noise_std=0.1)', 'constant(gamma=0.1)'):
        '95180790e27f598444448821c9e95d2ad397f3c2dcdba1bc4d57da5fb5217eb8',
    ('linear_regression(d=4, n=12, seed=1, noise_std=0.1)', 'polyak(fstar=0.0)'):
        '229c77da9a5035513d5feaee9eccbfea0a0cf8088b2a2d55311f32c3442cdb01',
    ('linear_regression(d=4, n=12, seed=1, noise_std=0.1)', 'armijo(c1=0.1, backtrack=0.7, gamma_init=2.0)'):
        '03d2630bbb93a4013aa8aff38739dd4bf24162d11eb3cffdaa4d32c1139af706',
    ('logistic_blobs(n=30, d=3, classes=3, seed=2)', 'ngn(sigma=1.0)'):
        '0adad72f475f39fa772c03b9925f1e88cd5eae2bab9938b27fc7e096fbb7900b',
    ('logistic_blobs(n=30, d=3, classes=3, seed=2)', 'ngn(sigma=2.0, schedule=inv_linear)'):
        'a3c789816391beb20b6e7fdc1cb6b751d51310d2ddceda47b3b82b683bdf90f1',
    ('logistic_blobs(n=30, d=3, classes=3, seed=2)', 'ggn(sigma=1.0, h=neg_log)'):
        'ddb379d5883fe10c9a82e79780037e1bc5f91b083576786a05d1e058fa09bbe3',
    ('logistic_blobs(n=30, d=3, classes=3, seed=2)', 'ggn(sigma=0.5, h=monomial, p=3)'):
        '8e319673c8760513f99ff1e6a1eb48a611cfde402403f0a5fbe5b434cc0890a6',
    ('logistic_blobs(n=30, d=3, classes=3, seed=2)', 'aps()'):
        '10b32f05ecf95a86ee2e38f847379f42162c4173cd9b97f7003d5e7589b4ca01',
    ('logistic_blobs(n=30, d=3, classes=3, seed=2)', 'sps_max(c=0.5, gamma_b=2.0)'):
        '56c1080a3e3e0b5b1938f6c68ea85bf8448baad054e288e85b633ce4208e67e5',
    ('logistic_blobs(n=30, d=3, classes=3, seed=2)', 'adagrad_norm(eta=1.0, delta0=0.1)'):
        '010d9a871a13e1996a834e14de289e1a6c8d7eae7a7e0c578d2bc3eedc2e00db',
    ('logistic_blobs(n=30, d=3, classes=3, seed=2)', 'constant(gamma=0.1)'):
        '981213b157baef233e7ff269797fb86d0627dabfbf094137fabbec115627dbd1',
    ('logistic_blobs(n=30, d=3, classes=3, seed=2)', 'polyak(fstar=0.0)'):
        '8db3728f5958eecb1f7f593a2161075418439844b56db2efd96b990990f73d14',
    ('logistic_blobs(n=30, d=3, classes=3, seed=2)', 'armijo(c1=0.1, backtrack=0.7, gamma_init=2.0)'):
        'ece3d0a3a15188fcca3ca08eb5de8bf0af41bc3ec3e714d952e1fa47de03a887',
    ('nonconvex_sum(n=6, seed=1, eps=0.4)', 'ngn(sigma=1.0)'):
        'd03a03313de8e21e38c7c724938a9ec85e936f30d62a2f3c427eb37f1e6146c3',
    ('nonconvex_sum(n=6, seed=1, eps=0.4)', 'ngn(sigma=2.0, schedule=inv_linear)'):
        '8d443e532f15a246ba6c5ed84afdd39ac0fb07570a4cf8f55ea8c771fd2a4c38',
    ('nonconvex_sum(n=6, seed=1, eps=0.4)', 'ggn(sigma=1.0, h=neg_log)'):
        '3b70b66d393555eee24b39facc818af418f05624f80f0167fe13afe43cca206c',
    ('nonconvex_sum(n=6, seed=1, eps=0.4)', 'ggn(sigma=0.5, h=monomial, p=3)'):
        'ead8d0ffc0a1afd74a2d716f347233d1d001167f6866de0bc42fcafd5806030a',
    ('nonconvex_sum(n=6, seed=1, eps=0.4)', 'aps()'):
        'fb1cf29ea7050299702b983c063736d0a2dc4fb6f3e4a5157b6e6cea65a1c20c',
    ('nonconvex_sum(n=6, seed=1, eps=0.4)', 'sps_max(c=0.5, gamma_b=2.0)'):
        '9e0eefb516cebc13c2be671af955d121fb09ff549f6e1aec153e8784f4e94abf',
    ('nonconvex_sum(n=6, seed=1, eps=0.4)', 'adagrad_norm(eta=1.0, delta0=0.1)'):
        'b6e2d30275b19d34a6c717e880169d4eaf37229a4039e78dccb74e9e8e12c324',
    ('nonconvex_sum(n=6, seed=1, eps=0.4)', 'constant(gamma=0.1)'):
        '5a70c7a4b291c98d1ddabd3d7f23628a690e5c11831718aed6be14fbde752a9f',
    ('nonconvex_sum(n=6, seed=1, eps=0.4)', 'polyak(fstar=0.0)'):
        '403452a4796b3e02892cbdf9a0298c3fe45cef27edb6009c3521f9514ea8bb2e',
    ('nonconvex_sum(n=6, seed=1, eps=0.4)', 'armijo(c1=0.1, backtrack=0.7, gamma_init=2.0)'):
        '74bdd286d5cc754d591fe69be4cfd00a06453d343755c1e38de285d96797272c',
}


# Both seeds diverge at step 99 of 150, so the trace writer cuts the rows
# after it and leaves the non-finite cells empty; no run above does either.
# The aggregate is not hashed: it leaves diverged seeds out.
DIVERGING_CONFIG = ("problem = quadratic1d(lam=1.2, fstar=0.1)\npolicy = constant(gamma=2.0)\n"
                    "steps = 150\nseeds = 0,1\nx0 = 3.0\ncadence = 7\n")
DIVERGING_GOLDEN = '47caf7ce9f1b9225428199185c2c2a159e23f45fd2530c70aa98237e080b1415'


# Every run above is at batch 1 on at most 3 classes: these pin the batch
# mean at d > 1 and the class sums of 8 or more terms.
BATCH_PROBLEM = "logistic_blobs(n=40, d=3, classes=9, seed=4)"
BATCH_RUNS = {
    "logistic_ngn": (BATCH_PROBLEM, "ngn(sigma=1.0)", "epoch_shuffle"),
    "logistic_sps_max": (BATCH_PROBLEM, "sps_max(c=0.5, gamma_b=2.0)", "epoch_shuffle"),
    "logistic_armijo": (BATCH_PROBLEM, "armijo()", "full_batch"),
    "linear_regression_ngn": ("linear_regression(d=4, n=12, seed=1, noise_std=0.1)",
                              "ngn(sigma=1.0)", "epoch_shuffle"),
}
BATCH_GOLDEN = {
    'logistic_ngn': 'cc080d7afbfb719bc6809519cebc70cbd4252300a21c4a101b43c4126a9255bf',
    'logistic_sps_max': '0e0e72f7a24084ae0781e24cc1cfbd9ad4330a644c0cfebd57a5ec1a61b89423',
    'logistic_armijo': '82ade432ac9973a12a28f81ba52bd6cdbcc46efaabb33c582b1619e02ee02731',
    'linear_regression_ngn': 'c20a0920043240d0285cf45168674137bb5c888fe21f7a8cc438e358295e1858',
}


# Runs longer or wider than any above, for the trace writer: "long" has one
# gamma (NGN(1) takes 0.5 at every step of two_quadratics) and one sigma
# throughout, crosses a chunk seam (5461 steps at S = 2) and fills a
# CSV_BLOCK_ROWS block; "batch_ids" writes four indices a row.
WRITE_RUNS = {
    "long": ("two_quadratics()", "ngn(sigma=1.0)", "steps = 6000\ncadence = 1\n"),
    "batch_ids": ("linear_regression(d=4, n=12, seed=1, noise_std=0.1)", "constant(gamma=0.1)",
                  "steps = 40\nsampler = epoch_shuffle\nbatch_size = 4\ncadence = 3\n"),
}
WRITE_GOLDEN = {
    'long': '7479127f133c1936b96b936e950d75cfba9a5b113c6e9083429fb8bc6bf16b0e',
    'batch_ids': '09df92ed44d329fdebe8223e4d9e4c0883d1b524aca28434ae036daf8b4f8b77',
}

# One SHA-256 over the report rows of the lemma and gradient checks, which
# evaluate objectives and traces outside the runner.
REPORT_GOLDEN = 'ddf8b75e9573bda4d6d4f7b579c2e98e5749968278f56557047a9d2e9aec7eb1'


# The report rows, at their default arguments, of the checks that reduce a
# run chunk by chunk and that no digest here covers. Criteria 04, 05 and 09
# compute the first three reports and compare them with these.
STABILITY_ROWS = [
    "fig2_ngn_bounded,sigma=0.1;x0=3.0,3.0,30.0,0.0,pass,0",
    "fig2_ngn_bounded,sigma=1.0;x0=3.0,3.0,30.0,0.0,pass,0",
    "fig2_ngn_bounded,sigma=10.0;x0=3.0,3.0,30.0,0.0,pass,0",
    "fig2_ngn_bounded,sigma=100.0;x0=3.0,3.0,30.0,0.0,pass,0",
    "fig2_ngn_bounded,sigma=10000.0;x0=3.0,3.0,30.0,0.0,pass,0",
    "fig2_gd_unstable_diverges,gamma=2.0;threshold=1.6666666666666667,99.0,100.0,0.0,pass,0",
    "fig2_gd_stable_converges,gamma=1.0,0.1,0.100001,0.0,pass,0",
    "fig2_stepsize_settles_below_2_over_lambda,sigma=100.0;tail=100;limit=1.6666666666666667;"
    "spread=0.0024654600351736084,1.6666751521689318,1.6666666666666667,0.05,pass,0",
]
CONTRACTION_ROW = ('theorem_strongly_convex_contraction,"lam=1.3;sigma_factors=[0.1, 1.0, 10.0];'
                   'steps=200",-0.09779614424553329,0.0,1e-09,pass,0')
LOGISTIC_LARGE_SIGMA_ROW = ("logistic_large_sigma_stable,sigma=30.0;steps=10000,"
                            "1.5417672537868619,inf,0.0,pass,0")
STRONGLY_CONVEX_ROW = ("theorem_strongly_convex_rate,sigma=0.1;steps=2000;seeds=20,"
                       "0.1561493917895692,1.0,0.0,pass,0")


def pinned_rows() -> dict:
    return {
        "STABILITY_ROWS": [report.csv_row() for report in check_never_diverge()],
        "CONTRACTION_ROW": check_deterministic_contraction().csv_row(),
        "LOGISTIC_LARGE_SIGMA_ROW": check_logistic_large_sigma().csv_row(),
        "STRONGLY_CONVEX_ROW": check_strongly_convex_rate().csv_row(),
    }


def test_strongly_convex_rate_row():
    assert check_strongly_convex_rate().csv_row() == STRONGLY_CONVEX_ROW


# One SHA-256 over the logistic full objective's values and gradients at
# 1, 3, 7 and 40 points of a 2000-sample, 5-class problem: every run above
# has at most 40 samples, where no array of the full objective nears a row
# block, and 7 and 40 points span more than one.
FULL_ROWS = (1, 3, 7, 40)
FULL_GOLDEN = '0febe5ff69decda1f2e7aec7ce832f9c2551dd2c2353035298563e766d13e06d'


def full_digest() -> str:
    obj = make_logistic(make_blobs_dataset(n=2000, d=20, classes=5, seed=1))
    points = 0.3 * np.random.default_rng(5).standard_normal((max(FULL_ROWS), obj.dim))
    h = hashlib.sha256()
    for rows in FULL_ROWS:
        values, grads = obj.full_many(points[:rows])
        h.update(values.tobytes())
        h.update(grads.tobytes())
    return h.hexdigest()


def test_logistic_full_objective_hash():
    assert full_digest() == FULL_GOLDEN


def report_digest() -> str:
    rows = [report.csv_row() for report in suite_lemmas() + suite_gradients()]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def test_lemma_and_gradient_report_hash():
    assert report_digest() == REPORT_GOLDEN


def digest(tmp_path, problem: str, policy: str) -> str:
    """One SHA-256 over the outputs of the policy's runs under every sampler."""
    full_batch_only = policy.startswith(FULL_BATCH_ONLY)
    h = hashlib.sha256()
    for sampler in SAMPLERS:
        if full_batch_only and sampler != "full_batch":
            continue
        out = tmp_path / f"{len(list(tmp_path.iterdir()))}"
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(f"problem = {problem}\npolicy = {policy}\nsteps = 40\n"
                       f"seeds = 0,1\nsampler = {sampler}\ncadence = 7\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in OUTPUTS:
            h.update((out / name).read_bytes())
    return h.hexdigest()


def test_golden_output_hashes(tmp_path):
    got = {(p, q): digest(tmp_path, p, q) for p in PROBLEMS for q in POLICIES}
    assert set(got) == set(GOLDEN)
    changed = [key for key in got if got[key] != GOLDEN[key]]
    assert not changed, changed


def batch_digest(tmp_path, name: str) -> str:
    problem, policy, sampler = BATCH_RUNS[name]
    cfg = tmp_path / f"{name}.cfg"
    batch = "" if sampler == "full_batch" else "batch_size = 5\n"
    cfg.write_text(f"problem = {problem}\npolicy = {policy}\nsteps = 40\nseeds = 0,1\n"
                   f"sampler = {sampler}\n{batch}cadence = 3\n")
    out = tmp_path / name
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    h = hashlib.sha256()
    for output in OUTPUTS:
        h.update((out / output).read_bytes())
    return h.hexdigest()


def test_batch_output_hashes(tmp_path):
    got = {name: batch_digest(tmp_path, name) for name in BATCH_RUNS}
    assert got == BATCH_GOLDEN


def write_digest(tmp_path, name: str) -> str:
    problem, policy, rest = WRITE_RUNS[name]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"problem = {problem}\npolicy = {policy}\nseeds = 0,1\n{rest}")
    out = tmp_path / name
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    h = hashlib.sha256()
    for output in OUTPUTS:
        h.update((out / output).read_bytes())
    return h.hexdigest()


def test_trace_writer_output_hashes(tmp_path):
    got = {name: write_digest(tmp_path, name) for name in WRITE_RUNS}
    assert got == WRITE_GOLDEN

def diverging_digest(tmp_path) -> str:
    cfg = tmp_path / "diverging.cfg"
    cfg.write_text(DIVERGING_CONFIG)
    out = tmp_path / "diverging"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1  # a seed diverged
    h = hashlib.sha256()
    for name in ("trace_seed0.csv", "trace_seed1.csv"):
        h.update((out / name).read_bytes())
    return h.hexdigest()


def test_diverging_run_trace_hash(tmp_path):
    assert diverging_digest(tmp_path) == DIVERGING_GOLDEN


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        got = {(p, q): digest(Path(tmp), p, q) for p in PROBLEMS for q in POLICIES}
        diverging = diverging_digest(Path(tmp))
        batch = {name: batch_digest(Path(tmp), name) for name in BATCH_RUNS}
        write = {name: write_digest(Path(tmp), name) for name in WRITE_RUNS}
    for (p, q), value in got.items():
        print(f"    ({p!r}, {q!r}):\n        {value!r},")
    print(f"DIVERGING_GOLDEN = {diverging!r}")
    print(f"REPORT_GOLDEN = {report_digest()!r}")
    print(f"FULL_GOLDEN = {full_digest()!r}")
    for name, value in pinned_rows().items():
        print(f"{name} = {value!r}")
    for name, value in batch.items():
        print(f"    {name!r}: {value!r},")
    for name, value in write.items():
        print(f"    {name!r}: {value!r},")
