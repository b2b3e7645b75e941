"""Golden report digests: every file of a ``--synth default`` run, pinned
by SHA-256 for two seeds, so a refactor that changes any output byte fails
here before it reaches a comparison run; and the benchmark's paper-match
input panels and their reports, pinned by the digests the benchmark ships;
and the seed-42 panel at the paper's own scale, saved and run."""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from polyadmit import cli, io_csv, synth

GOLDEN = {
    42: {
        "assignment_S1.csv": "a531a73190e13bd87d2bc2e557a9239d67b24023f0fb816cdf4fb4a55511df62",
        "assignment_S2.csv": "86d6478636fd4f94a4fac8da53eea2ca78668e2de0a63b22dc2c14ab860391cf",
        "assignment_S3.csv": "684f8758a760b83de2a93cbc130f7f9a168090b857079f6dc64a4b13e792bf2a",
        "assignment_S4.csv": "3935879f92a90583d1dfc6dfb44dc188bd519d9a03c4fb434dba42bf5875158e",
        "assignment_S5.csv": "ffe72014ce94887738ec2764b9a4236e1436f89bc7c2b11f06b6f7aed59493da",
        "assignment_S6.csv": "8fd7be374d27dcf142d7615d7de60b4549049e0fd499f7fa075087cf2bdc27ba",
        "calibration.csv": "3d68d767ff5349e6cf470630458f61c5a43f406bdf6e78166c4f3458d8bd8215",
        "figure1.csv": "5f14ca69b87bca5ef3aa8323fe0104d7f2928926cf5e01f49d5a9d59bec2d265",
        "table1.csv": "822d4adb0abaece54d0a5c64a6b1b28413f20adb106e72ada14e473c722dd05c",
        "table2.csv": "0c3147c65bfbdcf76608f2e7c032027b6ff5a9bee1ea5df8f9447226c0cbc911",
        "table3.csv": "3d6c4805e2ff5b0e08a0d166a8dc83bdb7ecb9c9115cd0d0bf267f9af64a97b4",
        "table4.csv": "786100b1a9cbfcc1849e56d01a9719442b76fcc7a31500b6b9f061bb9d834248",
        "table5.csv": "2497b0277e5c9d1f6e3340bca7801a9c4cb0012dbc4e8bc2869e796da21f2b76",
    },
    2024: {
        "assignment_S1.csv": "9ec53bfa1f5bd2b836a0b0a9278b7f201de63ec89b2df4d49a74b5f8f6a56bdf",
        "assignment_S2.csv": "70622f41eee31490dfa4fe9fa4f57dd75f92aea9e97f4da6047194e49ce67b52",
        "assignment_S3.csv": "0c22247f171422c1144c0fd3fbc165c3e408ee1be5b6d4f83b542f23e457c4ba",
        "assignment_S4.csv": "2736d63cedff4ee9711ba2cdb03169a38f7841ec8d0c90753132924d81c7df0f",
        "assignment_S5.csv": "8467ef69c46356b785d7c455607ea597161787ab17a9ac4d283dfef2ed1f75c8",
        "assignment_S6.csv": "e564d4e717d9f6f3085fd9d09b569a59aaa533e2790548745f90a0030278a2fe",
        "calibration.csv": "9f2286c8a09c8d6a05edcef8c9b5543308c9eadfa9853c48aa4201cac65b0a24",
        "figure1.csv": "97202a1b5ace61260e48042ccb7891d696812bf5acad39dcaf2082851770dd08",
        "table1.csv": "c605b8d8a80bfd74d02465d1ed9795060773e5683fc6dda9a8da09fdf5c6c659",
        "table2.csv": "7e94ea4efab393d2d92e8c18e8fc77733f445a4a405d548786855d6931b6a2a2",
        "table3.csv": "348935bbbcb848c4a17fdfd16da2ee7bd955d00524b601bae3da228c3834e7f5",
        "table4.csv": "1ebcef18b8092debbafa72a85cb75eefd5d3d5c51f8807444c2c2946ec0723c0",
        "table5.csv": "9aa34caf4e5ee40b24a8d7bee126146d69dfa99bc8cb9dd94ff0ed3b5eefd533",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_default_synth_reports_match_golden_digests(tmp_path, seed):
    out = tmp_path / "out"
    assert cli.main(["--synth", "default", "--seed", str(seed), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN[seed]


# A paper-shaped panel (the clearinghouse's applicant-to-seat ratio, about
# 110 applicants per program), written by save_panel and read back through
# --input: pins CSV ingestion and every report that path writes, table5
# with classical and with robust standard errors.
INPUT_CONFIG = dict(
    n_applicants=1800, n_programs=16, n_fields=4, seats_total=round(1800 * 16655 / 50894), seed=42
)
INPUT_GOLDEN = {
    "applicants.csv": "8357ec6e0e1d28ac4bc94954cd07c266d25a9b42cef8ed38ca0e595be3edf13b",
    "applications.csv": "a36e4a017090393cb037b438c2b67f0d088aefe2289ade748492a6d78807f442",
    "bonus_points.csv": "415b5cfd95992a3ef01896d75648b04d549cceb30cc611e40ce6e6f049bac928",
    "field_weights.csv": "07c13b6fd93179657c2500b0edf8cf6dd4b2be338c356a23a173e7816f932010",
    "observed_assignment.csv": "2d5ba69171897dcf0323e38cd6985274e767090eacd28d1a184c19ed4f8b9bf2",
    "programs.csv": "a112d41271028246ae29112abaf17868a9ef2fe930811e880bcf33b3d1e6160b",
}
INPUT_REPORTS_GOLDEN = {
    "assignment_S1.csv": "9fb434e60196481e6d24629048f579dd85f972062cb93422c916c6107156dd05",
    "assignment_S2.csv": "d947290689dfd77950f113ce338d69a219f26539033210bdd1f6070385432631",
    "assignment_S3.csv": "460971df927936e835ec36f279b7b7899ae3927506d44c114873806e39da1fa0",
    "assignment_S4.csv": "a5a1d4f8fa0c44f0c7585856a95b15f5deafb2d4dda14bcef8f99ee03969a98d",
    "assignment_S5.csv": "fa4bb95057b052fde1d72ac50a91477f25ab2a0085324dbeae97f779b7c37aab",
    "assignment_S6.csv": "731293d9f3b71c0a08815d0ec9be9a22e67f0b684bbe2117d0f500b0b9d86f12",
    "figure1.csv": "4692f5f4bbafb72088c9047f15dac91b5b714b7917818c3dc486b3bdc50afebe",
    "table1.csv": "2aa05df48ea23b3dae6b108cd5c7d436c4ea8e3e336f5fad49a319d40b1ca327",
    "table2.csv": "b3477a1e25c388de8aa58a34c16694dd119f49ecdd1d97f350fea9a932a42f7d",
    "table3.csv": "2e91d75597ecd40a2f6b462c7594bee6472cc7905e5f62026c50023e37427ef9",
    "table4.csv": "8d47abf566e6aaec1c307823b1b9063bd5db87ed950df90340f77bf8ffa15d87",
    "table5.csv": "4b460b5a2d2628207f2fc40b23a0988abb4e0519291a0ec069c5daef025964af",
}
INPUT_ROBUST_TABLE5 = "2228462ca79a6d20ecc7c55b6da9f48736b8110595816f98eeafde5cfb7f57f1"


def tree_digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


@pytest.fixture(scope="module")
def paper_shaped_input(tmp_path_factory):
    directory = tmp_path_factory.mktemp("input")
    io_csv.save_panel(synth.generate_panel(synth.SynthConfig(**INPUT_CONFIG)), directory)
    return directory


def test_paper_shaped_input_matches_golden_digests(paper_shaped_input):
    assert tree_digests(paper_shaped_input) == INPUT_GOLDEN


@pytest.mark.parametrize("robust", [False, True], ids=["classical", "robust_se"])
def test_input_reports_match_golden_digests(paper_shaped_input, tmp_path, robust):
    out = tmp_path / "out"
    args = ["--input", str(paper_shaped_input), "--out", str(out)]
    assert cli.main(args + (["--robust-se"] if robust else [])) == 0
    expected = dict(INPUT_REPORTS_GOLDEN)
    if robust:
        expected["table5.csv"] = INPUT_ROBUST_TABLE5
    assert tree_digests(out) == expected


# The paper's own scale (the counts the generator calibrates against):
# its six input files and the 12 reports of an every-report --input run.
# It takes a few seconds, and it is the one golden with pools of the
# paper's size: 440 programs over 50 894 applicants.
PAPER_SCALE = dict(n_applicants=50894, n_programs=440, seats_total=16655, seed=42)
PAPER_SCALE_GOLDEN = {
    "applicants.csv": "9b324a85d148db050b9dc84767f631be4b2e204d727b3d23ba4a7e65657ad962",
    "applications.csv": "92b7a2e60c308fb5ee0e81b25b847fe623e2f2dcbfd1a5336325556d99fdd4ed",
    "bonus_points.csv": "f127214d87bf5aab31b18b390136d19c908b985b8544633f0d26fdb0e0822757",
    "field_weights.csv": "7f2ac3d103d234471d3eb2f62eb66975a4230987f6f03b411315e4e5015b29dd",
    "observed_assignment.csv": "55aeaaf1e8c2c5bcc056c751352dc6aa373d516fc2f53134c4b5d709fc77fc50",
    "programs.csv": "ae62855c254f8a1fb82b126e7fdbfad2d40b12b855250773e0c4aaa90b357c3d",
}
PAPER_SCALE_REPORTS_GOLDEN = {
    "assignment_S1.csv": "232e760449e84cfa4995a9b2ac056a959d8798d3cb2c2b8e8918e0a09f6ee3d2",
    "assignment_S2.csv": "081489aaff44a124cd3016d82dccab9e870832e9b593f7826783fe9c9cb2359b",
    "assignment_S3.csv": "1fb43fab2399102a3be2e4f42976a0655a623aa8f58136abdbfb74593674489d",
    "assignment_S4.csv": "5e316487d324303df7d7c496314a5c3651836478fc7d1dacf944a5362c96f6c0",
    "assignment_S5.csv": "c70db5938040a148865bbdcbb369a680b4d8803dcc7d92c6a8ba7cc07a3d40c3",
    "assignment_S6.csv": "d79474ad4fb9fcec6f0b8b3bb2d62eb151eaa2ed5244273d1af321275a1805a2",
    "figure1.csv": "4a28204749ae17f99a7ab5cee79330aeeffe8ad7c6a4be11a01fed8315feacab",
    "table1.csv": "28731dd3220214165a3f07d547bef3812283d907125452e15ce9c753f6f91d2c",
    "table2.csv": "118f8a1b008c2809c11de826cecb691b7da796ce464bdcd897967c63f7be5157",
    "table3.csv": "69c6b2789da7ce19c84d47b5098338873396c989433e4ebf01ed32a602605e28",
    "table4.csv": "47636185a1512cb2236e011f7899e619fffd53a1aa3bcfe42c1ae29d2b8d1feb",
    "table5.csv": "03d83f677a5735ee1d848cf53d718aa0b51fe4443a9e9f4096f83bfd5ee08ce2",
}


def test_paper_scale_panel_and_reports_match_golden_digests(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    io_csv.save_panel(synth.generate_panel(synth.SynthConfig(**PAPER_SCALE)), data)
    assert tree_digests(data) == PAPER_SCALE_GOLDEN
    assert cli.main(["--input", str(data), "--out", str(out)]) == 0
    assert tree_digests(out) == PAPER_SCALE_REPORTS_GOLDEN


# The benchmark's paper-match inputs (the paper's counts divided by eight),
# whose tree digests perfbench/reference.json ships: the benchmark refuses
# to run when the generator stops producing these bytes. Its paper-match
# workload runs the CLI on them with the reports below, and checks the
# report digests the same file ships.
BENCH_REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.json"
BENCH_PAPER_PANEL = dict(n_applicants=6362, n_programs=55, seats_total=2082)
BENCH_PAPER_REPORTS = ["--reports", "table4,assignments"]


@pytest.fixture(scope="module")
def shipped():
    return json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=[42, 2024])
def bench_input(request, tmp_path_factory):
    """A seed and the paper-match input the benchmark generates for it."""
    directory = tmp_path_factory.mktemp(f"bench_input_{request.param}")
    cfg = synth.SynthConfig(seed=request.param, **BENCH_PAPER_PANEL)
    io_csv.save_panel(synth.generate_panel(cfg), directory)
    return request.param, directory


def test_benchmark_inputs_match_shipped_digests(shipped, bench_input):
    seed, directory = bench_input
    digests = sorted(tree_digests(directory).items())
    lines = "".join(f"{name} {digest}\n" for name, digest in digests)
    assert hashlib.sha256(lines.encode()).hexdigest() == shipped["inputs"][str(seed)]


def test_paper_match_reports_match_shipped_digests(shipped, bench_input, tmp_path):
    seed, directory = bench_input
    out = tmp_path / "out"
    assert cli.main(["--input", str(directory), *BENCH_PAPER_REPORTS, "--out", str(out)]) == 0
    assert tree_digests(out) == shipped["reports"]["paper-match"][str(seed)]


# A CSV panel with the sparse edges that the workloads above never reach:
# a program nobody lists, a program listed only in later years (so only
# the extended lists hold it), an applicant who applies only in the
# second year, and an observed file naming an applicant the panel lacks,
# without a seat. The new programs come first in programs.csv, and the
# new applicant comes last in applicants.csv, so file order and id order
# differ.
SPARSE_CONFIG = dict(n_applicants=400, n_programs=12, n_fields=4, seats_total=130, seed=7)
SPARSE_REPORTS_GOLDEN = {
    "assignment_S1.csv": "659bfc2bc9b87574fa0819d0a4865ac17b271745d2ec7e9a4c890faa12e48ae9",
    "assignment_S2.csv": "05f98cae4dddebaf24ce5f70e63bd45260928c87974a9729fd9af59bfec55e13",
    "assignment_S3.csv": "6b4215861bb7241deea590ca0dbeac77edac0e6ecdf7084e0eab5ffeae8994a9",
    "assignment_S4.csv": "d4dc53ba45716abf49a0571834eaf390c23a2e2ab84cc9ea2a9e0ce094f4fbab",
    "assignment_S5.csv": "a4fd1dd8e8f54814e79b6cb82dc69657256dd0d8b336efc47c4902d7bfb5df0f",
    "assignment_S6.csv": "85432ea59017fc2232fa4c0adbd49d4239018e30db48df37929b809b8898612a",
    "figure1.csv": "0fcf7283bdb732285ac2601f99d6300e818187073a62ba1779412843696808f9",
    "table1.csv": "dfbd6958d3ff3c4196f33ef451cd4c4cb681126a30f35a9bdab898dbf9de31c1",
    "table2.csv": "7c2554dd72b5726446eaf79552c5940b88d5c0bd56d48415fc64968e3718d0e2",
    "table3.csv": "a45245a1dc3eccbfc06807a32ebd09dfa8a43c8d7fa48959dd88945598ad5539",
    "table4.csv": "4f0b89018eafc48f9468b881d386213d09d562dc1a8f4a9d642f7510d4c8e817",
    "table5.csv": "5278ebc1ef06276e855471f7495982ed3cbec8f2499ed7ac6e45bdd151bcf7d3",
}


def _edit_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *edit(rows)])


@pytest.fixture(scope="module")
def sparse_input(tmp_path_factory):
    directory = tmp_path_factory.mktemp("sparse")
    io_csv.save_panel(synth.generate_panel(synth.SynthConfig(**SPARSE_CONFIG)), directory)
    later_only = ["Polytechnic X", "Later Only"]
    _edit_csv(directory / "programs.csv", lambda rows: [
        ["Polytechnic X", "Unlisted", "field0", "5"], [*later_only, "field1", "3"], *rows
    ])

    def later_years(rows):
        for year, applicant_id, *names, rank, taken, score, other in rows:
            if year != "2011" and rank == "1" and int(applicant_id[1:]) % 5 == 0:
                names = later_only
            yield [year, applicant_id, *names, rank, taken, score, other]
        yield ["2012", "a00150b", *later_only, "1", "true", "21.500000", "0.000000"]
        yield ["2012", "a00150b", "Polytechnic 3", "Program 003", "2", "false", "0.000000", "0.000000"]

    _edit_csv(directory / "applications.csv", lambda rows: list(later_years(rows)))
    _edit_csv(directory / "applicants.csv", lambda rows: [
        *rows, ["a00150b", "2012", *next(r for r in rows if r[0] == "a00150")[2:]]
    ])
    _edit_csv(directory / "observed_assignment.csv", lambda rows: [*rows, ["a00200z", "", "", ""]])
    return directory


def test_sparse_input_reports_match_golden_digests(sparse_input, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["--input", str(sparse_input), "--out", str(out)]) == 0
    assert tree_digests(out) == SPARSE_REPORTS_GOLDEN
