"""Golden CLI outputs: sha256 of stdout and the exit code of fixed commands.

The digests pin the exact bytes of intersection numbers, tau exports in both
variable sets, initial data, affine tables of both sources in JSON and CSV,
b_k and verifier verdicts, so a new route for any of them must reproduce the
old output byte for byte; an --output file holds the bytes pinned for stdout.
POINT1..POINT4 stand for point files written from `seeded_point_json`.
"""

import hashlib
import json

import pytest

from kdvtau.cli import main

from conftest import seeded_point_json

POINTS = {
    "POINT1": (11, 21, True, False),   # dense, small fractions
    "POINT2": (12, 21, False, True),   # sparse, 8-digit integers
    "POINT3": (13, 21, True, True),    # dense, 8-digit integers
    "POINT4": (14, 30, True, False),   # dense, small fractions, deep enough for tau 14
}

GOLDEN = {
    "intersect 0,0,0": (0, "8218d2c2912c383b72059c7d771dd09aae12b24b03d7cb42ed59498509f02157"),
    "intersect 1": (0, "169db700db0669f30b28c566d38096b5df91cabc1802186b5d6497f86fb40ed8"),
    "intersect 0,0,0,1": (0, "22942b7384b4870e79219037ebcebc7aa764194cca65b1051fa536d24dbf4929"),
    "intersect 1,1": (0, "e829856837f5414278f675e236a06054e001fd71767dfaa93ddd326f3ffba3cd"),
    "intersect 0,0": (0, "1e59557ef348dd6d4dd6cf73877e93f3b3e7f3c6e67741578852b0a3a32fe641"),
    "intersect 4": (0, "f43de4f61ebbe09c1abe2b473a4e0720130907c41227236be1cb5af91669b0e2"),
    "intersect 1,1,1": (0, "8bcfe5c687411f8f005a964ece52da23e5d573c697dafc6dcedef41cdffab4e5"),
    "intersect 2,3": (0, "08daa1db0d433aa9c40e4d1c4b6e5c3e67bd63291546eb4e43537b77348162d4"),
    "intersect 1,1,1,1": (0, "7b0a6e2e2bece996c9d227021da8f77d812f0ce9ad44d0215259f20b2fc5d7e3"),
    "intersect 7": (0, "118512a970945bd7e8e2705da27f2770980a0ce9ce51cddaa7f27369dbc21f00"),
    "intersect 2,2,2": (0, "5f615613cd11921d35e868174925837a4ee47969c540b7eb32ce5cbead58ff5c"),
    "intersect 10": (0, "99db64db37faea929373b21ddf0be3c726d31b95cb82fd3d1d2a91ea7d1334cd"),
    "intersect 3,5": (0, "ea6c836bf40bca18251c9550f752bfde8fac69ca15b212a014eae77fa645ae4c"),
    "intersect 3,3,3": (0, "0c02d35423d3df6805cead9353ef211974d0e34a6ef445485e837c59b98dff58"),
    "grassmann POINT1 --tau 10 --tau-vars theta --initial-data 8": (0, "a518d91f397678ea8058948664ce4fd3717095e2e90372be6c1e0be072d08067"),
    "grassmann POINT1 --tau 10 --tau-vars t --initial-data 8": (0, "24a2e6a0ddae88c30fe1aa719d70ffba80ef46867273f2855a2c0cb4acfcb955"),
    "grassmann POINT2 --tau 9 --tau-vars theta --initial-data 7": (0, "d8c78a4de1e20c979a16d0c15b21dadf4369994a5e220f23afcc8fc83c94582b"),
    "grassmann POINT2 --tau 9 --tau-vars t --initial-data 7": (0, "afbc33d00400ac4b4347fbdcfa87c7c68abba3e3e1f32a9974bb7c245d637026"),
    "grassmann POINT3 --affine 5 5 --tau 8 --tau-vars theta --initial-data 6": (0, "83916401d912a8367f39b2ec3882c5906181717768b17a1bde71391944d7ea41"),
    "grassmann POINT3 --tau 8 --tau-vars t --initial-data 8": (0, "9e9a3ee2c7070f308218fb9ea77b9f91209534da40131d63678b5100ca612827"),
    "grassmann POINT3 --tau 10 --tau-vars theta": (0, "18b5b42bed68a79af64a589b8e82084374eecdee83a7ccf70a78b82994d39cce"),
    "verify string --depth 9 --point POINT1": (1, "2accd092aac6d0a38654f8fff61faddbdd8553eb36006bab31be9e792e29bab1"),
    "verify kdv --depth 10 --flow 1 --point POINT2": (0, "0348969ab94c0eebfa5ffbb5540b64d1f4042aa773e8d633eee8aa6717605dd1"),
    "verify kdv --depth 9 --flow 2 --point POINT3": (0, "f03735b4c4410ae6615777cc9c8390779e5e2682c90de4038db2bab1e4164dbc"),
    "verify string --depth 9": (0, "77cfae359e3fc46f31cadadbbbdd1b28893cc4c82c09dadb515267d9b5ebc688"),
    "verify string --depth 12": (0, "1dde6dffeb60c1100d439b17e32ed5b4ae7032c62e859073617d13d9ab8066fa"),
    "grassmann POINT4 --tau 14 --tau-vars theta --initial-data 12": (0, "8659e58ee88fcd85befd324703dddfee67d3a504726929dfc6ad544c4c12fa48"),
    "verify string --depth 15": (0, "62c075f5fc26e743c2988b26025cdb4ca23d61a92aca7e8cc42b04a024adaac0"),
    "affine --source zhou --max-m 0 --max-n 0 --format json": (0, "18ebb5d30e0604e04fda682c6b746783c7e43492ec0bfd1e3f50d16544dabeda"),
    "affine --source zhou --max-m 2 --max-n 2 --format json": (0, "1c4477df0f9d01b872b94023813bb2ef41d88406c6dcef54126bb0635d0bdf48"),
    "affine --source zhou --max-m 12 --max-n 12 --format json": (0, "5ce1af7c8b3d20a759ddd28712980a613f9381b09b9cc855405fae5758e24db7"),
    "affine --source zhou --max-m 44 --max-n 44 --format json": (0, "37870fca0486fff1a2f94a9c759968cdbbb8cb133d11ece123ee5fbcc87e3de0"),
    "affine --source zhou --max-m 57 --max-n 57 --format json": (0, "decd423a15d56c32e91368954070d2d1996cdf070fd46d19f491da0df2ab486d"),
    "affine --source zhou --max-m 68 --max-n 68 --format json": (0, "6664a6b25054bf8952fa691ee4e000e3d8c771d30dcc809e9fc4061b5d1d544e"),
    "affine --source zhou --max-m 69 --max-n 69 --format json": (0, "c8f788bb3bbf616daedb37ece89fc9d6c7b32104241540ff56963bc7d29fec83"),
    "affine --source zhou --max-m 7 --max-n 3 --format csv": (0, "9e4a3f8f647fa308a4b76110635b33abdb079e991edfb23bab112c85d561743b"),
    "affine --source zhou --max-m 3 --max-n 12 --format csv": (0, "41f61e20462fac6f3293713059d6b816ffe2f1a494d7168c61a96e5f0d7817d6"),
    "coeffs --kind b --max 30": (0, "7ad5d62e46b7c8d2b9e863f872d1ffd39fb402016bfae154fcd7b703919d04bb"),
    "verify zhou-match": (0, "6409c19f3a03f46f2a89d2f7f74f1477fcc09252c910d3e8acab1db449151465"),
    "verify symmetry": (0, "864e4df26e2cdf6a0d963fe2429a0dcef5129ef55d9543c9c604eb9161dc3578"),
    "verify recursion": (0, "f2697b6ecd6440ff466860788acd39a20299c8dabd58b377b51097a03ff3a2dd"),
    "verify all": (0, "8ac67272156f8d52745204c67026c2ee17dce9518c1675b67d339d63e920597b"),
    # off the default depths, so that the zero-aware arithmetic and the shared
    # Z table are pinned outside the ranges `verify all` reaches
    "verify recursion --depth 24": (0, "4535cc1e1405e00b184deab86768b6368e7e68831d001cae0b2a8f7805e0da07"),
    "verify symmetry --depth 40": (0, "bab9bbf2000da42c42fdd3958dd0d3427577ce210c30635aa1eac2f53124f429"),
    "verify genfun --depth 25": (0, "0c6181d9c7af16afb1345ed2cb0511a6f6615bc26054a1a81454225fd8c321fb"),
    "verify vmatrix --depth 5": (0, "eb3cc7d5a1fc28ba0a76918eede1643e63ae338dc08a5aa8f61a20b450c8b759"),
    "verify thm2 --depth 4": (0, "900643477755a9bd13a87873d6186a42ec14b094ff4837e211055530fbb6aa97"),
    "verify vmatrix --depth 8": (0, "b8618c2919ec41352b957d557b010a4f12a2efdd719a3ae45357f168e303bcaf"),
    "verify thm2 --depth 6": (0, "59532fc0636e1427fbe70ca746b9255f1a3386642bf7cff959dbb8d49acc6ed2"),
    "verify zhou-match --depth 45": (0, "f4815a8b1d022b86c30262cad6f8e2236246c8739c72c1166c00211d644c2a8f"),
    # correlators, mixed affine/tau tables, the kdv residual report and the
    # grassmann affine route, pinned before the correlator record was dropped
    "intersect 2,2,2,2,2,2": (0, "9045d33d66022cf5500fa647b61f329fb02ba744356240199b8791b020d322e5"),
    "intersect 28": (0, "4eefbb2266ee084e6ce337dd159291aa9af14ade010b6b5b07efcb9b663a5ca5"),
    "intersect 3,3,4,5": (0, "c652e43fd7fd4138413d96a639bcc51f52b6e37398c1ae70416a4b7469757bab"),
    "grassmann POINT3 --affine 9 2 --tau 6 --initial-data 4": (0, "47a0aed6f37dff34613f6feba8dd1dba2dd5da53431cff3b4e1bd4fa5c933104"),
    "verify kdv --depth 12 --flow 3": (0, "544e3b0e8d40fcb02720038a22273119d820daf693b8455cf0758178804b1fce"),
    "affine --source grassmann --max-m 12 --max-n 12 --format json": (0, "768a57b8df580cfa92e17d0fbdaf2ec380f4b15c7e2ab37ba95831170e6bb1ef"),
    "affine --source grassmann --max-m 9 --max-n 4 --format csv": (0, "533b29de9e2238124f88e9698ec90486c8cf35b39df605a483c4d017af69861d"),
    # correlators at high genus, with three and four insertions (W = 36 is
    # even) and with nine, pinned before they were read off the integer lift
    "intersect 88": (0, "c3f4e43b3414581fb236e3dbcdabec594960d7c147c22efca040d1a54bdeb066"),
    "intersect 10,10,10": (0, "bc54c9180899e683784d315cbca2f553f954ec0f91bba87c6f61972cf3179bcf"),
    "intersect 2,3,5,6": (0, "439d5f7c09e113ffe828931e27f4eb93a90e45f15e68b6fbe2dfb39d1839a613"),
    "intersect 2,2,2,2,2,2,2,2,2": (0, "b44a24adbf4d8560f34d43ece53ccab486a0f7cccfc26d1a7cc66575b9b74df5"),
    # the Grassmannian export at the benchmark's depths, non-square corners
    # and CSV from both sources, and the point-file export in CSV and alone
    # in JSON, pinned before the exports were streamed from integer pairs
    "affine --source grassmann --max-m 69 --max-n 69 --format json": (0, "c5253690320daa071cb4423ecf2e0468d88db6f34dc68d0fe5c2dbc3f4b9a3f2"),
    "affine --source grassmann --max-m 44 --max-n 45 --format json": (0, "07b15981b97476222ca1f4e5a03a1e001b49c3cfce3b5b61328a35f317079897"),
    "affine --source grassmann --max-m 45 --max-n 44 --format csv": (0, "050051d3f11eda9731d8bf5c91c336952a8968da54d968583b5e8cf5ff1315b7"),
    "affine --source zhou --max-m 45 --max-n 44 --format csv": (0, "050051d3f11eda9731d8bf5c91c336952a8968da54d968583b5e8cf5ff1315b7"),
    "grassmann POINT4 --affine 11 11 --format csv": (0, "31ba53649ded79eedd4e5d08128e3fe92a9866a0c7a9200b066846f259f444ae"),
    "grassmann POINT3 --affine 9 10 --format csv": (0, "772a08118d6f17ed7084c2f8cefce4f3635b731af69415e0ff7b89e1558a45a7"),
    "grassmann POINT3 --affine 9 10": (0, "42c15f518b9abe9eef04940e9453f34ebfa275769576a37428ccb80df9b90302"),
}

# commands whose --output file must hold the bytes GOLDEN pins for their stdout
OUTPUT_FILE = [
    "affine --source grassmann --max-m 44 --max-n 45 --format json",
    "affine --source zhou --max-m 45 --max-n 44 --format csv",
    "grassmann POINT3 --affine 9 10",
]


def golden_argv(command: str, tmp_path) -> list[str]:
    argv = command.split()
    for i, arg in enumerate(argv):
        if arg in POINTS:
            path = tmp_path / f"{arg}.json"
            path.write_text(json.dumps(seeded_point_json(*POINTS[arg])))
            argv[i] = str(path)
    return argv


def run_golden(command: str, tmp_path, capsys) -> tuple[int, str]:
    code = main(golden_argv(command, tmp_path))
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_output(command, tmp_path, capsys):
    assert run_golden(command, tmp_path, capsys) == GOLDEN[command]


@pytest.mark.parametrize("order", [1, -1], ids=["wk-first", "point-first"])
def test_string_suites_in_one_process_keep_their_own_output(order, tmp_path, capsys):
    # the tau memo of `verify` must not hand one call's tau to another
    for command in ["verify string --depth 9", "verify string --depth 9 --point POINT1"][::order]:
        assert run_golden(command, tmp_path, capsys) == GOLDEN[command]


@pytest.mark.parametrize("command", OUTPUT_FILE)
def test_golden_output_file(command, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(golden_argv(command, tmp_path) + ["--output", str(out)])
    assert capsys.readouterr().out == ""
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == GOLDEN[command]
