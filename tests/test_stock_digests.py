"""SHA-256 digests of the stock outputs, byte for byte.

Each case runs the CLI in a fresh directory and hashes what it writes: the
files it names and its stdout. A change that claims to keep every output
byte-identical is checked here, not by a manual diff of two output trees.
The digests were taken from the code before the per-frame cost cuts of
the render box, the mask packing, `pi_step` and the component pass (the
`segment_words` case's before the byte-pair decode of `narrow_channels`),
and they hold on any host with IEEE float64 arithmetic.
"""

import contextlib
import hashlib
import io

import pytest

from colortrack.cli import main

CRITERION_9_CONFIG = ("kind = step_track\nduration = 2.0\n"
                      "motion = fixed\nmotion_az = 15\nmotion_el = -10\n")

# The corner start of scripts/run_step_track.py.
CORNER = ("--set", "kind=step_track", "--set", "duration=5.0",
          "--set", "motion_az=20", "--set", "motion_el=15")

# A still off the frame"s centre and pixel grid, one per shape kind.
STILL = ("--set", "motion_az=3.3", "--set", "motion_el=-2.1",
         "--set", "object_size=6.5")

# case -> the commands it runs, in order; every file a command names with one
# of OUTPUT_FLAGS is hashed, and so is its stdout.
OUTPUT_FLAGS = ("--csv", "--report", "--out", "--mask-out", "--words-out")
CASES = {
    "track": [("track", "--csv", "track.csv", "--report", "track.txt")],
    "track_corner": [("track", *CORNER, "--csv", "corner.csv",
                      "--report", "corner.txt")],
    "clock": [("clock", "--csv", "clock.csv", "--report", "clock.txt")],
    "sweep": [("sweep", "--out", "sweep.txt")],
    "criterion_9": [("track", "--config", "det.cfg", "--csv", "det.csv")],
    **{f"segment_{kind}": [
        ("render", *STILL, "--set", f"object_kind={kind}",
         "--out", "still.ppm"),
        ("segment", "still.ppm", "--pick", "230,120,30",
         "--mask-out", "mask.pbm")]
       for kind in ("disk", "triangle", "rectangle")},
    # a dimmed still, so that the object's channels are not the stock ones
    "segment_words": [
        ("render", *STILL, "--set", "illumination=0.61", "--out", "dim.ppm"),
        ("segment", "dim.ppm", "--pick", "140,73,18",
         "--words-out", "mask.words")],
}

DIGESTS = {
    "clock": {
        "clock stdout":
            "bd6d8e48f878f53185bc9adbdfb9695dea6897140595277bc339e74091240d73",
        "clock.csv":
            "f092de8603cc2250e38e6dd51987af372074f0a1f3e4013e6d9a61c0c0499989",
        "clock.txt":
            "513b8cfdabd339333b3ca3625538937c48090eb111ed0198beaca9f8ac29b034",
    },
    "criterion_9": {
        "det.csv":
            "916281407e1cff910cf7fe6c546b0d5c2bbe15c385caffc9f5b6002a2435a42a",
        "track stdout":
            "d9677f5c17ea988a2e98d4e20732fd5dec45781d17037c607d2eb5bbbd8a0321",
    },
    "segment_disk": {
        "mask.pbm":
            "b54efe93fcc45d9e386e757d5ed13a73aec334f3132ede9c18693c21366ba139",
        "render stdout":
            "230d57329dc0244cccd391ad3260e90933f8b73eead2b731c09fbe179c9ff458",
        "segment stdout":
            "211c945062b640a92444c678c74e7595db3b1a02f6a857f509cc1dee292a40aa",
        "still.ppm":
            "54100b948329da7a326b85b883a3d7235ecbb5d6145f45ca0354ebecb834b895",
    },
    "segment_rectangle": {
        "mask.pbm":
            "c6056a141390f1acfe802a938fe08839ad9de2d922dad1189f61ec5664f50a01",
        "render stdout":
            "230d57329dc0244cccd391ad3260e90933f8b73eead2b731c09fbe179c9ff458",
        "segment stdout":
            "cc9093e8ca19fcd74b29b63e6b8ceca65025fef968ee3fccfffccb97b60f382a",
        "still.ppm":
            "1c29c4436d4a176620a02593917af7c1420f1d8152e7aa339f4d0f37d0cd57c5",
    },
    "segment_triangle": {
        "mask.pbm":
            "654e2fea883214968bd9f2d130d17917d4c618991bef6fa06215b60f4c865671",
        "render stdout":
            "230d57329dc0244cccd391ad3260e90933f8b73eead2b731c09fbe179c9ff458",
        "segment stdout":
            "9f3c5e13db7d1fd345048977c107a8d2b3720e55b20b631f5e4dba59a81c595e",
        "still.ppm":
            "cbb253a5471b3371e2f7ba7b4299f72b8e900df422fe9f944924e487e1d31664",
    },
    "segment_words": {
        "dim.ppm":
            "22afec7f1ce9307596d5bb40c7b552032534d9a5e9eca17c1bc7fcb8d52890bb",
        "mask.words":
            "9b90adab3306865d7c357bf0516ad17e8bda95d8b6dbb2b697963304aa822a62",
        "render stdout":
            "8217aa1e7cf4e57d3e358225ac9306b8d296351441dcc08fbd4ce6af387d082c",
        "segment stdout":
            "211c945062b640a92444c678c74e7595db3b1a02f6a857f509cc1dee292a40aa",
    },
    "sweep": {
        "sweep stdout":
            "b0c8dd24f46cc8aa1f7d9b05078ec31cb309ff0228367dd701ce5a7decd05bd3",
        "sweep.txt":
            "b0c8dd24f46cc8aa1f7d9b05078ec31cb309ff0228367dd701ce5a7decd05bd3",
    },
    "track": {
        "track stdout":
            "557f40582ae19324dd775f4411f6a1407c595cb3c335eaf9156769c427ee6c05",
        "track.csv":
            "0aaef44c76a61d73e1d28a0ead7670996ec629cae9fcc8516726c09bbfad76dd",
        "track.txt":
            "557f40582ae19324dd775f4411f6a1407c595cb3c335eaf9156769c427ee6c05",
    },
    "track_corner": {
        "corner.csv":
            "a335655dd977d6b2aa874f8b0daf64751b1a114b596db5175b4d2ef5465cd432",
        "corner.txt":
            "6c9a6c101c5d2b971aea531a136ecdeea8b6f83c2ab24a6728c341732ef835b6",
        "track stdout":
            "6c9a6c101c5d2b971aea531a136ecdeea8b6f83c2ab24a6728c341732ef835b6",
    },
}


def produce(case) -> dict:
    """Run one case in the working directory; SHA-256 of each output."""
    with open("det.cfg", "w") as f:
        f.write(CRITERION_9_CONFIG)
    digests = {}
    for argv in CASES[case]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0
        digests[f"{argv[0]} stdout"] = _sha(out.getvalue().encode())
        for flag, value in zip(argv, argv[1:]):
            if flag in OUTPUT_FLAGS:
                with open(value, "rb") as f:
                    digests[value] = _sha(f.read())
    return digests


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stock_output_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert produce(case) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_stock_outputs_written_over_longer_files(case, tmp_path, monkeypatch):
    # every output file already holds 1 MiB of other bytes
    monkeypatch.chdir(tmp_path)
    for argv in CASES[case]:
        for flag, value in zip(argv, argv[1:]):
            if flag in OUTPUT_FLAGS:
                (tmp_path / value).write_bytes(b"\xa5" * (1 << 20))
    assert produce(case) == DIGESTS[case]
