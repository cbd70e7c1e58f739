"""Golden corpus: the CLI's `solve` and `kappa` output, byte for byte.

Each instance is named "<pattern>/<n>/<seed>"; the pattern is a
`gen_circle` pattern or "mirror" (m = n/4 first-quadrant points and their
images (-x, y), (-x, -y), (x, -y), so every coordinate is shared).  The
digests were recorded from the solver before its refinement loop was
folded into one `solve_axis`; random/60/14 and random/100/34 (two
refinement steps each) were recorded later, before each step was cut to a
single flip.  A refactor that changes any output byte fails here.
"""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sepline
from sepline.cli import main
from sepline.generate import gen_circle
from sepline.geometry import (BLUE, RED, ColoredPoint,
                              circle_point_from_parameter)
from sepline.serialization import dumps, instance_to_doc

# name -> (solve --variant axis, solve --variant general, kappa)
GOLDEN = {
    'random/2/1': ('db8e3e2ed60b6632', 'b14a5249d60efd35', '08f2f66cf9aac3dc'),
    'random/3/2': ('3fff1d465430cd4d', '68cd33dd105e14b7', '9e1b46ac4d95451c'),
    'random/5/3': ('f88ba9ab49f5b3a5', 'eb7057ba237bf622', '7ba6c1045d8a8c17'),
    'random/7/4': ('462a87d6db08dadf', 'e75da10dc1bce4aa', 'e964d764303d7e5c'),
    'random/9/5': ('8317ecb67cd97f19', '86034be3816e54ca', '468b57a8e70b0bd1'),
    'random/12/6': ('d1b9805aff8107bc', '6646c88c45b5eb14', '0935e7461d6208c8'),
    'random/16/7': ('5bb128c4a7718f1c', '5eae7eade9e6d716', '698f813db2284189'),
    'random/20/13': ('19d0582c0f265628', '45faf8d0e0358013', '0c3535a3fdab3d1c'),
    'random/24/8': ('4ec4e2317d1a6a40', '50b826a284e1631d', 'ac17e8626a94c89c'),
    'random/32/9': ('5c5d768ec7a3ab1d', 'd57e784ceda7cf13', 'b0f4e09df8fd7fad'),
    'random/40/14': ('c450b938572254e5', '874110a4b45c4b56', '5ec9a49fc9c89d45'),
    'random/48/10': ('d27e0d4f7abaf682', 'bd64ee270b123124', 'a3852dda83448d88'),
    'random/64/11': ('72075d5c008273ba', 'c13141644d949655', 'f49de3558b20df74'),
    'alternating/2/1': ('db8e3e2ed60b6632', 'b14a5249d60efd35', '08f2f66cf9aac3dc'),
    'alternating/4/2': ('a8983863878630fe', '0ecc69df65b26de9', '67b2949c1b11c405'),
    'alternating/6/3': ('f49a0eca6ae4ea5e', '75b19e48ae640a6a', '2d52dc49c39e29ef'),
    'alternating/10/2': ('b9186f374d466ed8', '0537a7e97d9e75f9', '461d4aaa7351a17a'),
    'alternating/16/4': ('f758cdd4de413ea5', 'e2d4a9701aeb00b0', 'feb2fd115e4e301c'),
    'alternating/24/5': ('9bd325e834ecc5a4', '246c5673a53cd76a', 'b408d9e19a6b3213'),
    'alternating/32/6': ('747d6c86ea2f2ab0', '45c84ddf49583e8b', 'cace356de454e966'),
    'alternating/64/7': ('ab3a53e71268ce5b', 'c57deabc9345c1ce', '116abf1720806c32'),
    'random/1/0': ('73ad91de263b4f7e', 'ccc4129aa58fa723', '5a1a847b58b8e378'),
    'chunked:5/5/3': ('73ad91de263b4f7e', 'ccc4129aa58fa723', '29e59093f7aec37b'),
    'chunked:12/12/4': ('73ad91de263b4f7e', 'ccc4129aa58fa723', '9af4dc360cbe5c70'),
    'random/15/1227': ('b9159ab0920d4239', 'a7824f0b8afb10c2', '1cbd96d2f578b782'),
    'chunked:4,4/8/3': ('58f1dec3064751db', 'cef6484793c0633a', 'c6bce06dbf669015'),
    'chunked:3,3,3,3/12/5': ('da713e5420ab4c04', '44446b45f9cdf311', '1231a58a715ac23c'),
    'chunked:5,2,6,7/20/6': ('5f2c2c377e355329', '57462d9a6d51abbf', 'fa3597f49ae9099e'),
    'chunked:1,9,2,8,3,7/30/7': ('5ce03eb989af5426', '6976477f7e5462ac', 'fb5fa50806b4d2a2'),
    'chunked:10,10,10,10/40/8': ('cce6e3e8f6f441aa', '0439bb8318e39705', 'dafe31a3bd1520c1'),
    'chunked:16,16,16,16/64/9': ('c2d246a6c3bd4757', '11bed8c6df496282', '0ca334b487035c12'),
    'mirror/4/1': ('32a7966148f96936', 'a706aade68dd6a90', '9048156c560a09f0'),
    'mirror/8/2': ('53df715630cd01b9', '2f9bc5092a77091a', '07878a8999dfe6a8'),
    'mirror/12/3': ('d7c69b5621182d30', '9d836dcad653457a', 'd9197db4fb544f40'),
    'mirror/16/4': ('d0b7ad568b4470ad', 'b47dd2ec1b253cea', '0c01e606b1df04b6'),
    'mirror/24/5': ('55527dd71a0886dd', '96880442cd1c45a9', 'f5dd789f1efe079d'),
    'mirror/32/6': ('4961aef33a91a801', 'e55a9bf201b57220', 'f0ee33a0a44df8a0'),
    'mirror/40/7': ('5f7d6d9bd9f33803', 'a22c907f2de01177', 'd42edf71d956479b'),
    'mirror/48/8': ('cd6e49beb6f96c07', '896d08a1ea219111', '01a73b12af586626'),
    'random/60/14': ('711fadb3a13b4598', '965feaac64056eda', 'e912df0f3ae718bc'),
    'random/100/34': ('78c413b17fb64fd7', '515a56e92eb0e924', 'eed6573242b749ca'),
}

# name -> digest of the --trace directory (w > 0 only)
TRACE_GOLDEN = {
    'alternating/10/2': 'f8f7d3452b0aa866',
    'random/15/1227': 'a1c044fbcfcd5aab',
    'random/24/8': '73c4abc2ca99cd06',
    'chunked:5,2,6,7/20/6': '54c6cc3d68596d46',
    'mirror/24/5': '5b3f976324bb3f43',
    'alternating/16/4': '6950605746bcd9ef',
    'chunked:16,16,16,16/64/9': '72140cc504215779',
    'random/60/14': 'b415fbfeb7d508ac',
    'random/100/34': 'da2fbb49aeacd623',
}


def _mirror(n, seed):
    rng = random.Random(seed)
    ts = set()
    while len(ts) < n // 4:
        b = rng.randint(2, 10_000)
        ts.add(Fraction(rng.randint(1, b - 1), b))
    base = [circle_point_from_parameter(t) for t in sorted(ts)]
    xys = (base + [(-x, y) for x, y in reversed(base)]
           + [(-x, -y) for x, y in base] + [(x, -y) for x, y in reversed(base)])
    return [ColoredPoint(i, rng.choice([RED, BLUE]), x, y)
            for i, (x, y) in enumerate(xys)]


def instance(name):
    pattern, n, seed = name.split("/")
    if pattern == "mirror":
        return _mirror(int(n), int(seed))
    return gen_circle(int(n), int(seed), pattern)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _write_instance(tmp_path, name):
    path = tmp_path / "inst.json"
    path.write_text(dumps(instance_to_doc(instance(name), "circle")))
    return str(path)


def _cli(tmp_path, *argv) -> str:
    out = tmp_path / "out.json"
    assert main([*argv, "-o", str(out)]) == 0
    return _digest(out.read_bytes())


def outputs(tmp_path, name):
    inst = _write_instance(tmp_path, name)
    return (_cli(tmp_path, "solve", inst, "--variant", "axis"),
            _cli(tmp_path, "solve", inst, "--variant", "general"),
            _cli(tmp_path, "kappa", inst))


def trace_digest(tmp_path, name):
    inst = _write_instance(tmp_path, name)
    trace = tmp_path / "trace"
    _cli(tmp_path, "solve", inst, "--trace", str(trace))
    blob = b"".join(f.name.encode() + b"\0" + f.read_bytes() + b"\0"
                    for f in sorted(trace.iterdir()))
    return _digest(blob)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_solve_and_kappa_bytes(tmp_path, name):
    assert outputs(tmp_path, name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TRACE_GOLDEN))
def test_trace_bytes(tmp_path, name):
    assert trace_digest(tmp_path, name) == TRACE_GOLDEN[name]


def test_trace_monochromatic_final_is_step_000(tmp_path):
    inst = _write_instance(tmp_path, "chunked:5/5/3")
    trace = tmp_path / "trace"
    _cli(tmp_path, "solve", inst, "--trace", str(trace))
    assert sorted(f.name for f in trace.iterdir()) == \
        ["final.svg", "step_000.svg"]
    assert (trace / "final.svg").read_bytes() == \
        (trace / "step_000.svg").read_bytes()


@pytest.mark.parametrize("name", ["random/15/1227", "mirror/24/5",
                                  "alternating/64/7"])
def test_solve_bytes_without_asserts(tmp_path, name):
    # the guarantees must not rest on `assert`: same bytes under python -O
    inst = _write_instance(tmp_path, name)
    out = tmp_path / "out.json"
    src = str(Path(sepline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-O", "-m", "sepline.cli", "solve", inst,
                    "--variant", "axis", "-o", str(out)], env=env, check=True)
    assert _digest(out.read_bytes()) == GOLDEN[name][0]
