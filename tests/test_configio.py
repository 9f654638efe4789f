import numpy as np
import pytest

from mvolt.configio import (
    ConfigError,
    format_csv,
    parse_float_list,
    parse_sections,
    read_heston_model,
    read_jump_model,
    read_measure,
    read_sections,
    write_measure,
    write_sections,
)
from mvolt.measures import AtomicMatrixMeasure


def sample_measure():
    w = np.array([[[0.8, 0.1], [0.1, 0.5]], [[0.3, -0.2], [-0.2, 0.9]]])
    return AtomicMatrixMeasure([0.4, 3.0], w)


class TestSections:
    def test_parse_basic(self):
        text = "# comment\na = 1\n[run]\npaths = 100\nname = 'x'\n"
        sec = parse_sections(text)
        assert sec[""]["a"] == 1
        assert sec["run"]["paths"] == 100
        assert sec["run"]["name"] == "x"

    def test_bad_line_reports_location(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_sections("a = 1\nnot a key value line\n", source="f")

    def test_bad_literal_reports_field(self):
        with pytest.raises(ConfigError, match="'a'"):
            parse_sections("a = not_a_literal\n", source="f")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            read_sections("/nonexistent/path.cfg")


class TestMeasureRoundTrip:
    def test_write_read_write_byte_stable(self, tmp_path):
        p1 = tmp_path / "m1.cfg"
        p2 = tmp_path / "m2.cfg"
        m = sample_measure()
        write_measure(p1, m)
        m2 = read_measure(p1)
        write_measure(p2, m2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(m.nodes, m2.nodes)
        np.testing.assert_array_equal(m.weights, m2.weights)

    def test_reader_ignores_shape_and_n(self, tmp_path):
        # files written before measures lost their shape tag still read
        p = tmp_path / "old.cfg"
        p.write_text("shape = 'symmetric'\nd = 1\nn = 1\nnodes = [1.0]\n"
                     "weights = [[[0.5]]]\n")
        m = read_measure(p)
        assert m.k == 1 and m.d == 1
        write_measure(p, m)
        assert p.read_text() == "d = 1\nnodes = [1.0]\nweights = [[[0.5]]]\n"

    def test_invalid_measure_diagnosed(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("nodes = [1.0, 0.5]\nweights = [[[1.0]], [[1.0]]]\nd = 1\n")
        with pytest.raises(ConfigError, match="increasing"):
            read_measure(p)

    def test_shape_mismatch_diagnosed(self, tmp_path):
        p = tmp_path / "bad2.cfg"
        p.write_text("nodes = [1.0]\nweights = [[1.0]]\nd = 1\n")
        with pytest.raises(ConfigError, match="weights"):
            read_measure(p)


class TestModelFiles:
    def test_jump_model(self, tmp_path):
        p = tmp_path / "model.cfg"
        p.write_text(
            "[measure]\nnodes = [1.0]\nweights = [[[0.4]]]\nd = 1\n"
            "[lambda0]\nweights = [[[1.0]]]\n"
            "[jumps]\natoms = [[[1.0]]]\nweights = [[[0.3]]]\nepsilon = 0.0\n"
        )
        measure, lam0, spec = read_jump_model(p)
        assert measure.k == 1
        assert lam0[0, 0, 0] == 1.0
        assert spec.n_atoms == 1

    def test_jump_model_missing_lambda0(self, tmp_path):
        p = tmp_path / "model.cfg"
        p.write_text("[measure]\nnodes = [1.0]\nweights = [[[0.4]]]\nd = 1\n")
        with pytest.raises(ConfigError, match="lambda0"):
            read_jump_model(p)

    def test_jump_model_dimension_mismatch(self, tmp_path):
        p = tmp_path / "model.cfg"
        p.write_text(
            "[measure]\nnodes = [1.0]\nweights = [[[0.4]]]\nd = 1\n"
            "[lambda0]\nweights = [[[1.0]], [[2.0]]]\n"
        )
        with pytest.raises(ConfigError, match="shape"):
            read_jump_model(p)

    def test_heston_model(self, tmp_path):
        p = tmp_path / "h.cfg"
        p.write_text(
            "[measure]\nnodes = [0.5]\nweights = [[[0.1, 0.0], [0.0, 0.1]]]\nd = 2\n"
            "[gamma0]\nweights = [[[0.1, 0.0], [0.0, 0.1]]]\n"
            "[price]\nrho = [-0.5, 0.0]\np0 = [0.0, 0.0]\n"
        )
        model = read_heston_model(p)
        assert model.d == 2
        assert model.rho[0] == -0.5

    def test_heston_model_bad_rho(self, tmp_path):
        p = tmp_path / "h.cfg"
        p.write_text(
            "[measure]\nnodes = [0.5]\nweights = [[[0.1, 0.0], [0.0, 0.1]]]\nd = 2\n"
            "[gamma0]\nweights = [[[0.1, 0.0], [0.0, 0.1]]]\n"
            "[price]\nrho = [-0.9, 0.9]\np0 = [0.0, 0.0]\n"
        )
        with pytest.raises(ConfigError, match="rho"):
            read_heston_model(p)


def per_cell_csv(header, rows) -> str:
    """The row-by-row formatter format_csv replaced, kept as its reference."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, (float, np.floating)):
                cells.append(repr(float(x)))
            elif isinstance(x, (int, np.integer)):
                cells.append(str(int(x)))
            else:
                cells.append(str(x))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestCsv:
    def test_header_and_floats(self):
        text = format_csv(["a", "b"], [[1, 2], [0.5, 0.25]])
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.5"
        assert "." in lines[2]

    def test_matches_per_cell_formatter(self):
        special = [-0.0, 0.0, 1e-300, 1e300, np.nan, np.inf, -np.inf, 0.1 + 0.2, 2.0,
                   -3.0, 5e-324, 1.0 / 3.0, 123456789.125]
        rng = np.random.default_rng(0)
        floats = np.array(special + list(rng.normal(size=40) * 10.0 ** rng.integers(-20, 20, 40)))
        n = floats.size
        ints = rng.integers(-10**12, 10**12, size=n)
        columns = [np.arange(n), floats, ints, floats[::-1], ints.astype(np.int32)]
        header = ["path", "x", "big", "y", "small"]
        want = per_cell_csv(header, [list(row) for row in zip(*columns)])
        assert format_csv(header, columns) == want
        # python lists of floats and ints format as their arrays do
        assert format_csv(header, [col.tolist() for col in columns]) == want

    def test_empty_columns_give_the_header_alone(self):
        header = ["path", "t", "atom", "intensity_at_jump"]
        columns = [np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int), np.zeros(0)]
        assert format_csv(header, columns) == "path,t,atom,intensity_at_jump\n"
        assert format_csv(header, columns) == per_cell_csv(header, [])

    def test_columns_must_match_the_header(self):
        with pytest.raises(ValueError):
            format_csv(["a", "b"], [np.zeros(3)])
        with pytest.raises(ValueError):
            format_csv(["a", "b"], [np.zeros(3), np.zeros(2)])

    def test_parse_float_list(self):
        assert parse_float_list("0.5, 1.0,2") == [0.5, 1.0, 2.0]
        with pytest.raises(ConfigError):
            parse_float_list("0.5; 1.0")


def test_write_sections_roundtrip(tmp_path):
    sec = {"": {"x": 1.5}, "run": {"paths": 10, "seed": 3, "tag": "demo"}}
    p = tmp_path / "c.cfg"
    write_sections(p, sec)
    back = read_sections(p)
    assert back["run"] == sec["run"]
    assert back[""]["x"] == 1.5
