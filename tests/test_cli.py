"""CLI behavior: output formats, exit codes, determinism, option parsing."""

import csv
import io
import json
import re
import subprocess
import sys
from decimal import Decimal

import pytest

from fal_spectrum import cli
from fal_spectrum.cli import main
from fal_spectrum.numerics import PrecisionContext, v_oct

CATALOG_DOC = json.dumps(
    {
        "links": [
            {"name": "S10", "remainder": "50", "a": 6, "note": "modified density ten"},
            {"name": "Low", "c_oct": "1", "a": 2, "note": "deliberately under the bound"},
        ]
    }
)


@pytest.fixture()
def catalog_file(tmp_path):
    path = tmp_path / "links.json"
    path.write_text(CATALOG_DOC, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv_from_table(text):
    pairs = {}
    for line in text.splitlines():
        key, _, value = line.partition("  ")
        pairs[key.strip()] = value.strip()
    return pairs


def test_constants_table(capsys):
    code, out, err = run_cli(capsys, "constants", "--digits", "30")
    assert code == 0 and err == ""
    pairs = kv_from_table(out)
    assert pairs["v_oct"].startswith("3.6638623767")
    assert pairs["v_tet"].startswith("1.0149416064")
    assert pairs["2*v_oct"].startswith("7.3277247534")
    assert pairs["10*v_tet"].startswith("10.149416064")
    assert len(out.splitlines()) == 4


def test_constants_formats_carry_same_numbers(capsys):
    _, table, _ = run_cli(capsys, "constants")
    _, as_json, _ = run_cli(capsys, "constants", "--format", "json")
    _, as_csv, _ = run_cli(capsys, "constants", "--format", "csv")
    pairs = kv_from_table(table)
    assert json.loads(as_json) == pairs
    csv_pairs = {row["key"]: row["value"] for row in csv.DictReader(io.StringIO(as_csv))}
    assert csv_pairs == pairs


def test_constants_digits_flag(capsys):
    _, out30, _ = run_cli(capsys, "constants", "--digits", "30")
    _, out25, _ = run_cli(capsys, "constants", "--digits", "25")
    v30 = kv_from_table(out30)["v_oct"]
    v25 = kv_from_table(out25)["v_oct"]
    assert len(v25) < len(v30)
    assert v30.startswith(v25[:20])


@pytest.mark.parametrize("value", ["22", "many"])
def test_digits_come_only_from_the_flag(capsys, monkeypatch, value):
    # --digits is the one source of the precision; the environment does not set it
    monkeypatch.setenv("FAL_SPECTRUM_DIGITS", value)
    code, out, err = run_cli(capsys, "constants")
    assert (code, err) == (0, "")
    assert kv_from_table(out)["v_oct"] == str(v_oct(PrecisionContext(30)))


def test_too_few_digits_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "constants", "--digits", "5")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("digits", ["1001", "100000"])
def test_too_many_digits_is_domain_error(capsys, digits):
    code, out, err = run_cli(capsys, "constants", "--digits", digits)
    assert (code, out) == (1, "")
    assert err == f"error: precision must be at most 1000 digits, got {digits}\n"


# every integer option, as (subcommand and required arguments, option)
INTEGER_OPTIONS = [
    (["constants"], "--digits"),
    (["bounds"], "--a"),
    (["scan"], "--budget"),
    (["scan", "--budget", "3"], "--cap"),
    (["approximate", "--l1", "L41", "--l2", "L41", "--target", "7.4", "--eps", "1e-6"], "--max-denominator"),
]


@pytest.mark.parametrize("command,option", INTEGER_OPTIONS, ids=[option for _, option in INTEGER_OPTIONS])
@pytest.mark.parametrize(
    "value,reason",
    [
        ("\u0663\u0660", "not an integer: '\u0663\u0660'"),
        ("3_0", "not an integer: '3_0'"),
        (" 7", "not an integer: ' 7'"),
        ("+7", "not an integer: '+7'"),
        ("-", "not an integer: '-'"),
        ("1" * 5000, "too many digits: 5000"),  # past int()'s digit limit
    ],
    ids=["arabic-indic", "underscore", "space", "plus", "bare-minus", "5000-digits"],
)
def test_integer_option_syntax_is_usage_error(capsys, command, option, value, reason):
    code, out, err = run_cli(capsys, *command, f"{option}={value}")
    assert (code, out) == (2, "")
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert error_lines == [f"fal-spectrum {command[0]}: error: argument {option}: {reason}"]
    assert err.endswith(error_lines[0] + "\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["scan", "--budget", "0"], "budget must be at least 1, got 0"),
        (["scan", "--budget", "3", "--cap", "0"], "max_rows must be at least 1, got 0"),
        (INTEGER_OPTIONS[4][0] + ["--max-denominator", "0"], "max_denominator must be at least 1, got 0"),
        (["bounds", "--a", "-3"], "augmentation count must be at least 2, got -3"),
        (["constants", "--digits", "-30"], "precision must be at least 20, got -30"),
    ],
    ids=["budget", "cap", "max-denominator", "a", "digits"],
)
def test_integer_option_out_of_range_is_domain_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_density_builtin(capsys):
    code, out, err = run_cli(capsys, "density", "--recipe", "L41")
    assert code == 0, err
    pairs = kv_from_table(out)
    assert pairs["vd_exact"] == "1*voct+0*vtet+0"
    assert pairs["vdmod_exact"] == "2*voct+0*vtet+0"
    assert pairs["vd_decimal"] == str(v_oct(PrecisionContext(30)))
    assert pairs["a"] == "2" and pairs["atilde"] == "1"


def test_density_with_catalog_recipe(capsys, catalog_file):
    code, out, err = run_cli(capsys, "density", catalog_file, "--recipe", "L41*2,S10")
    assert code == 0, err
    pairs = kv_from_table(out)
    assert pairs["recipe"] == "L41*2,S10"
    assert pairs["a"] == "8" and pairs["atilde"] == "7"
    assert pairs["vol_exact"] == "4*voct+0*vtet+50"


def test_density_unknown_link(capsys):
    code, _, err = run_cli(capsys, "density", "--recipe", "ghost")
    assert code == 1
    assert "ghost" in err


@pytest.mark.parametrize("recipe", [
    "L41*\u0663", "L41*1_0", "L41*+2", "L41*-3", "L41*", "L41*3.0",
    pytest.param("L41*" + "1" * 5000, id="L41*1x5000"),  # past int()'s digit limit
])
def test_recipe_multiplicity_must_be_ascii_digits(capsys, recipe):
    code, out, err = run_cli(capsys, "density", "--recipe", recipe)
    assert code == 1
    assert out == ""
    shown = repr(recipe) if len(recipe) <= 40 else f"{recipe[:40]!r}… ({len(recipe)} characters)"
    assert err == f"error: bad multiplicity in recipe part {shown}\n"


@pytest.mark.parametrize("recipe,shown", [
    ("L41,,L41", "'L41,,L41'"),
    ("L41," + " " * 3000, f"{'L41,' + ' ' * 36!r}… (3004 characters)"),  # the refusal quotes 40 of them
])
def test_an_empty_recipe_part_is_refused_with_the_recipe_quoted(capsys, recipe, shown):
    code, out, err = run_cli(capsys, "density", "--recipe", recipe)
    assert (code, out, err) == (1, "", f"error: empty part in recipe {shown}\n")


# Exact integers longer than the 4300 digits str() of an int allows print in full.

def test_multiplicity_past_the_str_digit_limit(capsys):
    nines = "9" * 4300
    code, out, err = run_cli(capsys, "density", "--recipe", f"L41*{nines}")
    assert code == 0 and err == ""
    pairs = kv_from_table(out)
    assert pairs["recipe"] == f"L41*{nines}"
    assert pairs["a"] == "1" + "0" * 4300
    assert pairs["vol_exact"] == "1" + "9" * 4299 + "8*voct+0*vtet+0"  # 2*(10**4300 - 1)
    assert pairs["vd_exact"] == f"{nines}/5{'0' * 4299}*voct+0*vtet+0"


@pytest.mark.parametrize(
    "argv,exact",
    [
        (["density", "{file}", "--recipe", "Big"], "1" + "0" * 5000),  # the volume
        (["catalog", "list", "{file}"], "1" + "0" * 5000),
        (["scan", "{file}", "--budget", "2"], "5" + "0" * 4999),  # vd_mod, over a - 1 = 2
    ],
    ids=["density", "catalog-list", "scan"],
)
def test_remainder_past_the_str_digit_limit(capsys, tmp_path, argv, exact):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"links": [{"name": "Big", "remainder": "1e5000", "a": 3}]}), encoding="utf-8")
    code, out, err = run_cli(capsys, *(str(path) if arg == "{file}" else arg for arg in argv))
    assert code == 0 and err == ""
    assert f"0*voct+0*vtet+{exact}" in re.split(r"[\s,]+", out)


def test_catalog_list(capsys, catalog_file):
    code, out, err = run_cli(capsys, "catalog", "list", catalog_file)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].startswith("name")
    assert {line.split()[0] for line in lines[1:]} == {"L41", "Low", "S10"}


@pytest.mark.parametrize("option", [["--digits", "60"], ["--format", "json"], ["--output", "OUT"]])
def test_catalog_group_options_are_usage_errors(capsys, catalog_file, tmp_path, option):
    # global options belong after "list"
    option = [str(tmp_path / "out.txt") if arg == "OUT" else arg for arg in option]
    code, out, _ = run_cli(capsys, "catalog", *option, "list", catalog_file)
    assert (code, out) == (2, "")
    assert not (tmp_path / "out.txt").exists()
    code, out, err = run_cli(capsys, "catalog", "list", catalog_file, *option)
    assert code == 0, err


def test_validate_reports_warnings(capsys, catalog_file):
    code, out, err = run_cli(capsys, "validate", catalog_file, "--format", "json")
    assert code == 0, err
    rows = json.loads(out)
    assert all(row["level"] == "warning" for row in rows)
    assert {row["link"] for row in rows} == {"Low"}


def test_validate_bad_catalog_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"links": [{"name": "B", "a": 1, "c_oct": "2"}]}', encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "content,message",
    [
        (b"[" * 100_000, "malformed catalog JSON: arrays or objects nested too deeply"),
        (b'{"links": [{"name": "X\xff", "a": 2}]}', "not UTF-8 text (invalid start byte at byte 22)"),
        (b'{"links": [{"name": "X", "a": 2, "remainder": "Infinity"}]}', "not a valid decimal string: 'Infinity'"),
        (b'{"links": [{"name": "X", "a": 2, "remainder": "-inf"}]}', "not a valid decimal string: '-inf'"),
        (b'{"links": [{"name": "A\\n", "a": 2, "c_oct": "2"}]}', "link name must be an identifier, got 'A\\n'"),
    ],
    ids=["deep-nesting", "not-utf8", "infinity", "minus-inf", "name-newline"],
)
def test_unreadable_catalog_is_one_error_line(tmp_path, content, message):
    path = tmp_path / "links.json"
    path.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "fal_spectrum", "validate", str(path)],
        capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert message in proc.stderr


def test_catalog_integer_past_the_str_digit_limit_is_one_error_line(tmp_path):
    path = tmp_path / "links.json"
    path.write_text('{"links": [{"name": "X", "c_oct": "1", "a": ' + "1" * 5000 + "}]}", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "fal_spectrum", "catalog", "list", str(path)],
        capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: malformed catalog JSON: a number has too many digits\n"


@pytest.mark.parametrize("field, limit", [("c_oct", 120), ("remainder", 120), ("a", 130), ("name", 120)])
def test_a_long_bad_value_is_quoted_in_part(capsys, tmp_path, field, limit):
    path = tmp_path / "links.json"
    entry = {"name": "X", "a": 2, field: "x" * 4999 + "!"}
    path.write_text(json.dumps({"links": [entry]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: links[0]: ") and len(err) < limit
    assert err.endswith(f"{'x' * 40!r}… (5000 characters)\n")


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["density", "--recipe", "x" * 5000], 1),  # unknown link
        (["classify", "--density", "x" * 5000], 2),
        (["bounds", "--a", "x" * 5000], 2),
    ],
    ids=["unknown-link", "decimal-option", "integer-option"],
)
def test_a_long_bad_argument_is_quoted_in_part(capsys, argv, exit_code):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (exit_code, "")
    assert re.search(r"'.{40}'… \(\d+ characters\)", err) and len(err) < 1000


def test_validate_decides_each_warning_exactly(capsys, tmp_path):
    # vd of "Top" lies 1e-27*v_tet/2 below 10*v_tet and vd of "Thin" 1e-30*v_oct/2
    # below v_oct: both closer than the tolerance, so only exact signs tell
    links = [
        {"name": "Top", "c_tet": "19.999999999999999999999999999", "a": 2},
        {"name": "Thin", "c_oct": "1.999999999999999999999999999999", "a": 2},
    ]
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"links": links}), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path), "--format", "json")
    assert code == 0, err
    messages = [row["message"] for row in json.loads(out)]
    assert {row["link"] for row in json.loads(out)} == {"Thin"}
    assert len(messages) == 2
    assert "below the spectrum floor v_oct" in messages[0]
    assert "below the Miyamoto bound" in messages[1]


def test_validate_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/links.json")
    assert code == 1
    assert "cannot read" in err


def test_approximate_and_feed_back(capsys, catalog_file):
    code, out, err = run_cli(
        capsys,
        "approximate",
        catalog_file,
        "--l1",
        "L41",
        "--l2",
        "S10",
        "--target",
        "9.0",
        "--eps",
        "1e-6",
        "--mode",
        "vdmod",
    )
    assert code == 0, err
    pairs = kv_from_table(out)
    assert Decimal(pairs["error"]) < Decimal("1e-6")
    recipe = pairs["recipe"]
    code, out2, err2 = run_cli(capsys, "density", catalog_file, "--recipe", recipe)
    assert code == 0, err2
    again = kv_from_table(out2)
    assert again["vdmod_decimal"] == pairs["achieved_vdmod_decimal"]


@pytest.mark.parametrize("mode", ["vd", "vdmod"])
def test_unresolvable_eps_is_precision_error(capsys, catalog_file, mode):
    code, out, err = run_cli(
        capsys, "approximate", catalog_file, "--l1", "L41", "--l2", "S10",
        "--target", "9.0", "--eps", "1e-40", "--mode", mode,
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "30 digits" in err and "1E-25" in err
    assert "max_denominator" not in err


def test_zero_eps_is_not_positive(capsys):
    # not "too fine for 30 digits": no precision resolves a zero tolerance
    argv = ["approximate", "--l1", "L41", "--l2", "L41", "--target", "7.4", "--eps", "0"]
    assert run_cli(capsys, *argv) == (1, "", "error: tolerance must be positive, got 0\n")


def test_approximate_out_of_range(capsys, catalog_file):
    code, _, err = run_cli(
        capsys,
        "approximate",
        catalog_file,
        "--l1",
        "L41",
        "--l2",
        "S10",
        "--target",
        "11",
        "--eps",
        "1e-6",
    )
    assert code == 1
    assert "outside" in err


@pytest.mark.parametrize("field", ["c_oct", "remainder"])
def test_catalog_exponent_out_of_range(tmp_path, field):
    # Fraction would build 10**999999999; a subprocess with a timeout keeps a
    # regression from hanging the suite
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"links": [{"name": "H", field: "1e999999999", "a": 2}]}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "fal_spectrum", "validate", str(path)],
        capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: links[0]: {field}: exponent out of range (at most 10000 in magnitude)\n"


@pytest.mark.parametrize(
    "argv,what",
    [
        (["classify", "--density", "1e999999999"], "density"),
        (["classify", "--density", "1e-999999999"], "density"),
        (["certify", "--density", "1e-999999999"], "density"),
        (["approximate", "--l1", "L41", "--l2", "L41", "--target", "7.5", "--eps", "1e999999999"], "eps"),
        (["approximate", "--l1", "L41", "--l2", "L41", "--target", "1e-999999999", "--eps", "1e-6"], "target"),
    ],
)
def test_decimal_exponent_out_of_range(argv, what):
    # Fraction would build 10**999999999 and eps/2 would overflow; a subprocess
    # with a timeout keeps a regression from hanging the suite
    proc = subprocess.run(
        [sys.executable, "-m", "fal_spectrum", *argv], capture_output=True, text=True, timeout=30
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {what}: exponent out of range (at most 10000 in magnitude)\n"


def test_bounds_command(capsys):
    code, out, err = run_cli(capsys, "bounds", "--a", "3")
    assert code == 0, err
    pairs = kv_from_table(out)
    assert pairs["euler_characteristic"] == "-2"
    assert pairs["volume_lower_bound"].startswith("14.655449506")
    assert pairs["vd_lower_bound"].startswith("4.885149835")


def test_certify_command(capsys):
    code, out, err = run_cli(capsys, "certify", "--density", "5.5")
    assert code == 0, err
    pairs = kv_from_table(out)
    assert pairs["max_augmentations"] == "4"
    code, _, err = run_cli(capsys, "certify", "--density", "9.0")
    assert code == 1
    assert "no finite certificate" in err


def test_classify_command(capsys):
    code, out, err = run_cli(capsys, "classify", "--density", "9.0")
    assert code == 0, err
    assert kv_from_table(out)["window"] == "DenseWindow"
    _, out2, _ = run_cli(capsys, "classify", "--density", "5.0")
    assert kv_from_table(out2)["window"] == "DiscreteWindow"


def test_scan_csv_stdout(capsys):
    code, out, err = run_cli(capsys, "scan", "--budget", "3")
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["recipe"] for row in rows] == ["L41", "L41*2", "L41*3"]
    assert rows[0]["vd_exact"] == "1*voct+0*vtet+0"
    assert rows[1]["vd_exact"] == "4/3*voct+0*vtet+0"


def test_scan_to_file_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["scan", "--budget", "10", "--out", str(first)]) == 0
    assert main(["scan", "--budget", "10", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().splitlines()) == 11  # header + 10 rows


def test_unwritable_output_exits_one(capsys, tmp_path):
    target = tmp_path / "missing" / "rows.csv"
    code, out, err = run_cli(capsys, "scan", "--budget", "3", "--output", str(target))
    assert code == 1 and out == ""
    assert err == f"error: cannot write output {str(target)!r}: No such file or directory\n"


def test_scan_cap_flag(capsys, catalog_file):
    code, _, err = run_cli(capsys, "scan", catalog_file, "--budget", "40", "--cap", "5")
    assert code == 1
    assert "cap" in err


def test_scan_cap_beyond_sys_maxsize(capsys):
    code, out, err = run_cli(capsys, "scan", "--budget", "3", "--cap", str(10**20))
    assert code == 0, err
    assert len(out.splitlines()) == 4  # header + 3 rows


def test_usage_errors_exit_two(capsys):
    assert main(["bogus"]) == 2
    assert main(["density"]) == 2  # missing --recipe
    assert main(["certify", "--density", "abc"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert "fal-spectrum" in captured.out


@pytest.mark.parametrize(
    "command",
    ["constants", "catalog", "catalog list", "validate", "density", "approximate", "bounds",
     "certify", "classify", "scan"],
)
def test_every_subcommand_help_exits_zero(capsys, command):
    code, out, err = run_cli(capsys, *command.split(), "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: fal-spectrum {command}")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fal_spectrum", "constants", "--digits", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "3.6638623767088760602" in proc.stdout


def test_byte_identical_runs(capsys):
    _, first, _ = run_cli(capsys, "density", "--recipe", "L41*5", "--format", "json")
    _, second, _ = run_cli(capsys, "density", "--recipe", "L41*5", "--format", "json")
    assert first == second


def test_machine_formats_carry_all_density_numbers(capsys):
    _, table, _ = run_cli(capsys, "density", "--recipe", "L41*5")
    _, as_json, _ = run_cli(capsys, "density", "--recipe", "L41*5", "--format", "json")
    assert json.loads(as_json) == kv_from_table(table)


_AWKWARD = ['say "hi"', "back\\slash", "tab\tnl\ncr\rnul\x00us\x1f", "déjà ☃ \U0001f600", ""]


@pytest.mark.parametrize("rows", [[], [_AWKWARD], [_AWKWARD[::-1], ["x"] * 5]])
def test_json_rows_are_the_bytes_of_json_dumps(rows):
    header = ["plain", "quo\"te", "back\\", "\x07bell", "ünï"]
    expected = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    assert cli._render_rows(header, rows, "json") == expected


def test_json_key_values_are_the_bytes_of_json_dumps():
    pairs = list(zip(["k\"1", "k\\2", "k\x1b3", "ключ", "k5"], _AWKWARD))
    assert cli._render_kv(pairs, "json") == json.dumps(dict(pairs), indent=2) + "\n"


def test_one_parser_serves_every_run_in_a_process(capsys, monkeypatch):
    # the parser is built once per process; a usage error, a scan and --help
    # through it print what each prints from a fresh process
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help to the terminal width
    runs = [["scan", "--budget", "x"], ["scan", "--budget", "6", "--format", "json"], ["scan", "--help"]]
    shared = [run_cli(capsys, *argv) for argv in runs]
    assert cli.build_parser() is cli.build_parser()
    fresh = [
        (proc.returncode, proc.stdout, proc.stderr)
        for argv in runs
        for proc in [subprocess.run([sys.executable, "-m", "fal_spectrum", *argv], capture_output=True, text=True)]
    ]
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert shared == fresh
