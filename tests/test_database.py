import json

import numpy as np
import pytest

from adiasearch.database import (
    RawEntry,
    decode_outcome,
    encode_database,
    encode_target,
    is_in_database,
    load_rows,
    load_rows_csv,
    load_rows_json,
)
from adiasearch.errors import (
    DuplicateKey,
    InputError,
    NotPowerOfTwo,
    TargetNotInDatabase,
    UnparseableValueLabel,
)


def test_encode_phone_book(example_db):
    assert example_db.n_qubits == 2
    assert example_db.values == (4.0, 3.0, 1.0, 2.0)
    assert example_db.keys == ("Alex", "Bob", "Cherry", "David")
    assert len(set(example_db.values)) == len(example_db.values)


def test_encode_two_rows():
    db = encode_database([RawEntry("A", "100"), RawEntry("B", "200")])
    assert db.n_qubits == 1
    assert db.values == (1.0, 2.0)


def test_three_rows_rejected():
    rows = [RawEntry(k, str(i)) for i, k in enumerate("abc")]
    with pytest.raises(NotPowerOfTwo):
        encode_database(rows)


def test_single_row_rejected():
    with pytest.raises(NotPowerOfTwo):
        encode_database([RawEntry("a", "1")])


def test_duplicate_key_rejected():
    rows = [RawEntry("a", "1"), RawEntry("a", "2")]
    with pytest.raises(DuplicateKey):
        encode_database(rows)


def test_duplicate_value_labels_flagged_not_fatal():
    rows = [RawEntry(k, v) for k, v in [("a", "100"), ("b", "200"), ("c", "200"), ("d", "300")]]
    db = encode_database(rows)
    assert len(set(db.values)) < len(db.values)
    assert db.values == (1.0, 2.0, 2.0, 3.0)


def test_rank_encoding_is_order_preserving():
    rng = np.random.default_rng(7)
    for _ in range(20):
        labels = [str(x) for x in rng.choice(10**6, size=8, replace=False)]
        rows = [RawEntry(f"k{i}", lab) for i, lab in enumerate(labels)]
        db = encode_database(rows)
        numerics = [float(lab) for lab in labels]
        codes = db.values
        for i in range(8):
            for j in range(8):
                if numerics[i] < numerics[j]:
                    assert codes[i] < codes[j]


def test_key_roundtrip(example_rows, example_db):
    for i, row in enumerate(example_rows):
        assert example_db.keys[i] == row.key


def test_encode_target_in_database(example_db):
    assert encode_target(example_db, "3601003") == 3.0
    assert encode_target(example_db, "3601002") == 2.0
    assert encode_target(example_db, "3601001") == 1.0
    assert encode_target(example_db, "3601004") == 4.0


def test_encode_target_numeric_equivalence(example_db):
    # label absent as a string but numerically present
    assert encode_target(example_db, "3601003.0") == 3.0
    assert encode_target(example_db, " 3601002 ") == 2.0


def test_encode_target_out_of_database_interpolates(example_db):
    # halfway between 3601002 (code 2) and 3601003 (code 3)
    assert encode_target(example_db, "3601002.5") == pytest.approx(2.5)
    # beyond the largest label: extrapolate with the last segment's slope
    assert encode_target(example_db, "3601010") == pytest.approx(10.0)
    # nearest-match downstream: closest code to 10.0 is 4 -> Alex (3601004)
    assert not is_in_database(example_db, "3601002.5")
    # below the smallest label: extrapolate with the first segment's slope
    assert encode_target(example_db, "3600990") == -10.0


def test_encode_target_on_a_single_value_table():
    # one distinct label: unit slope from its code
    db = encode_database([RawEntry(k, "7") for k in "abcd"])
    assert db.values == (1.0, 1.0, 1.0, 1.0)
    assert encode_target(db, "9") == 3.0


def test_encode_target_strict_mode(example_db):
    assert encode_target(example_db, "3601001", strict=True) == 1.0
    with pytest.raises(TargetNotInDatabase):
        encode_target(example_db, "3601009", strict=True)


def test_encode_target_unparseable(example_db):
    with pytest.raises(UnparseableValueLabel):
        encode_target(example_db, "not-a-number")
    with pytest.raises(UnparseableValueLabel):
        encode_target(example_db, "inf")
    with pytest.raises(UnparseableValueLabel):
        encode_target(example_db, "nan")


def test_decode_outcome_certain(example_db):
    outcomes = decode_outcome(example_db, [0.0, 0.0, 0.0, 1.0])
    assert outcomes[0].index == 3
    assert outcomes[0].key == "David"
    assert outcomes[0].probability == 1.0

    outcomes = decode_outcome(example_db, [1.0, 0.0, 0.0, 0.0])
    assert (outcomes[0].index, outcomes[0].key) == (0, "Alex")


def test_decode_outcome_reference_populations(example_db):
    outcomes = decode_outcome(example_db, [0.0, 0.014, 0.014, 0.972])
    assert outcomes[0].index == 3
    assert outcomes[0].key == "David"
    assert outcomes[0].probability == pytest.approx(0.972)
    assert [o.probability for o in outcomes] == sorted(
        (0.0, 0.014, 0.014, 0.972), reverse=True
    )


def test_load_csv_skips_a_byte_order_mark(phonebook_csv, tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + phonebook_csv.read_bytes())
    assert load_rows_csv(path) == load_rows_csv(phonebook_csv)
    assert load_rows(path) == load_rows_csv(phonebook_csv)


def test_load_csv(phonebook_csv):
    rows = load_rows_csv(phonebook_csv)
    assert [r.key for r in rows] == ["Alex", "Bob", "Cherry", "David"]
    assert rows[0].value_label == "3601004"


def test_load_csv_trims_whitespace(tmp_path):
    path = tmp_path / "db.csv"
    path.write_text("key,value\n  a , 1 \nb,2\n", encoding="utf-8")
    rows = load_rows_csv(path)
    assert rows[0] == RawEntry("a", "1")


def test_load_csv_rejects_empty_field(tmp_path):
    path = tmp_path / "db.csv"
    for text in ("key,value\na,\n", "key,value\n,1\nb,2\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError):
            load_rows_csv(path)


def test_load_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "db.csv"
    path.write_text("name,number\na,1\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_rows_csv(path)


def test_load_csv_rejects_nonnumeric_value(tmp_path):
    path = tmp_path / "db.csv"
    path.write_text("key,value\na,xyz\n", encoding="utf-8")
    with pytest.raises(UnparseableValueLabel):
        load_rows_csv(path)


def test_load_json(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(
        json.dumps([{"key": "a", "value": "1"}, {"key": "b", "value": "2"}]),
        encoding="utf-8",
    )
    rows = load_rows_json(path)
    assert rows == [RawEntry("a", "1"), RawEntry("b", "2")]
    assert load_rows(path) == rows


def test_load_json_reads_numbers_as_their_literal_text(tmp_path):
    path = tmp_path / "db.json"
    path.write_text('[{"key": 1.50, "value": 1.50}, {"key": "b", "value": 1e5}]', encoding="utf-8")
    assert load_rows_json(path) == [RawEntry("1.50", "1.50"), RawEntry("b", "1e5")]


def test_load_json_rejects_wrong_shape(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(json.dumps({"key": "a"}), encoding="utf-8")
    with pytest.raises(InputError):
        load_rows_json(path)
