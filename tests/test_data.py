"""Loader, splitting, negative sampling, and privacy assignment tests."""

import numpy as np
import pytest

from fedgraphrec.data import (
    DataFormatError,
    InteractionDataset,
    Tier,
    assign_privacy,
    leave_one_out_split,
    load_interactions,
    sample_eval_negatives,
    sample_train_negatives,
)
from fedgraphrec.seeding import derive_rng
from oracles import reference_load_interactions, reference_load_split, reference_negative_pool


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- load_interactions -------------------------------------------------------


def log_fields(log):
    """The loaded log's token lists, and its codes and timestamps as lists."""
    return dict(
        user_tokens=log.user_tokens,
        item_tokens=log.item_tokens,
        users=log.users.tolist(),
        items=log.items.tolist(),
        timestamps=log.timestamps.tolist(),
    )


def test_load_tsv_basic(tmp_path):
    path = write(tmp_path, "a.tsv", "u1\ti1\t5\t100\nu2\ti1\t3\t200\nu1\ti2\t4\t150\n")
    assert log_fields(load_interactions(path, "tsv")) == dict(
        user_tokens=["u1", "u2"],
        item_tokens=["i1", "i2"],
        users=[0, 1, 0],
        items=[0, 0, 1],
        timestamps=[100, 200, 150],
    )


def test_load_double_colon(tmp_path):
    path = write(tmp_path, "a.dat", "1::10::5::978300760\n2::10::3::978302109\n")
    log = log_fields(load_interactions(path, "double-colon"))
    assert log["user_tokens"] == ["1", "2"] and log["item_tokens"] == ["10"]
    assert log["timestamps"] == [978300760, 978302109]


def test_load_csv_skips_header_and_handles_quotes(tmp_path):
    path = write(
        tmp_path,
        "a.csv",
        'user,item,rating,timestamp\nu1,"i,1",5,7\nu2,i2,3,9\n',
    )
    log = log_fields(load_interactions(path, "csv"))
    assert log["item_tokens"] == ["i,1", "i2"] and log["items"] == [0, 1]


def test_load_without_timestamps(tmp_path):
    # a missing timestamp counts as 0
    path = write(tmp_path, "a.tsv", "u1\ti1\t5\nu1\ti2\t4\n")
    assert load_interactions(path, "tsv").timestamps.tolist() == [0, 0]


def test_load_rejects_wrong_field_count(tmp_path):
    path = write(tmp_path, "a.tsv", "u1\ti1\t5\nu2\ti2\n")
    with pytest.raises(DataFormatError, match=":2"):
        load_interactions(path, "tsv")


def test_load_rejects_bad_rating(tmp_path):
    path = write(tmp_path, "a.tsv", "u1\ti1\tfive\t3\n")
    with pytest.raises(DataFormatError, match=":1"):
        load_interactions(path, "tsv")


def test_load_rejects_bad_timestamp(tmp_path):
    path = write(tmp_path, "a.tsv", "u1\ti1\t5\tnoon\n")
    with pytest.raises(DataFormatError, match="timestamp"):
        load_interactions(path, "tsv")


def test_load_rejects_empty_token(tmp_path):
    path = write(tmp_path, "a.tsv", "u1\t\t5\t3\n")
    with pytest.raises(DataFormatError, match="empty user or item"):
        load_interactions(path, "tsv")


def test_load_rejects_empty_file(tmp_path):
    path = write(tmp_path, "a.tsv", "")
    with pytest.raises(DataFormatError, match="no interaction records"):
        load_interactions(path, "tsv")


def test_duplicate_keeps_larger_timestamp(tmp_path):
    # the later-timestamp record wins even when it appears first in the file
    path = write(tmp_path, "a.tsv", "u1\ti1\t5\t900\nu2\ti9\t1\t5\nu1\ti1\t2\t100\n")
    log = log_fields(load_interactions(path, "tsv"))
    # surviving records keep file order: the u1 line came before the u2 line
    assert log["users"] == [0, 1] and log["items"] == [0, 1]
    assert log["timestamps"] == [900, 5]


# A tie's winner shows in the order of the surviving records: the record
# between the two duplicates comes first exactly when the later line wins.
def test_duplicate_timestamp_tie_keeps_later_line(tmp_path):
    path = write(tmp_path, "a.tsv", "u1\ti1\t5\t100\nu2\ti2\t3\t100\nu1\ti1\t2\t100\n")
    log = log_fields(load_interactions(path, "tsv"))
    assert log["users"] == [1, 0] and log["items"] == [1, 0]


def test_duplicate_without_timestamps_keeps_later_line(tmp_path):
    path = write(tmp_path, "a.tsv", "u1\ti1\t5\nu2\ti2\t3\nu1\ti1\t1\n")
    log = log_fields(load_interactions(path, "tsv"))
    assert log["users"] == [1, 0] and log["items"] == [1, 0]


def test_blank_lines_are_skipped(tmp_path):
    path = write(tmp_path, "a.tsv", "u1\ti1\t5\t1\n\nu2\ti2\t3\t2\n")
    assert len(load_interactions(path, "tsv")) == 2


# Every case in file order: the earlier record wins on a larger timestamp and
# on a present one over a missing one below 0; a tie goes to the later line;
# uB is left with one record.
FIXED_ROWS = [
    ("uA", "iX", "5", 9), ("uA", "iY", "2", 4), ("uA", "iX", "1", 2),
    ("uA", "iZ", "4", None), ("uB", "iX", "1", None), ("uA", "iY", "3", 4),
    ("uA", "iZ", "1", -1),
]


def random_log(rng):
    """(user, item, rating, timestamp or None) data lines in file order:
    duplicate chains with small, often equal, sometimes missing timestamps,
    and users left with fewer than 3 records."""
    rows = []
    for u in range(int(rng.integers(4, 9))):
        for item in rng.choice(12, size=int(rng.integers(1, 6)), replace=False):
            for _ in range(int(rng.integers(1, 4))):
                ts = None if rng.random() < 0.25 else int(rng.integers(-2, 4))
                rows.append((f"u{u}", f"i{item}", str(rng.integers(1, 11) / 2), ts))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    cut = int(rng.integers(0, len(rows) + 1))
    return rows[:cut] + FIXED_ROWS + rows[cut:]


def write_layouts(tmp_path, rows, rng):
    """The rows as TSV, '::' and CSV files that share their blank and
    whitespace-only lines, padded tokens, empty timestamp fields and mixed
    LF / CRLF endings."""
    def pad(token):
        return str(rng.choice(["", " "])) + token + str(rng.choice(["", " "]))

    lines = []
    for user, item, rating, ts in rows:
        while rng.random() < 0.2:
            lines.append([str(rng.choice(["", " ", "  ", "\t"]))])
        fields = [pad(user), pad(item), rating]
        if ts is not None:
            fields.append(pad(str(ts)))
        elif rng.random() < 0.5:
            fields.append("")
        lines.append(fields)
    endings = [str(rng.choice(["\n", "\r\n"])) for _ in lines]
    if rng.random() < 0.5:
        endings[-1] = ""
    paths = {}
    for fmt, sep, header in (("tsv", "\t", []),
                             ("double-colon", "::", []),
                             ("csv", ",", ["user,item,rating,timestamp\r\n"])):
        text = header + [sep.join(f) + end for f, end in zip(lines, endings)]
        paths[fmt] = tmp_path / f"log.{fmt}"
        paths[fmt].write_bytes("".join(text).encode("utf-8"))
    return paths


@pytest.mark.parametrize("seed", range(6))
def test_load_and_split_match_reference_in_every_layout(tmp_path, seed):
    rng = np.random.default_rng(seed)
    rows = random_log(rng)
    expected_log, expected = reference_load_split(rows)
    assert expected["dropped_users"] >= 1
    for fmt, path in write_layouts(tmp_path, rows, rng).items():
        log = load_interactions(path, fmt)
        assert log_fields(log) == expected_log, fmt
        assert all(a.dtype == np.int64 for a in (log.users, log.items, log.timestamps))
        ds = leave_one_out_split(log)
        got = {name: getattr(ds, name) for name in expected}
        got["train"] = [arr.tolist() for arr in ds.train]
        assert got == expected, fmt
        assert all(arr.dtype == np.int64 for arr in ds.train)
        assert all(type(i) is int for i in ds.validation + ds.test)


# Padding the split layouts and CSV all take: str.strip removes each of
# these, and "\x1c" is one that float and int do not skip on their own.
PADS = ["", " ", "  ", "\xa0", "\x1c", "\u3000"]
LAYOUT_SEPS = {"tsv": "\t", "double-colon": "::", "csv": ","}


def random_raw_lines(rng, fmt):
    """Data lines of one layout, newlines not yet added: 3- and 4-field
    records with padded tokens, inner spaces, duplicate pairs and tied
    timestamps, between blank lines and whitespace-only lines (with
    separators where the layout skips them)."""
    sep = LAYOUT_SEPS[fmt]
    blanks = ["", " ", "\t", "  \t "]
    if fmt != "double-colon":
        blanks += [sep.join([" ", "\t", ""]), sep.join(["\t"] * 4)]

    def pad(token):
        return str(rng.choice(PADS)) + token + str(rng.choice(PADS))

    lines = []
    for _ in range(int(rng.integers(5, 40))):
        while rng.random() < 0.2:
            lines.append(str(rng.choice(blanks)))
        user = f"u {rng.integers(4)}" if rng.random() < 0.3 else f"u{rng.integers(4)}"
        item = f"i {rng.integers(6)}" if rng.random() < 0.3 else f"i{rng.integers(6)}"
        fields = [pad(user), pad(item), pad(str(rng.integers(1, 11) / 2))]
        draw = rng.random()
        if draw < 0.6:
            fields.append(pad(str(int(rng.integers(-2, 3)))))
        elif draw < 0.8:
            fields.append(str(rng.choice(["", " ", "\xa0"])))
        lines.append(sep.join(fields))
    return lines


def write_raw(tmp_path, fmt, lines, rng, name="raw"):
    """The lines with mixed LF / CRLF endings, a header row for CSV, and
    sometimes a BOM."""
    if fmt == "csv":
        lines = ["user,item,rating,timestamp", *lines]
    endings = [str(rng.choice(["\n", "\r\n"])) for _ in lines]
    if rng.random() < 0.5:
        endings[-1] = ""
    text = "".join(line + end for line, end in zip(lines, endings))
    if rng.random() < 0.5:
        text = "\ufeff" + text
    path = tmp_path / f"{name}.{fmt}"
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("fmt", list(LAYOUT_SEPS))
def test_load_matches_per_line_reference_on_random_files(tmp_path, fmt, seed):
    rng = np.random.default_rng([seed, len(fmt)])
    path = write_raw(tmp_path, fmt, random_raw_lines(rng, fmt), rng)
    expected = reference_load_interactions(path, fmt)
    assert log_fields(load_interactions(path, fmt)) == expected


def malformed_lines(fmt):
    """Lines every layout rejects, and those only a layout's separator makes
    malformed: whitespace and separators alone are not blank in '::'."""
    sep = LAYOUT_SEPS[fmt]
    cases = [
        ["u1", "i1"],
        ["u1", "i1", "5", "7", "x"],
        ["", "i1", "5", "7"],
        ["u1", " ", "5"],
        ["u1", "i1", "five", "7"],
        ["u1", "i1", " ", "7"],
        ["u1", "i1", "5\x85x"],
        ["u1", "i1", "5", "noon"],
        ["u1", "i1", "5", " 1.5 "],
        ["u1", "i1", "5", str(2**63)],
        ["u1", "i1", "5", str(-(2**63) - 1)],
        ["u1", "i1", "5", "1" * 5000],
    ]
    lines = [sep.join(fields) for fields in cases]
    if fmt == "double-colon":
        lines += [" :: ", " :: \t:: ", "\t::\t::\t::\t"]
    return lines


@pytest.mark.parametrize("fmt", list(LAYOUT_SEPS))
def test_malformed_lines_fail_as_the_per_line_reference(tmp_path, fmt):
    rng = np.random.default_rng(len(fmt))
    for case, bad in enumerate(malformed_lines(fmt)):
        lines = random_raw_lines(rng, fmt)
        lines.insert(int(rng.integers(len(lines) + 1)), bad)
        path = write_raw(tmp_path, fmt, lines, rng, name=f"bad{case}")
        with pytest.raises(DataFormatError) as expected:
            reference_load_interactions(path, fmt)
        with pytest.raises(DataFormatError) as got:
            load_interactions(path, fmt)
        assert str(got.value) == str(expected.value), bad
        assert f"{path}:" in str(got.value)


def dataset_fields(ds):
    fields = {name: getattr(ds, name) for name in (
        "num_users", "num_items", "validation", "test", "user_tokens", "item_tokens",
        "dropped_users", "dropped_interactions")}
    fields["train"] = [(arr.dtype, arr.tolist()) for arr in ds.train]
    return fields


def test_utf8_bom_does_not_split_a_user(tmp_path):
    # the BOM would otherwise glue onto the first token: "\ufeff1" and "1"
    # would be two users with too few records each
    rows = [("1", "a", "5", "1"), ("1", "b", "4", "2"), ("1", "c", "3", "3"),
            ("2", "a", "5", "1"), ("2", "b", "4", "2"), ("2", "c", "3", "3")]
    for fmt, sep, header in (("tsv", "\t", ""),
                             ("double-colon", "::", ""),
                             ("csv", ",", "user,item,rating,timestamp\n")):
        text = header + "".join(sep.join(row) + "\n" for row in rows)
        plain = write(tmp_path, f"plain.{fmt}", text)
        bom = write(tmp_path, f"bom.{fmt}", "\ufeff" + text)
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = leave_one_out_split(load_interactions(plain, fmt))
        got = leave_one_out_split(load_interactions(bom, fmt))
        assert got.user_tokens == ["1", "2"] and got.dropped_users == 0, fmt
        assert dataset_fields(got) == dataset_fields(expected), fmt


def test_timestamp_beyond_64_bits_is_rejected(tmp_path):
    path = write(tmp_path, "a.tsv", f"u1\ti1\t5\t{2**63}\n")
    with pytest.raises(DataFormatError, match=":1: timestamp .* 64 bits"):
        load_interactions(path, "tsv")


def test_format_from_string(tmp_path):
    path = write(tmp_path, "a.tsv", "u1\ti1\t5\t1\n")
    with pytest.raises(ValueError, match="unknown file format 'parquet' "
                                         r"\(choices: tsv, double-colon, csv\)"):
        load_interactions(path, "parquet")


# --- leave_one_out_split ------------------------------------------------------


def lines(*triples):
    """Build a TSV text from (user, item, rating, ts) tuples."""
    return "".join("\t".join(str(x) for x in t) + "\n" for t in triples)


def test_split_most_recent_is_test_second_is_validation(tmp_path):
    path = write(
        tmp_path,
        "a.tsv",
        lines(("u", "a", 1, 10), ("u", "b", 1, 5), ("u", "c", 1, 20)),
    )
    ds = leave_one_out_split(load_interactions(path))
    assert ds.item_tokens[ds.test[0]] == "c"
    assert ds.item_tokens[ds.validation[0]] == "a"
    assert [ds.item_tokens[i] for i in ds.train[0]] == ["b"]


def test_split_timestamp_tie_later_line_is_more_recent(tmp_path):
    path = write(
        tmp_path,
        "a.tsv",
        lines(("u", "a", 1, 7), ("u", "b", 1, 7), ("u", "c", 1, 7)),
    )
    ds = leave_one_out_split(load_interactions(path))
    assert ds.item_tokens[ds.test[0]] == "c"
    assert ds.item_tokens[ds.validation[0]] == "b"


def test_split_without_timestamps_uses_file_order(tmp_path):
    path = write(tmp_path, "a.tsv", lines(("u", "a", 1), ("u", "b", 1), ("u", "c", 1)))
    ds = leave_one_out_split(load_interactions(path))
    assert ds.item_tokens[ds.test[0]] == "c"


def test_split_train_is_oldest_first(tmp_path):
    path = write(
        tmp_path,
        "a.tsv",
        lines(("u", "a", 1, 30), ("u", "b", 1, 10), ("u", "c", 1, 20),
              ("u", "d", 1, 40), ("u", "e", 1, 50)),
    )
    ds = leave_one_out_split(load_interactions(path))
    assert [ds.item_tokens[i] for i in ds.train[0]] == ["b", "c", "a"]


def test_split_drops_short_users_and_counts(tmp_path, caplog):
    path = write(
        tmp_path,
        "a.tsv",
        lines(("u1", "a", 1, 1), ("u1", "b", 1, 2), ("u1", "c", 1, 3),
              ("u2", "a", 1, 1), ("u2", "b", 1, 2)),
    )
    with caplog.at_level("WARNING"):
        ds = leave_one_out_split(load_interactions(path))
    assert ds.num_users == 1
    assert ds.dropped_users == 1
    assert ds.dropped_interactions == 2
    assert "dropped 1 users" in caplog.text


def test_split_errors_when_no_user_survives(tmp_path):
    path = write(tmp_path, "a.tsv", lines(("u", "a", 1, 1)))
    with pytest.raises(ValueError, match="no users with at least"):
        leave_one_out_split(load_interactions(path))


def test_split_indices_first_appearance_order(tmp_path):
    path = write(
        tmp_path,
        "a.tsv",
        lines(("u2", "x", 1, 1), ("u2", "y", 1, 2), ("u2", "z", 1, 3),
              ("u1", "y", 1, 1), ("u1", "w", 1, 2), ("u1", "x", 1, 3)),
    )
    ds = leave_one_out_split(load_interactions(path))
    assert ds.user_tokens == ["u2", "u1"]
    assert ds.item_tokens == ["x", "y", "z", "w"]
    assert [t.tolist() for t in ds.train] == [[0], [1]]
    assert ds.validation == [1, 3] and ds.test == [2, 0]


def test_counting_invariant(tmp_path):
    # per-user split sizes plus dropped interactions equal the deduplicated total
    rng = np.random.default_rng(5)
    rows = []
    for u in range(12):
        for i in rng.choice(30, size=rng.integers(1, 9), replace=False):
            rows.append((f"u{u}", f"i{i}", 1, int(rng.integers(0, 1000))))
    path = write(tmp_path, "a.tsv", lines(*rows))
    records = load_interactions(path)
    ds = leave_one_out_split(records)
    held = len(ds.validation) + len(ds.test)
    kept = sum(arr.size for arr in ds.train) + held
    assert kept + ds.dropped_interactions == len(records)


def test_split_disjoint_per_user(tmp_path):
    path = write(
        tmp_path,
        "a.tsv",
        lines(*[("u", f"i{k}", 1, k) for k in range(6)]),
    )
    ds = leave_one_out_split(load_interactions(path))
    held = {ds.validation[0], ds.test[0]}
    assert held.isdisjoint(set(ds.train[0].tolist()))


# --- negative sampling --------------------------------------------------------


def small_dataset():
    """4 users, 10 items, hand-set splits."""
    train = [
        np.array([0, 1, 2], dtype=np.int64),
        np.array([3, 4], dtype=np.int64),
        np.array([5], dtype=np.int64),
        np.array([0, 5], dtype=np.int64),
    ]
    return InteractionDataset(
        num_users=4,
        num_items=10,
        train=train,
        validation=[3, 5, 6, 1],
        test=[4, 6, 7, 2],
        user_tokens=[f"u{i}" for i in range(4)],
        item_tokens=[f"i{i}" for i in range(10)],
    )


def test_negative_pool_excludes_all_splits():
    ds = small_dataset()
    pool = ds.negative_pool(0)
    assert set(pool.tolist()) == {5, 6, 7, 8, 9}


def test_negative_pools_and_draws_match_flatnonzero_reference(tmp_path):
    rng = np.random.default_rng(4)
    rows = [(f"u{u}", f"i{i}", 1, t) for u in range(30)
            for t, i in enumerate(rng.choice(40, size=3 + u % 9, replace=False))]
    split = leave_one_out_split(load_interactions(write(tmp_path, "a.tsv", lines(*rows))))
    for ds in (small_dataset(), split):
        for u in range(ds.num_users):
            expected = reference_negative_pool(ds, u)
            pool = ds.negative_pool(u)
            assert pool.dtype == np.int32 and not pool.flags.writeable
            np.testing.assert_array_equal(pool, expected)
            draw = derive_rng(7, u).integers(0, expected.size, size=4 * ds.train[u].size)
            np.testing.assert_array_equal(
                sample_train_negatives(ds, u, 4, derive_rng(7, u)), expected[draw])
            count = min(5, expected.size)
            draw = derive_rng(8, u).choice(expected.size, size=count, replace=False)
            np.testing.assert_array_equal(
                sample_eval_negatives(ds, u, count, derive_rng(8, u)), expected[draw])


def test_train_negatives_count_and_membership():
    ds = small_dataset()
    negs = sample_train_negatives(ds, 0, ratio=4, rng=derive_rng(1))
    assert negs.size == 4 * 3
    assert set(negs.tolist()) <= set(ds.negative_pool(0).tolist())


def test_train_negatives_sample_with_replacement():
    ds = small_dataset()
    # pool for user 0 has 5 items; 12 draws must repeat
    negs = sample_train_negatives(ds, 0, ratio=4, rng=derive_rng(2))
    assert len(set(negs.tolist())) < negs.size


def test_train_negatives_ratio_below_one_rejected():
    with pytest.raises(ValueError, match="ratio"):
        sample_train_negatives(small_dataset(), 0, ratio=0, rng=derive_rng(0))


def test_train_negatives_empty_pool_is_error():
    ds = small_dataset()
    ds.train[1] = np.arange(8, dtype=np.int64)  # items 0..7, val 5... make pool empty
    ds.validation[1] = 8
    ds.test[1] = 9
    with pytest.raises(ValueError, match="user 1"):
        sample_train_negatives(ds, 1, ratio=1, rng=derive_rng(0))


def test_eval_negatives_distinct_count_and_exclusion():
    ds = small_dataset()
    negs = sample_eval_negatives(ds, 0, count=5, rng=derive_rng(3))
    assert negs.size == 5
    assert len(set(negs.tolist())) == 5
    assert set(negs.tolist()) == {5, 6, 7, 8, 9}


def test_eval_negatives_deterministic():
    ds = small_dataset()
    a = sample_eval_negatives(ds, 3, count=4, rng=derive_rng(9, 3))
    b = sample_eval_negatives(ds, 3, count=4, rng=derive_rng(9, 3))
    np.testing.assert_array_equal(a, b)


def test_eval_negatives_pool_too_small_names_user():
    ds = small_dataset()
    with pytest.raises(ValueError, match="user 2"):
        sample_eval_negatives(ds, 2, count=99, rng=derive_rng(0))


# --- assign_privacy -----------------------------------------------------------


def test_privacy_count_rounds_half_up():
    # 0.25 * 10 = 2.5 rounds to 3, not banker's 2
    tiers = assign_privacy(10, 0.25, seed=0)
    assert tiers.num_public == 3
    assert tiers.num_private == 7


def test_privacy_extremes():
    assert assign_privacy(7, 0.0, seed=1).num_public == 0
    assert assign_privacy(7, 1.0, seed=1).num_public == 7


def test_privacy_deterministic_and_seed_sensitive():
    a = assign_privacy(100, 0.5, seed=4)
    b = assign_privacy(100, 0.5, seed=4)
    c = assign_privacy(100, 0.5, seed=5)
    np.testing.assert_array_equal(a.is_public, b.is_public)
    assert (a.is_public != c.is_public).any()


def test_privacy_tier_accessors():
    tiers = assign_privacy(10, 0.3, seed=2)
    assert tiers.tier(int(tiers.public_users()[0])) is Tier.PUBLIC
    assert tiers.tier(int(tiers.private_users()[0])) is Tier.PRIVATE
    merged = np.sort(np.concatenate([tiers.public_users(), tiers.private_users()]))
    np.testing.assert_array_equal(merged, np.arange(10))


def test_privacy_validates_inputs():
    with pytest.raises(ValueError):
        assign_privacy(0, 0.5, seed=0)
    with pytest.raises(ValueError):
        assign_privacy(5, 1.5, seed=0)
