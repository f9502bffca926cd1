"""Golden outputs: every subcommand, byte for byte, on one fixed corpus.

The corpus is a small ``synth --config`` corpus plus hand-written records
that the generator never produces: a book, a letter, an editorial, papers
without authors, references to papers outside the corpus, a citation whose
citing paper is older than the cited one, and a journal whose only window
item is a letter.  The generator itself supplies plenty of same-journal
citations.  Each output file except the timestamped ``manifest.json`` is
pinned by its SHA-256 digest; an intended format change must re-pin them.
"""

import hashlib
import json

from citestats.cli import main
from conftest import forbid_record_entry_points

CONFIG = {
    "seed": 11,
    "journals": [
        {"journal_id": "alpha", "articles_per_year": 8, "start_year": 2003, "end_year": 2010},
        {
            "journal_id": "beta",
            "articles_per_year": 5,
            "start_year": 2003,
            "end_year": 2010,
            "quality_scale": 2.0,
        },
        {
            "journal_id": "gamma",
            "articles_per_year": 3,
            "start_year": 2005,
            "end_year": 2010,
            "quality_scale": 0.5,
        },
    ],
    "references_per_paper": 6.0,
    "half_life_years": 4.0,
}


def _record(pid, journal, year, kind, authors, references):
    return {
        "id": pid,
        "journal": journal,
        "year": year,
        "kind": kind,
        "authors": authors,
        "references": references,
    }


EXTRA_RECORDS = [
    _record("x-book", "beta", 2008, "book", ["ed-1"], ["alpha-2006-0000", "ghost-1"]),
    # cites a 2010 paper from 2009: a negative-age edge
    _record(
        "x-letter", "beta", 2009, "letter", ["beta-au000"],
        ["alpha-2008-0001", "alpha-2010-0000", "ghost-2"],
    ),
    _record("x-editorial", "alpha", 2009, "editorial", [], ["alpha-2008-0002", "x-book"]),
    _record("delta-old", "delta", 2004, "research-article", [], []),
    _record("delta-letter", "delta", 2009, "letter", [], ["delta-old"]),
    _record(
        "x-review", "alpha", 2010, "review", ["alpha-au000", "ed-1"],
        [
            "x-book", "x-letter", "x-editorial", "delta-letter", "ghost-1",
            "alpha-2009-0000", "beta-2008-0000", "gamma-2009-0001",
        ],
    ),
]

POLICY_PAPERS = "alpha-2009-0000,beta-2009-0001,gamma-2008-0000,x-review,alpha-2004-0003"


def _commands(config, corpus):
    """(output directory, argv without --out) for every pinned run."""
    common = ["--input", str(corpus)]
    return [
        ("ingest", ["ingest", *common]),
        ("validate", ["validate", *common]),
        ("jif-default", ["journal-if", *common, "--census-year", "2010"]),
        (
            "jif-policies",
            [
                "journal-if", *common, "--census-year", "2010", "--window", "3",
                "--denominator", "all", "--self-cites", "exclude",
                "--journal", "alpha", "--journal", "delta",
            ],
        ),
        ("profile-all", ["journal-profile", *common, "--census-year", "2010"]),
        (
            "profile-alpha",
            ["journal-profile", *common, "--census-year", "2010", "--journal", "alpha"],
        ),
        ("authors-all", ["author-index", *common, "--histograms"]),
        (
            "authors-window",
            [
                "author-index", *common, "--citing-years", "2009:2010",
                "--evaluation-year", "2010", "--author", "alpha-au000", "--author", "ed-1",
            ],
        ),
        (
            "compare",
            [
                "compare", *common, "--journal-a", "gamma", "--journal-b", "alpha",
                "--pub-years", "2007:2008", "--citing-years", "2009:2010",
            ],
        ),
        (
            "replicate",
            [
                "replicate", "--config", str(config), "--runs", "3",
                "--census-years", "2007:2010",
            ],
        ),
        (
            "policy-example1",
            [
                "policy", *common, "--rule", "example1", "--core-journals", "alpha",
                "--indexed-journals", "beta,delta", "--with-divergence",
            ],
        ),
        (
            "policy-example2",
            [
                "policy", *common, "--rule", "example2", "--census-year", "2010",
                "--papers", POLICY_PAPERS,
            ],
        ),
        (
            "policy-example3",
            ["policy", *common, "--rule", "example3", "--census-year", "2010", "--with-divergence"],
        ),
        (
            "report",
            [
                "report", *common, "--census-year", "2010", "--pair", "gamma:alpha",
                "--pair", "beta:alpha",
            ],
        ),
    ]


def _golden_inputs(root):
    """Write the config and the corpus under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["synth", "--config", str(config), "--out", str(root / "synth")]) == 0
    corpus = root / "corpus.jsonl"
    extra = "".join(json.dumps(r) + "\n" for r in EXTRA_RECORDS)
    corpus.write_text((root / "synth" / "corpus.jsonl").read_text() + extra)
    return config, corpus


def _digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
        and path.parent != root
        and path.name != "manifest.json"
    }


def golden_digests(root):
    """Run every subcommand under ``root``; digests of all outputs except
    the manifests, keyed by path relative to ``root``."""
    for out, argv in _commands(*_golden_inputs(root)):
        assert main([*argv, "--out", str(root / out)]) == 0, out
    return _digests(root)


GOLDEN = {
    "authors-all/author_histograms.json": (
        "ce10f16fe545ea6c62bec32912d66571c9e013d3b931a6805bb4c1ea00e73d4f"
    ),
    "authors-all/authors.csv": (
        "d2d07b75b5f9fda4eeec8f072c4d9ec32df0af97a5472555333a9e318cac56e4"
    ),
    "authors-window/authors.csv": (
        "1a04e5f7985bd483512b5b5f1756213c188c9a094151489ec204d7fc27fde3af"
    ),
    "compare/comparison.json": (
        "0bddd2537753cc18c9fd052822bbed5385762904291866d4ba65b330617df961"
    ),
    "ingest/corpus.jsonl": (
        "110c06ef7a3f741f5ab153c42b27785ab7841f9b3a4884cacf440e70e85d3e86"
    ),
    "ingest/summary.json": (
        "1ed6b891c1ed1e9f6073a0e98e48b833883835f167054f9f3a4e7cf312150098"
    ),
    "jif-default/journal_if.csv": (
        "c2f29745dd8a44c74a0e36d69db9cef8c03d32c79fbf7c11ad16bba45296b599"
    ),
    "jif-policies/journal_if.csv": (
        "13de6f65d204916447e6f648d2e29c9333ffedf91d11f8367a0616c6833b72f1"
    ),
    "policy-example1/policy_breakdown.json": (
        "fa6ef4ad90959ef1f3b1e120727cb463509874f8127aaf98d725cb66437fe048"
    ),
    "policy-example1/policy_scores.csv": (
        "9394c0e3308274f3003e82a4bb9fdb5ba1d86b0f31ca7920ed0cca960232bede"
    ),
    "policy-example2/policy_breakdown.json": (
        "b20017b091bf80e2ddb4eb5d9f419b223b4b5a6eb33615c913d04d43e9567978"
    ),
    "policy-example2/policy_scores.csv": (
        "cf01d80b383709b588f80cc0dfd25a3e1901105d130ee8f9c421202e6fb97714"
    ),
    "policy-example3/policy_breakdown.json": (
        "431da8d6f6df29adfb23d2ca099a1183d33c10637fa609ab81aedf78ff5f6389"
    ),
    "policy-example3/policy_scores.csv": (
        "22ec5425da3cf2ce8ed286a8eb69d2dfcd16e7fd621d4c4abb617d3caa7bd226"
    ),
    "profile-all/age_profile.csv": (
        "45bddf43e7fe2944964d2d0c623c88dff6bcebf62fc9a5f056f1d4e891b27dd1"
    ),
    "profile-all/journal_profile.json": (
        "2acbb9eff2fc55e55db6982844984290e553debe5d2693fe488c5e6cc7da4dce"
    ),
    "profile-alpha/age_profile.csv": (
        "619150ccc0a9c914823e7eb0d1cefd8437393da7e2e6c4ac7d717645061827c6"
    ),
    "profile-alpha/journal_profile.json": (
        "0a29576e11c8e0dbbd3e9a29117021a9c7de1485ef7d13f37719efe65329113b"
    ),
    "replicate/replicate.csv": (
        "7439c3ecfa6c452755bbe53951a17147cc90602aa3c87b5d6a7c86781a36fa1c"
    ),
    "replicate/replicate.json": (
        "7fbd042420859e36b8db81c4c9f3b95e906a5a1a04ae63a71ef03733db8558f7"
    ),
    "report/age_profile_alpha.csv": (
        "619150ccc0a9c914823e7eb0d1cefd8437393da7e2e6c4ac7d717645061827c6"
    ),
    "report/age_profile_beta.csv": (
        "bb28687fb5045eb89f7db6912647b0370edaf1130d0d8260687af6523c59623d"
    ),
    "report/age_profile_delta.csv": (
        "4eb9a2cd074e3c0f85390273209ede64b83323c859fd1043a99d5457da068945"
    ),
    "report/age_profile_gamma.csv": (
        "6e1c626f1e5cc6ad5705f0b341997826997ee523094e2a1e231014a83e770e89"
    ),
    "report/dist_beta__vs__alpha__alpha.csv": (
        "9300dfd097d05532fe16328155b2c445ca822d141fa7a1a64d72c47d49759c96"
    ),
    "report/dist_beta__vs__alpha__beta.csv": (
        "7453badc41c9d41a3bba03dab6ddad0fdf05c39411eb2a2532e3177b64e854d8"
    ),
    "report/dist_gamma__vs__alpha__alpha.csv": (
        "9300dfd097d05532fe16328155b2c445ca822d141fa7a1a64d72c47d49759c96"
    ),
    "report/dist_gamma__vs__alpha__gamma.csv": (
        "d2ecd3973cd124dc102c7ccb1c25b73b0e9ac67841bf84f6ea28ed8bc9d72e08"
    ),
    "report/journals.csv": (
        "439abac5658965acd0413172b5b0de0b7ba27dec2a02ea44bd0453d6e18c6948"
    ),
    "report/report.json": (
        "b84fb9ecb333ee1b99533caa9ce6b32759cc958ec14553801a1568824905a489"
    ),
    "synth/corpus.jsonl": (
        "f347fb8193c0fc954c19bf7fc1aeb90ecc3b7aaca0d07857387115f6e32c409f"
    ),
    "synth/synth_config.json": (
        "ab45602ea3e192247430b5615fcc8f956de919cd97987cc0a450ab5d4bfe941f"
    ),
    "validate/validation.json": (
        "1ed6b891c1ed1e9f6073a0e98e48b833883835f167054f9f3a4e7cf312150098"
    ),
}


def test_every_output_matches_its_pinned_digest(tmp_path):
    digests = golden_digests(tmp_path)
    assert sorted(digests) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if digests[name] != GOLDEN[name]]
    assert not changed, f"outputs changed: {changed}"


def test_loaded_corpus_commands_build_no_records(tmp_path, monkeypatch):
    """synth and ingest write their corpora from the columns; report,
    validate, compare, journal-if, journal-profile, author-index and the
    three policy rules (example1 and example3 with divergence) read the
    loaded corpus's columns only, and replicate never loads one.  No pinned
    command goes through the record entry points, and the outputs stay as
    pinned."""
    forbid_record_entry_points(monkeypatch)
    commands = dict(_commands(*_golden_inputs(tmp_path)))  # runs synth
    runs = {"synth", *commands}
    for out in runs - {"synth"}:
        assert main([*commands[out], "--out", str(tmp_path / out)]) == 0, out
    digests = {name: digest for name, digest in _digests(tmp_path).items()
               if name.split("/")[0] in runs}
    assert {name.split("/")[0] for name in digests} == runs
    assert digests == {name: GOLDEN[name] for name in digests}
