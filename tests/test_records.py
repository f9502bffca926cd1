"""The contract of the 16 record types: built by position or keyword with
their defaults, read-only, compared, hashed, shown, copied with changes,
converted to dicts and pickled as frozen dataclasses were."""

import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

import citestats
from citestats import (
    AuthorRecord,
    CitationHistogram,
    ComparisonResult,
    DivergenceResult,
    EmpiricalDistribution,
    IFQuery,
    IFResult,
    InsufficientDataError,
    JournalSpec,
    LogNormalFit,
    PaperRecord,
    PolicyScore,
    ReplicateRun,
    SynthConfig,
    SynthConfigError,
    TierTable,
    UsageError,
    ValidationReport,
    VariabilityResult,
)
from citestats.corpus import _Record

SPEC = JournalSpec("j", 10, 2000, 2005)

#: type -> (its fields, the constructor's arguments without defaults, the
#: defaulted fields with their defaults, one changed argument, the derived
#: fields with their values)
EXAMPLES = {
    PaperRecord: (
        ("id", "journal_id", "year", "kind", "author_ids", "reference_ids"),
        ("p1", "j", 2000, "review"),
        {"author_ids": (), "reference_ids": ()},
        {"reference_ids": ("p0",)},
        {},
    ),
    ValidationReport: (
        ("paper_count", "edge_count", "unresolved_references", "negative_age_edges",
         "papers_without_authors"),
        (5, 4, 3, 2, 1), {}, {"edge_count": 0}, {},
    ),
    IFQuery: (
        ("journal_id", "census_year", "window_w", "denominator_policy", "self_citation_policy"),
        ("j", 2007),
        {"window_w": 2, "denominator_policy": "substantive-only", "self_citation_policy": "include"},
        {"window_w": 5},
        {},
    ),
    IFResult: (
        ("numerator", "denominator", "query"), (3, 4, IFQuery("j", 2007)), {}, {"denominator": 0}, {},
    ),
    VariabilityResult: (
        ("journal_id", "window_w", "impact_factors", "mean_abs_relative_change", "pairs_used",
         "zero_base_pairs_skipped", "undefined_pairs_skipped"),
        ("j", 2, {2001: Fraction(1, 2), 2002: None}, Fraction(1, 3), 1, 0, 1),
        {}, {"pairs_used": 2}, {},
    ),
    EmpiricalDistribution: (
        ("histogram", "article_total", "journal_id", "publication_years", "citing_years"),
        (MappingProxyType({0: 2, 3: 1}),),
        {"journal_id": None, "publication_years": None, "citing_years": None},
        {"journal_id": "j"},
        {"article_total": 3},
    ),
    ComparisonResult: (
        ("p_greater", "p_equal", "mean_a", "mean_b"),
        (Fraction(1, 2), Fraction(1, 4), Fraction(3), Fraction(2)), {}, {"mean_b": Fraction(1)}, {},
    ),
    LogNormalFit: (
        ("mu", "sigma", "zero_fraction", "positive_total"),
        (0.5, 1.25, Fraction(1, 4), 3), {}, {"sigma": 0.0}, {},
    ),
    AuthorRecord: (
        ("author_id", "counts", "first_publication_year"), ("au", (3, 1), 2000), {},
        {"counts": ()}, {},
    ),
    CitationHistogram: (
        ("buckets", "bucket_width", "h", "tail_fraction"), ({0: 1, 3: 1}, 1, 1, Fraction(1, 2)), {},
        {"tail_fraction": None}, {},
    ),
    TierTable: (
        ("tiers", "census_year", "window_w", "ranking"),
        (MappingProxyType({"a": "top"}), 2007, 2, (("a", Fraction(1)),)), {}, {"window_w": 5}, {},
    ),
    PolicyScore: (
        ("subject_id", "rule", "score", "breakdown"),
        ("s", "example1", (("p1", Fraction(1, 2)), ("p2", Fraction(1, 3)))), {},
        {"breakdown": ()},
        {"score": Fraction(5, 6)},
    ),
    DivergenceResult: (
        ("kendall_tau", "discordant_fraction", "concordant_pairs", "discordant_pairs",
         "n_subjects"),
        (0.5, Fraction(1, 4), 3, 1, 3), {}, {"kendall_tau": None}, {},
    ),
    JournalSpec: (
        ("journal_id", "articles_per_year", "start_year", "end_year", "quality_scale"),
        ("j", 10, 2000, 2005), {"quality_scale": 1.0}, {"articles_per_year": 0}, {},
    ),
    SynthConfig: (
        ("seed", "journals", "latent_mu", "latent_sigma", "zero_inflation", "half_life_years",
         "references_per_paper"),
        (1, (SPEC,)),
        {"latent_mu": 0.5, "latent_sigma": 0.8, "zero_inflation": 0.3, "half_life_years": 10.0,
         "references_per_paper": 12.0},
        {"seed": 7},
        {},
    ),
    ReplicateRun: (
        ("run_index", "seed", "journals"), (0, 1, {"j": None}), {}, {"seed": 2}, {},
    ),
}

#: the types with a dict or mapping-proxy field, which are not hashable
UNHASHABLE = {VariabilityResult, EmpiricalDistribution, CitationHistogram, TierTable, ReplicateRun}

record_types = pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)


def example(cls):
    return cls(*EXAMPLES[cls][1])


def expected_fields(cls):
    """The example's field values, in field order."""
    fields, args, defaults, _, derived = EXAMPLES[cls]
    params = [name for name in fields if name not in derived]
    return {name: {**dict(zip(params, args)), **defaults, **derived}[name] for name in fields}


def test_every_record_type_is_covered():
    public = {getattr(citestats, name) for name in citestats.__all__}
    records = {cls for cls in public if isinstance(cls, type) and issubclass(cls, _Record)}
    assert records == set(EXAMPLES) and len(records) == 16


@record_types
def test_positional_and_keyword_construction_with_defaults(cls):
    fields, args, defaults, _, derived = EXAMPLES[cls]
    params = [name for name in fields if name not in derived]
    record = example(cls)
    assert {name: getattr(record, name) for name in fields} == expected_fields(cls)
    by_keyword = cls(**dict(zip(params, args)))
    every_argument = cls(*args, *defaults.values())
    assert record == by_keyword == every_argument
    assert cls(*args[:-1], **{params[len(args) - 1]: args[-1]}) == record


@record_types
def test_construction_checks_its_arguments_as_a_function_does(cls):
    fields, args, defaults, _, derived = EXAMPLES[cls]
    params = [name for name in fields if name not in derived]
    with pytest.raises(TypeError, match="argument"):
        cls(*args[:-1])
    with pytest.raises(TypeError, match="positional argument"):
        cls(*args, *defaults.values(), "extra")
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        cls(*args, nope=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{params[0]}'"):
        cls(*args, **{params[0]: args[0]})
    for name in derived:
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            cls(*args, **{name: derived[name]})


@record_types
def test_signature_is_the_constructors(cls):
    """``inspect.signature`` lists the constructor's arguments and defaults,
    and a call they do not bind raises a ``TypeError`` naming the class."""
    fields, args, defaults, _, derived = EXAMPLES[cls]
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == [name for name in fields if name not in derived]
    assert {p.kind for p in parameters.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert {name: p.default for name, p in parameters.items() if p.default is not p.empty} == (
        defaults
    )
    name = cls.__name__
    with pytest.raises(TypeError, match=rf"^{name}\(\) missing a required argument: "):
        cls(*args[:-1])
    with pytest.raises(TypeError, match=rf"^{name}\(\) got an unexpected keyword argument 'nope'$"):
        cls(*args, nope=1)


@record_types
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record = example(cls)
    for name in EXAMPLES[cls][0]:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.other = 1


@record_types
def test_equality_and_hash_compare_the_fields(cls):
    fields, _, _, change, _ = EXAMPLES[cls]
    record, same, changed = example(cls), example(cls), example(cls)._replace(**change)
    assert record == same and not record != same
    assert record != changed and changed == example(cls)._replace(**change)
    assert record != tuple(getattr(record, name) for name in fields)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(same) == hash(tuple(getattr(record, name) for name in fields))
        assert len({record, same, changed}) == 2


@record_types
def test_replace_builds_a_checked_copy_with_changes(cls):
    fields, _, _, change, derived = EXAMPLES[cls]
    record = example(cls)
    copy = record._replace(**change)
    assert type(copy) is cls
    assert {name: getattr(copy, name) for name in fields if name not in derived} == {
        name: change.get(name, getattr(record, name)) for name in fields if name not in derived
    }
    assert record._replace() == record
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        record._replace(nope=1)
    for name in derived:
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            record._replace(**{name: derived[name]})


def test_replace_runs_the_checks():
    with pytest.raises(UsageError, match="window_w must be >= 1"):
        IFQuery("j", 2007)._replace(window_w=0)
    assert PolicyScore("s", "r", [("p", Fraction(1))])._replace(breakdown=[]).score == 0
    assert EmpiricalDistribution({1: 2})._replace(histogram={1: 5}).article_total == 5


@record_types
def test_asdict_gives_the_fields(cls):
    as_dict = example(cls)._asdict()
    assert list(as_dict) == list(EXAMPLES[cls][0])
    expected = expected_fields(cls)
    if cls is IFResult:
        expected["query"] = expected["query"]._asdict()
    if cls is SynthConfig:
        expected["journals"] = (SPEC._asdict(),)
    assert as_dict == expected


def test_asdict_copies_dicts_and_converts_the_records_inside():
    histogram = CitationHistogram({0: 1}, 1, 0, None)
    assert histogram._asdict()["buckets"] is not histogram.buckets
    run = ReplicateRun(0, 1, {"j": VariabilityResult("j", 2, {2001: None}, Fraction(0), 0, 0, 1)})
    assert run._asdict()["journals"]["j"] == {
        "journal_id": "j", "window_w": 2, "impact_factors": {2001: None},
        "mean_abs_relative_change": Fraction(0), "pairs_used": 0, "zero_base_pairs_skipped": 0,
        "undefined_pairs_skipped": 1,
    }


@record_types
def test_pickle_round_trip(cls):
    record = example(cls)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls and copy == record and repr(copy) == repr(record)


@record_types
def test_repr_names_every_field(cls):
    fields = ", ".join(f"{name}={value!r}" for name, value in expected_fields(cls).items())
    assert repr(example(cls)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("record, text", [
    (IFQuery("j", 2007),
     "IFQuery(journal_id='j', census_year=2007, window_w=2, denominator_policy='substantive-only',"
     " self_citation_policy='include')"),
    (PolicyScore("s", "example3", [("p", Fraction(1, 2))]),
     "PolicyScore(subject_id='s', rule='example3', score=Fraction(1, 2),"
     " breakdown=(('p', Fraction(1, 2)),))"),
    (EmpiricalDistribution({3: 1, 0: 2}, journal_id="j"),
     "EmpiricalDistribution(histogram=mappingproxy({0: 2, 3: 1}), article_total=3,"
     " journal_id='j', publication_years=None, citing_years=None)"),
    (SynthConfig(1, [SPEC]),
     "SynthConfig(seed=1, journals=(JournalSpec(journal_id='j', articles_per_year=10,"
     " start_year=2000, end_year=2005, quality_scale=1.0),), latent_mu=0.5, latent_sigma=0.8,"
     " zero_inflation=0.3, half_life_years=10.0, references_per_paper=12.0)"),
], ids=["IFQuery", "PolicyScore", "EmpiricalDistribution", "SynthConfig"])
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("build, error", [
    (lambda: PaperRecord("", "j", 2000, "review"), ValueError),
    (lambda: PaperRecord("p", "j", 2000, "review", author_ids=("a", "a")), ValueError),
    (lambda: JournalSpec("j", -1, 2000, 2005), SynthConfigError),
    (lambda: SynthConfig(seed=1, journals=()), SynthConfigError),
    (lambda: EmpiricalDistribution({}), InsufficientDataError),
    (lambda: IFQuery("j", 2007, window_w=0), UsageError),
])
def test_checks_run_on_construction(build, error):
    with pytest.raises(error):
        build()


def test_importing_the_cli_leaves_dataclasses_unimported():
    """A dataclass definition costs about a millisecond of import time."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys, citestats.cli; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(Path(citestats.__file__).resolve().parents[1])),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
