"""Randomized decomposition campaigns with machine-readable reports.

A campaign draws seeded random words, decomposes and verifies each one, and
aggregates factor counts and log-norm ratios per word-length bucket.  Reports
serialize deterministically: the same config always yields the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass

from . import decompose as dec
from .exactmat import json_int, matrix_to_json, random_word
from .rootsys import sl_class_ordering


class CampaignError(RuntimeError):
    """Raised when a sample fails verification; carries the sample for replay."""

    def __init__(self, message: str, sample_json: dict):
        super().__init__(f"{message}; offending sample: {json.dumps(sample_json, sort_keys=True)}")
        self.sample_json = sample_json


@dataclass(frozen=True)
class CampaignConfig:
    n: int
    word_lengths: tuple
    samples_per_length: int
    seed: int
    strategy: str = dec.COLUMN_MAJOR

    def validate(self) -> "CampaignConfig":
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.samples_per_length < 1:
            raise ValueError("samples_per_length must be >= 1")
        lengths = tuple(self.word_lengths)
        if not lengths or list(lengths) != sorted(set(lengths)):
            raise ValueError("word_lengths must be nonempty and strictly increasing")
        if any(l < 0 for l in lengths):
            raise ValueError("word lengths must be >= 0")
        if self.strategy not in dec.STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        return self


@dataclass(frozen=True)
class SampleRecord:
    length: int
    index: int
    log_norm: float
    factor_count: int
    max_factor_log_norm: float
    ratio: float


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    samples: tuple
    max_ratio_by_length: tuple   # ((length, max_ratio), ...)
    factor_count_histogram: tuple  # ((count, occurrences), ...)
    violations: int
    stable: bool
    empirical_constant: float


@dataclass(frozen=True)
class StrategySample:
    length: int
    index: int
    log_norm: float
    column_major_count: int
    column_major_ratio: float
    clockwise_count: int
    clockwise_ratio: float
    reannihilations: int


@dataclass(frozen=True)
class ComparisonReport:
    config: CampaignConfig
    samples: tuple
    all_verified: bool
    total_reannihilations: int


def _sample_seed(seed: int, counter: int) -> int:
    return (seed * 1_000_003 + counter * 10_007 + 12_345) & ((1 << 63) - 1)


def _words(config: CampaignConfig) -> list:
    """(length, index, word) per sample, in report order."""
    words = []
    for length in config.word_lengths:
        for index in range(config.samples_per_length):
            seed = _sample_seed(config.seed, len(words))
            words.append((length, index, random_word(config.n, length, seed)))
    return words


def _verified(gamma, fac, length: int, index: int):
    """The verification report of fac; CampaignError, carrying gamma, if it fails."""
    report = dec.verify(gamma, fac)
    if not report.all_ok:
        raise CampaignError(f"verification failed for length={length} index={index}",
                            matrix_to_json(gamma))
    return report


def _stability(max_ratio_by_length) -> bool:
    """Largest bucket's max ratio must stay within 10% of the prior maximum."""
    if len(max_ratio_by_length) <= 1:
        return True
    prior = max(r for _, r in max_ratio_by_length[:-1])
    last = max_ratio_by_length[-1][1]
    if prior == 0.0:
        return last == 0.0
    return last <= 1.10 * prior


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Decompose, verify and measure every sample; abort on any failure."""
    config = config.validate()
    ordering = (sl_class_ordering(config.n, seed=config.seed)
                if config.strategy == dec.CLOCKWISE else None)
    samples, violations = [], 0
    for length, index, gamma in _words(config):
        if config.strategy == dec.CLOCKWISE:
            fac = dec.decompose_clockwise(gamma, ordering)
        else:
            fac = dec.decompose_column_major(gamma)
        report = _verified(gamma, fac, length, index)
        stats = report.stats
        bound = dec.guaranteed_log_norm_bound(config.n, gamma)
        violations += sum(1 for v in stats.per_factor_log_norms if v > bound)
        samples.append(SampleRecord(length, index, stats.input_log_norm, report.factor_count,
                                    max(stats.per_factor_log_norms, default=0.0),
                                    stats.max_ratio))
    samples = tuple(samples)
    by_length = []
    for length in config.word_lengths:
        bucket = [s.ratio for s in samples if s.length == length]
        by_length.append((length, max(bucket)))
    histogram = Counter([s.factor_count for s in samples])
    max_ratio_by_length = tuple(by_length)
    return CampaignReport(
        config=config,
        samples=samples,
        max_ratio_by_length=max_ratio_by_length,
        factor_count_histogram=tuple(sorted(histogram.items())),
        violations=violations,
        stable=_stability(max_ratio_by_length),
        empirical_constant=max(r for _, r in max_ratio_by_length),
    )


def compare_strategies(config: CampaignConfig) -> ComparisonReport:
    """Run both strategies on the same samples; count clockwise re-annihilations."""
    config = config.validate()
    ordering = sl_class_ordering(config.n, seed=config.seed)
    samples = []
    for length, index, gamma in _words(config):
        rep_cm = _verified(gamma, dec.decompose_column_major(gamma), length, index)
        fac_cw, diag = dec.clockwise_with_diagnostics(gamma, ordering)
        rep_cw = _verified(gamma, fac_cw, length, index)
        samples.append(StrategySample(
            length, index, rep_cm.stats.input_log_norm,
            rep_cm.factor_count, rep_cm.stats.max_ratio,
            rep_cw.factor_count, rep_cw.stats.max_ratio,
            diag.reannihilations))
    samples = tuple(samples)
    return ComparisonReport(
        config=config,
        samples=samples,
        all_verified=True,
        total_reannihilations=sum(s.reannihilations for s in samples),
    )


# --- serialization ------------------------------------------------------------


def config_to_json(config: CampaignConfig) -> dict:
    return {
        "n": config.n,
        "word_lengths": list(config.word_lengths),
        "samples_per_length": config.samples_per_length,
        "seed": config.seed,
        "strategy": config.strategy,
    }


def config_from_json(obj) -> CampaignConfig:
    try:
        return CampaignConfig(
            n=json_int(obj["n"], "n"),
            word_lengths=tuple(json_int(x, "a word length") for x in obj["word_lengths"]),
            samples_per_length=json_int(obj["samples_per_length"], "samples_per_length"),
            seed=json_int(obj["seed"], "seed"),
            strategy=obj.get("strategy", dec.COLUMN_MAJOR),
        ).validate()
    except (KeyError, TypeError) as e:
        raise ValueError(f"invalid campaign config: {e}") from e


def report_to_json(report: CampaignReport) -> dict:
    return {
        "config": config_to_json(report.config),
        "samples": [
            {"length": s.length, "index": s.index, "log_norm": s.log_norm,
             "factor_count": s.factor_count,
             "max_factor_log_norm": s.max_factor_log_norm, "ratio": s.ratio}
            for s in report.samples
        ],
        "max_ratio_by_length": [[l, r] for l, r in report.max_ratio_by_length],
        "factor_count_histogram": {str(c): o for c, o in report.factor_count_histogram},
        "violations": report.violations,
        "stable": report.stable,
        "empirical_constant": report.empirical_constant,
    }


def report_to_json_bytes(report: CampaignReport) -> bytes:
    return (json.dumps(report_to_json(report), sort_keys=True, indent=2) + "\n").encode()


def report_to_csv(report: CampaignReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["length", "log_norm", "factor_count",
                     "max_factor_log_norm", "ratio"])
    for s in report.samples:
        writer.writerow([s.length, repr(s.log_norm), s.factor_count,
                         repr(s.max_factor_log_norm), repr(s.ratio)])
    return buf.getvalue()


def comparison_to_json(report: ComparisonReport) -> dict:
    return {
        "config": config_to_json(report.config),
        "samples": [
            {"length": s.length, "index": s.index, "log_norm": s.log_norm,
             "column_major_count": s.column_major_count,
             "column_major_ratio": s.column_major_ratio,
             "clockwise_count": s.clockwise_count,
             "clockwise_ratio": s.clockwise_ratio,
             "reannihilations": s.reannihilations}
            for s in report.samples
        ],
        "all_verified": report.all_verified,
        "total_reannihilations": report.total_reannihilations,
    }
