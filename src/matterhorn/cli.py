"""Command-line entry point wiring all modules together.

Every run is deterministic given (argv, config, seed); the resolved
configuration, including defaulted unit energies, is embedded in each
output artifact.  Structured reports are JSON, tabular data is CSV, and
histograms can optionally be rendered to SVG.

Exit codes: 0 ok, 2 usage, 3 config, 4 verification failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import partial

import numpy as np

from . import __version__
from .attention import attention_pipeline, attention_reference
from .conversion import verify_equivalence
from .crossbar import MsuConfig, reference_readout, tiled_vmm
from .energy import (
    MODES,
    EnergyParams,
    TransformerBlockShape,
    area_estimate,
    block_energy,
    scenario_compare,
)
from .qnn import QnnLayer, QuantParams
from .spike import SYMMETRIC, ASYMMETRIC, SnnLayerConfig, decode_spike, encode_integer
from .stats import (
    ActivationSampler,
    REFERENCE_SILENCE_PCT,
    calibrate_gaussian_sigma,
    encode_samples,
    histogram_svg,
    sparsity_sweep,
    spike_time_histogram,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_VERIFY_FAILED = 4

# Widest code: the ``encode`` bit list is O(2^n).  ``verify`` builds one
# threshold table of 2^n floats (512 KiB at 16 bits) and looks each sampled
# potential or exhaustive output up in it.
MAX_BITS = 16
# ``verify --exhaustive`` walks (2^n)^fan_in input vectors; refuse beyond
# 2^EXHAUSTIVE_BUDGET_LOG2 of them.
EXHAUSTIVE_BUDGET_LOG2 = 20
# Each sample of the sampled domain costs one scalar exact floor (the ground
# truth) and a share of one table lookup per chunk; this many took 0.5-0.9 s
# at ``--bits 16`` (0.4-0.8 s at ``--bits 4``) in-process on a 2-core Xeon
# and peaked at about 40 MiB resident.
MAX_SAMPLES = 2**20
# ``verify --exhaustive`` sums vectors x fan_in x fan_out weighted terms on
# each side.  Real-valued terms are summed exactly rounded per output and
# every (vector, output) is quantized and fired, at about 0.15-0.2 us a term
# on the same host, so 2^TERMS_BUDGET_LOG2 terms keep a run within about 7 s
# there.  A layer its configs prove (an input dead zone on code zero, an
# output stage that agrees on every float) builds no vector block at all.
TERMS_BUDGET_LOG2 = 25
# ``attn`` sums up to 2 x tokens^2 x d_k terms per sample whatever the bit
# width, as two integer matrix products; at this cap (``--bits 16``) one
# sample takes 0.04-0.05 s in-process on the same host, and a one-sample
# run peaks at about 41 MiB resident.
MAX_ATTN_DIM = 128
# The fan_in x fan_out ``random:`` weights of ``verify`` take 8 MiB at this cap.
MAX_FAN = 1024
# ``stats`` and ``sweep`` quantize and encode in chunks, and peak at about
# 56 MiB resident at this sample count (n = 4, alpha 0.37, 2-core Xeon).
MAX_COUNT = 2**20
# ``xbar`` fuzzes one random VMM of up to 39 x 39 a case; this many cases
# took 6.7 s at ``--bits 4`` and 8.3 s at ``--bits 57`` on a 2-core Xeon.
MAX_FUZZ = 2**17
# ``encode`` prints 2^n bits for each code; 2^20 printed bits (16 codes at
# ``--bits 16``) took 0.9-1.1 s as a process on a 2-core Xeon and peaked at
# about 122 MiB resident, so codes x 2^n above 2^ENCODE_BUDGET_LOG2 is refused.
ENCODE_BUDGET_LOG2 = 20


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(invocation: dict, result) -> str:
    return json.dumps({"invocation": invocation, "result": result}, indent=2, sort_keys=True) + "\n"


def _csv_text(header_lines: list[str], columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _load_json_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _spike_config(args) -> SnnLayerConfig:
    """The run's spiking config; ``--baseline`` is plain TTFS, the mask at
    the last step, no ``--imax`` the config's default, mu = 0, and a flag
    the subcommand lacks (``--alpha``, ``--k``) the config's default."""
    i_max = 2**args.bits - 1 if getattr(args, "baseline", False) else args.imax
    read = {name: getattr(args, name) for name in ("alpha", "k") if hasattr(args, name)}
    return SnnLayerConfig(n=args.bits, mode=args.mode, i_max=i_max, **read)


def _int_in(lo: int, hi: int | None = None):
    """argparse type for an integer flag bounded to [lo, hi]."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" errors
    return parse


def _code_list(text: str) -> list[int]:
    """argparse type for a comma-separated list of integer codes."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}"
        ) from None


class _Given(argparse.Action):
    """Store a flag's value and note the flag, given at any value, in ``args.given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (self.option_strings[0],)


def _add_quant_flags(sub: argparse.ArgumentParser, *unread: str) -> None:
    """Register the code-space flags, less the ``unread`` ones the subcommand never reads."""
    add = partial(sub.add_argument, action=_Given)
    add("--bits", type=_int_in(1, MAX_BITS), default=4, help="code bit width n (window T = 2^n)")
    if "--alpha" not in unread:
        add("--alpha", type=float, default=1.0, help="quantization scale")
    add("--mode", choices=[SYMMETRIC, ASYMMETRIC], default=SYMMETRIC, help="quantization mode")
    add("--imax", type=int, default=None, help="masked firing time (default: mu=0)")
    if "--k" not in unread:
        add("--k", type=int, default=0, help="dead-zone radius")


def _exhaustive_overrun(in_n: int, fan_in: int, fan_out: int) -> str | None:
    """Why a ``verify --exhaustive`` run is over its vector or summed-term
    budget, or None; checked before the layer's weights are built.  The
    term budget prices the block route, which sums every (vector, output)
    and quantizes and fires it by one lookup in the layer's threshold
    table.  A layer its configs prove skips the blocks."""
    exponent = in_n * fan_in
    if exponent > EXHAUSTIVE_BUDGET_LOG2:
        return (
            f"--exhaustive: would walk (2^{in_n})^{fan_in} = 2^{exponent} "
            f"input vectors, over the budget of 2^{EXHAUSTIVE_BUDGET_LOG2}"
        )
    terms = 2**exponent * fan_out * fan_in
    if terms > 2**TERMS_BUDGET_LOG2:
        return (
            f"--exhaustive: would sum 2^{exponent} vectors x {fan_in} inputs x {fan_out} "
            f"outputs = {terms} terms, over the budget of 2^{TERMS_BUDGET_LOG2}"
        )
    return None


def _argv_overrun(args) -> str | None:
    """Why a budget that argv alone decides is exceeded, naming the flag, or None."""
    if args.subcommand == "encode" and len(args.codes) << args.bits > 2**ENCODE_BUDGET_LOG2:
        return (
            f"argument --codes: {len(args.codes)} codes x 2^{args.bits} bits = "
            f"{len(args.codes) << args.bits} printed bits, over the budget of 2^{ENCODE_BUDGET_LOG2}"
        )
    # sweep encodes once whatever --kmax is, but every radius past 2^n - 1
    # repeats the all-silent row, so --kmax also caps its output at 2^16 rows
    if args.subcommand == "sweep" and args.kmax > 2**args.bits - 1:
        return f"argument --kmax: {args.kmax} exceeds 2^{args.bits} - 1 = {2**args.bits - 1}"
    if args.subcommand == "verify" and args.exhaustive and args.weights.startswith("random:"):
        overrun = _exhaustive_overrun(args.bits, args.fan_in, args.fan_out)
        return overrun and f"argument {overrun}"
    return None


def _modes(args) -> tuple:
    """One row per mode: whether the run is in it, its name in a refusal,
    and the flags it never reads, which it refuses at any value."""
    value = vars(args).get
    return (
        # plain TTFS fixes its dead zone: i_max = 2^n - 1, k = 0
        (value("baseline"), "argument --baseline", ("--imax", "--k")),
        # calibration samples a Gaussian of the width that meets its target
        (value("calibrate") is not None, "argument --calibrate", ("--dist", "--scale")),
        # a fixed read-out: no random VMMs, input widths or draws
        (value("replay") is not None, "argument --replay", ("--fuzz", "--bits", "--seed")),
        (
            not value("weights", "random:").startswith("random:"),
            "a --weights file, which sets it",
            ("--bits", "--alpha", "--mode", "--imax", "--k", "--fan-in", "--fan-out"),
        ),
    )


def _cmd_verify(args) -> int:
    if args.weights.startswith("random:"):
        p = QuantParams(n=args.bits, alpha=args.alpha, mode=args.mode)
        cfg = _spike_config(args)
        seed = int(args.weights.split(":", 1)[1])
        rng = np.random.default_rng(seed)
        layer = QnnLayer(
            weights=rng.choice([-1.0, 1.0], size=(args.fan_in, args.fan_out)),
            bias=np.zeros(args.fan_out),
            in_params=p,
            out_params=p,
            mu=cfg.mu,
            k=cfg.k,
        )
    else:
        doc = _load_json_file(args.weights)
        n = doc.get("n") if isinstance(doc, dict) else None
        if isinstance(n, int) and n > MAX_BITS:  # refused before QuantParams builds 2^(n-1)
            raise ConfigError(f"layer bit width n={n} exceeds the maximum of {MAX_BITS}")
        try:
            layer = QnnLayer.from_json(json.dumps(doc))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad layer descriptor {args.weights}: {exc}") from exc
        p = layer.out_params
        overrun = _exhaustive_overrun(layer.in_params.n, layer.fan_in, layer.fan_out)
        if args.exhaustive and overrun:
            raise ConfigError(overrun)
        cfg = SnnLayerConfig(n=p.n, alpha=p.alpha, mode=p.mode, i_max=p.code_max - layer.mu, k=layer.k)

    kind = "exhaustive" if args.exhaustive else "sampled"  # exhaustive ignores samples and seed
    report = verify_equivalence(layer, cfg, domain=kind, samples=args.samples, seed=args.seed)
    domain = kind if args.exhaustive else f"sampled:{args.samples}"

    invocation = {
        "subcommand": "verify",
        "bits": layer.out_params.n,
        "alpha": layer.out_params.alpha,
        "mode": layer.out_params.mode,
        "i_max": cfg.i_max,
        "k": layer.k,
        "weights": args.weights,
        "domain": domain,
    }
    if not args.exhaustive:  # an exhaustive run draws nothing, so records no seed
        invocation["seed"] = args.seed
    _emit(_json_doc(invocation, report.to_dict()), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_encode(args) -> int:
    cfg = _spike_config(args)
    trains = [encode_integer(q, cfg) for q in args.codes]
    result = [
        {
            "code": q,
            "spike_time": tr.time,
            "bits": tr.bits.tolist(),
            "decoded": decode_spike(tr, cfg),
        }
        for q, tr in zip(args.codes, trains)
    ]
    invocation = {
        "subcommand": "encode",
        "bits": args.bits,
        "mode": args.mode,
        "i_max": cfg.i_max,
        "k": args.k,
    }
    _emit(_json_doc(invocation, result), args.out)
    return EXIT_OK


def _cmd_xbar(args) -> int:
    if args.replay:  # a fixed read-out: it draws nothing, so records no seed
        _emit(_json_doc({"subcommand": "xbar", "replay": args.replay}, reference_readout()), args.out)
        return EXIT_OK
    rng = np.random.default_rng(args.seed)
    cfg = MsuConfig(input_bits=args.bits)
    failures = 0
    max_dim = 0
    for _ in range(args.fuzz):
        c_i = int(rng.integers(1, 40))
        c_o = int(rng.integers(1, 40))
        w = rng.choice([-1.0, 1.0], size=(c_i, c_o))
        x = rng.integers(0, 2**args.bits, size=c_i)
        got = tiled_vmm(x, w, cfg)
        want = x @ w.astype(np.int64)
        if not np.array_equal(got, want):
            failures += 1
        max_dim = max(max_dim, c_i, c_o)
    invocation = {"subcommand": "xbar", "seed": args.seed, "fuzz": args.fuzz, "bits": args.bits}
    result = {"cases": args.fuzz, "failures": failures, "max_dim": max_dim}
    _emit(_json_doc(invocation, result), args.out)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _cmd_attn(args) -> int:
    cfg = _spike_config(args)
    rng = np.random.default_rng(args.seed)
    mismatches = 0
    for _ in range(args.samples):
        q = rng.integers(cfg.code_min, cfg.code_max + 1, size=(args.tokens, args.dk))
        k = rng.integers(cfg.code_min, cfg.code_max + 1, size=(args.tokens, args.dk))
        v = rng.integers(cfg.code_min, cfg.code_max + 1, size=(args.tokens, args.dk))
        q_trains = [[encode_integer(int(c), cfg) for c in row] for row in q]
        got = attention_pipeline(q_trains, k, v, cfg)
        want = attention_reference(q, k, v, cfg)
        if not np.array_equal(got, want):
            mismatches += 1
    invocation = {
        "subcommand": "attn",
        "tokens": args.tokens,
        "dk": args.dk,
        "bits": args.bits,
        "mode": args.mode,
        "i_max": cfg.i_max,
        "k": args.k,
        "samples": args.samples,
        "seed": args.seed,
    }
    result = {"cases": args.samples, "mismatches": mismatches}
    _emit(_json_doc(invocation, result), args.out)
    return EXIT_OK if mismatches == 0 else EXIT_VERIFY_FAILED


def _energy_params(args) -> EnergyParams:
    if not args.params:
        return EnergyParams()
    try:
        return EnergyParams(**_load_json_file(args.params))
    except TypeError as exc:
        raise ConfigError(f"bad unit-energy override in {args.params}: {exc}") from exc


def _cmd_energy(args) -> int:
    params = _energy_params(args)
    if args.shape:
        try:
            block = TransformerBlockShape(**_load_json_file(args.shape))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad block shape in {args.shape}: {exc}") from exc
    else:
        block = TransformerBlockShape()
    rates = _load_json_file(args.rates) if args.rates else None
    try:
        report = block_energy(block, args.mode, rates=rates, params=params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    invocation = {"subcommand": "energy", "mode": args.mode}
    if args.format == "json":
        _emit(_json_doc(invocation, report.to_dict()), args.out)
    else:
        rows = [[name, f"{val:.6e}"] for name, val in report.categories.items()]
        rows.append(["total", f"{report.total_j:.6e}"])
        header = [
            f"block_energy mode={args.mode} total_mj={report.total_mj:.3f}",
            f"rates={json.dumps(report.assumptions['rates'], sort_keys=True)}",
            f"unit_energies_pj={json.dumps(report.assumptions['unit_energies_pj'], sort_keys=True)}",
        ]
        _emit(_csv_text(header, ["category", "joules"], rows), args.out)
    return EXIT_OK


def _cmd_scenario(args) -> int:
    params = _energy_params(args)
    rows = scenario_compare(params=params)
    if args.format == "json":
        _emit(_json_doc({"subcommand": "scenario"}, [r.to_dict() for r in rows]), args.out)
    else:
        table = [
            [
                r.name,
                r.time_steps,
                f"{r.s_r:.4f}",
                f"{r.total_mj:.3f}",
                f"{r.shares['compute']:.2f}",
                f"{r.shares['spike_movement']:.2f}",
                f"{r.shares['weight_access']:.2f}",
                f"{r.shares['other']:.2f}",
            ]
            for r in rows
        ]
        header = ["scenario comparison at block scale; shares in percent"]
        columns = ["name", "T", "s_r", "total_mJ", "compute", "spike_movement", "weight_access", "other"]
        _emit(_csv_text(header, columns, table), args.out)
    return EXIT_OK


def _cmd_area(args) -> int:
    est = area_estimate()
    _emit(_json_doc({"subcommand": "area"}, est.to_dict()), args.out)
    return EXIT_OK


def _sampler(args, calibration_cfg: SnnLayerConfig) -> ActivationSampler:
    """The run's activation source; ``--calibrate`` replaces it with the
    Gaussian that hits the target silence under ``calibration_cfg``."""
    if args.calibrate is None:
        return ActivationSampler(kind=args.dist, loc=args.loc, scale=args.scale, seed=args.seed)
    sigma = calibrate_gaussian_sigma(args.calibrate, calibration_cfg, loc=args.loc)
    return ActivationSampler(kind="gaussian", loc=args.loc, scale=sigma, seed=args.seed)


def _sampling_header(
    title: str, args, sampler: ActivationSampler, cfg: SnnLayerConfig, k: int | None = None
) -> list[str]:
    """Header lines shared by the sampled-activation reports; ``k`` is
    named only when the report uses a single dead-zone radius."""
    radius = "" if k is None else f" k={k}"
    return [
        f"{title} over {args.count} samples",
        f"sampler={sampler.kind} loc={sampler.loc} scale={sampler.scale} seed={sampler.seed}",
        f"bits={args.bits} alpha={args.alpha} mode={args.mode} i_max={cfg.i_max}{radius}",
        f"silent decodes to mu={cfg.mu}",
    ]


def _cmd_stats(args) -> int:
    cfg = _spike_config(args)
    sampler = _sampler(args, cfg)
    times = encode_samples(sampler.sample(args.count), cfg)
    hist = spike_time_histogram(times, cfg)
    header = _sampling_header("spike-time histogram", args, sampler, cfg, k=cfg.k)
    header.append(f"silence_fraction={hist.silence_fraction:.6f}")
    rows = [[label, count] for label, count in hist.to_rows()]
    _emit(_csv_text(header, ["t", "count"], rows), args.out)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(histogram_svg(hist))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _spike_config(args)
    sampler = _sampler(args, cfg)  # the sweep's target is silence at cfg's radius, k=0
    rows = sparsity_sweep(sampler, cfg, range(args.kmax + 1), count=args.count)
    header = _sampling_header("dead-zone sparsity sweep", args, sampler, cfg)
    header.append(f"reference_silence_pct={json.dumps(REFERENCE_SILENCE_PCT, sort_keys=True)}")
    table = [
        [
            r.k,
            f"{r.silence:.6f}",
            f"{r.mean_spike_rate:.6f}",
            f"{REFERENCE_SILENCE_PCT.get(r.k, '')}",
        ]
        for r in rows
    ]
    _emit(_csv_text(header, ["k", "silence", "mean_spike_rate", "reference_silence_pct"], table), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matterhorn",
        description="Spiking-transformer encoding, crossbar and energy toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # a flag answers to its whole name only, so sweep --k is no --kmax
    add_parser = partial(sub.add_parser, allow_abbrev=False)

    p_verify = add_parser("verify", help="check quantized/spiking layer equivalence")
    _add_quant_flags(p_verify)
    p_verify.add_argument("--weights", default="random:0", help="layer JSON file or random:SEED")
    p_verify.add_argument("--fan-in", type=_int_in(1, MAX_FAN), default=4, action=_Given)
    p_verify.add_argument("--fan-out", type=_int_in(1, MAX_FAN), default=4, action=_Given)
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true", help="all input code vectors")
    group.add_argument(
        "--samples", type=_int_in(1, MAX_SAMPLES), default=100_000, help="sampled pre-activations"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_encode = add_parser("encode", help="encode integer codes as spike trains")
    _add_quant_flags(p_encode, "--alpha")  # encoding and decoding read no scale
    p_encode.add_argument(
        "--codes", type=_code_list, required=True, help="comma-separated integer codes"
    )
    p_encode.set_defaults(func=_cmd_encode)

    p_xbar = add_parser("xbar", help="crossbar read-out replay and VMM fuzzing")
    p_xbar.add_argument("--replay", choices=["reference"], help="replay the documented read-out")
    add = partial(p_xbar.add_argument, action=_Given)
    add("--fuzz", type=_int_in(1, MAX_FUZZ), default=100, help="random VMM instances")
    # sums of up to 39 fuzzed rows stay inside int64 only up to 57-bit inputs
    add("--bits", type=_int_in(1, 57), default=4, help="input bit budget")
    p_xbar.set_defaults(func=_cmd_xbar)

    p_attn = add_parser("attn", help="time-based attention vs integer reference")
    _add_quant_flags(p_attn, "--alpha")  # the pipeline scores in code space
    p_attn.add_argument("--tokens", type=_int_in(1, MAX_ATTN_DIM), default=4)
    p_attn.add_argument("--dk", type=_int_in(1, MAX_ATTN_DIM), default=4)
    p_attn.add_argument("--samples", type=_int_in(1), default=20)
    p_attn.set_defaults(func=_cmd_attn)

    p_energy = add_parser("energy", help="block energy for one operating mode")
    p_energy.add_argument("--mode", choices=list(MODES), default="baseline")
    p_energy.add_argument("--shape", help="JSON file overriding the block shape")
    p_energy.add_argument("--params", help="JSON file overriding unit energies")
    p_energy.add_argument("--rates", help="JSON file of per-component spike rates")
    p_energy.add_argument("--format", choices=["json", "csv"], default="json")
    p_energy.set_defaults(func=_cmd_energy)

    p_scen = add_parser("scenario", help="published spiking-transformer comparison points")
    p_scen.add_argument("--params", help="JSON file overriding unit energies")
    p_scen.add_argument("--format", choices=["json", "csv"], default="csv")
    p_scen.set_defaults(func=_cmd_scenario)

    p_area = add_parser("area", help="macro count and silicon area per block/model")
    p_area.set_defaults(func=_cmd_area)

    p_stats = add_parser("stats", help="spike-time histogram of synthetic activations")
    _add_quant_flags(p_stats)
    p_stats.add_argument(
        "--baseline",
        action="store_true",
        help="plain TTFS: the mask at the last step (i_max = 2^n - 1, k = 0)",
    )
    p_stats.add_argument("--svg", help="also render an SVG bar chart to this path")
    p_stats.set_defaults(func=_cmd_stats)

    p_sweep = add_parser("sweep", help="silence vs dead-zone radius table")
    _add_quant_flags(p_sweep, "--k")  # the sweep sets every radius from 0 to --kmax
    p_sweep.add_argument("--kmax", type=_int_in(0), default=3)
    p_sweep.set_defaults(func=_cmd_sweep)

    for p, radius in ((p_stats, "this k"), (p_sweep, "k=0")):  # the sampled-activation reports
        p.add_argument("--dist", choices=["gaussian", "laplace"], default="gaussian", action=_Given)
        p.add_argument("--loc", type=float, default=0.0)
        p.add_argument("--scale", type=float, default=1.0, action=_Given)
        p.add_argument("--count", type=_int_in(1, MAX_COUNT), default=20_000)
        p.add_argument("--calibrate", type=float, default=None, help=f"target silence at {radius}")

    for p in (p_verify, p_xbar, p_attn, p_stats, p_sweep):  # the subcommands that draw
        add = partial(p.add_argument, action=_Given)
        add("--seed", type=_int_in(0), default=0, help="RNG seed (MATTERHORN_SEED overrides)")
    for p in (p_verify, p_encode, p_xbar, p_attn, p_energy, p_scen, p_area, p_stats, p_sweep):
        p.add_argument("--out", help="write the artifact to this path instead of stdout")

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse argv and run the chosen subcommand; returns the exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    given = getattr(args, "given", ())  # the flags a mode may refuse, in argv at any value
    for on, mode, flags in _modes(args):
        for flag in flags:
            if on and flag in given:
                parser.error(f"argument {flag}: not allowed with {mode}")
    overrun = _argv_overrun(args)
    if overrun:
        parser.error(overrun)
    try:
        env_seed = os.environ.get("MATTERHORN_SEED")
        if env_seed is not None and hasattr(args, "seed"):
            try:
                args.seed = int(env_seed)
                if args.seed < 0:
                    raise ValueError
            except ValueError as exc:
                raise ConfigError(
                    f"MATTERHORN_SEED must be a non-negative integer, got {env_seed!r}"
                ) from exc
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": "config", "detail": str(exc)}) + "\n")
        return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
