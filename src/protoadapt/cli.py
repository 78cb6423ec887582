"""Command-line surface.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .datasets import read_feature_file
from .errors import (ConfigError, DataFormatError, EvaluationUnavailableError,
                     NumericError)
from .gradcheck import TOLERANCE, run_suite
from .harness import (ABLATION_MODES, apply_ablation, check_fits, evaluate,
                      load_config, parse_synthetic_spec, run_adapt_phase,
                      run_experiment, run_source_phase, write_synthetic)
from .model import load_checkpoint


def _cmd_gen(args) -> int:
    data = write_synthetic(parse_synthetic_spec(args.spec),
                           source=args.out_source, target=args.out_target)
    print(f"wrote {data['source'].n} source samples to {args.out_source}")
    print(f"wrote {data['target'].n} target samples to {args.out_target}")
    return 0


def _cmd_train_source(args) -> int:
    _, _, history = run_source_phase(load_config(args.config), args.out)
    final = history[-1].source_acc if history else float("nan")
    print(f"source training done: {len(history)} epochs, accuracy {final:.4f}")
    print(f"checkpoint: {args.out}")
    return 0


def _cmd_adapt(args) -> int:
    cfg = load_config(args.config)
    encoder, prototypes, _ = load_checkpoint(args.source_ckpt)
    _, result = run_adapt_phase(cfg, encoder, prototypes, args.out)
    print(f"adaptation done: {len(result.history)} epochs")
    if result.history and result.history[-1].target_acc is not None:
        print(f"final target accuracy {result.history[-1].target_acc:.4f}")
    print(f"checkpoint: {args.out}")
    return 0


def _cmd_eval(args) -> int:
    encoder, prototypes, ensemble = load_checkpoint(args.ckpt)
    weights = ensemble[0] if ensemble else prototypes.weights
    dataset = read_feature_file(args.data)
    check_fits(encoder, prototypes, dataset)
    result = evaluate(encoder, weights, dataset)
    print(f"accuracy {result.accuracy:.6f}")
    if result.negative_transfer is not None:
        print(f"negative_transfer {result.negative_transfer:.6f}")
    for c, acc in sorted(result.per_class.items()):
        print(f"class {c} {acc:.6f}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    cfg = apply_ablation(cfg, args.mode)
    cfg = replace(cfg, out_dir=str(Path(cfg.out_dir) / args.mode))
    summary = run_experiment(cfg)
    print(f"mode {args.mode}")
    print(f"baseline accuracy {summary['baseline']['accuracy']:.6f}")
    print(f"adapted accuracy {summary['adapted']['accuracy']:.6f}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed)
    ok = True
    for name, err in results.items():
        status = "ok" if err < TOLERANCE else "FAIL"
        ok = ok and err < TOLERANCE
        print(f"{name} max_rel_err {err:.3e} {status}")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="protoadapt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic source/target pair")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-source", required=True)
    p.add_argument("--out-target", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("train-source", help="phase 1: learn prototypes")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_source)

    p = sub.add_parser("adapt", help="phase 2: adapt to the target domain")
    p.add_argument("--config", required=True)
    p.add_argument("--source-ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_adapt)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a feature file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("ablate", help="run one ablation mode end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True, choices=ABLATION_MODES)
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, EvaluationUnavailableError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
