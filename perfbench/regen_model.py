"""Rewrite ``model_stats.json``: ``python3 perfbench/regen_model.py``.

The offline workload compares the modelled statistics it computes with this
copy, so a speed change that silently alters the model fails the run.  A
change that corrects the model reruns this command and commits the result.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import INPUT_LEN, PROFILE_FRACTION, SCALE  # noqa: E402
from repro.experiments.pipeline import AppRun  # noqa: E402
from repro.workloads.registry import get_app  # noqa: E402
from seeded import (INPUT_VARIANTS, MODEL_COPY, OFFLINE_APPS,  # noqa: E402
                    modelled_row, pinned_config, seeded_spec)


def main() -> int:
    config = pinned_config()
    variants = {}
    for variant in range(INPUT_VARIANTS):
        variants[str(variant)] = {
            abbr: modelled_row(AppRun(seeded_spec(get_app(abbr), variant), config))
            for abbr in OFFLINE_APPS
        }
        print(f"variant {variant}: "
              + ", ".join(f"{abbr} {row['spap_speedup']:.3f}x"
                          for abbr, row in variants[str(variant)].items()),
              flush=True)
    document = {
        "operating_point": {"scale": SCALE, "input_len": INPUT_LEN,
                            "profile_fraction": PROFILE_FRACTION,
                            "apps": list(OFFLINE_APPS),
                            "variants": INPUT_VARIANTS},
        "variants": variants,
    }
    with open(MODEL_COPY, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {MODEL_COPY.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
