"""Record the parameter hashes that the training workloads check.

    python3 perfbench/record_reference.py

Trains every cell of `train_st` and `train_adv` at each cell seed and
writes `perfbench/reference.json`, together with the numpy version, BLAS
build and thread count the hashes were made on: other builds may round the
last bits differently, so the hashes are checked only on the same build.
"""

import json

import run  # first: pins the BLAS thread count before numpy loads
import workloads


def main():
    build = run.build_info()
    hashes, epochs = {}, {}
    for name in workloads.TRAIN:
        wl = workloads.make(name, run.ROOT)
        epochs[name] = list(wl.epochs)
        cells = hashes[name] = {f"{sc}/{sch}": [] for sc, sch in wl.cells}
        for seed in range(workloads.CELL_SEEDS):
            st = wl.setup(seed, build)
            for scenario, scheme in wl.cells:
                cells[f"{scenario}/{scheme}"].append(wl.train(st, scenario, scheme))
                print(name, scenario, scheme, seed, cells[f"{scenario}/{scheme}"][-1])
    workloads.REFERENCE.write_text(json.dumps(
        {"build": build, "epochs": epochs, "param_hash": hashes},
        indent=2) + "\n")


if __name__ == "__main__":
    main()
