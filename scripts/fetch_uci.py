#!/usr/bin/env python3
"""Fetch a few fully categorical UCI datasets for the experiment harness.

The library itself never touches the network; this script is the one
documented place that downloads data.  It grabs datasets that need no
discretization, saves each download as <name>.data, reads it with the
package's CSV reader and rewrites it as a header-bearing CSV with the class
in the last column, ready for `midist run --data ...`.

Requires outbound network access.
"""

import argparse
import csv
import urllib.request
from pathlib import Path

SOURCES = {
    # name: (url, class column index in the raw file, number of columns)
    "vote": (
        "https://archive.ics.uci.edu/ml/machine-learning-databases/voting-records/house-votes-84.data",
        0,
        17,
    ),
    "lymphography": (
        "https://archive.ics.uci.edu/ml/machine-learning-databases/lymphography/lymphography.data",
        0,
        19,
    ),
}


def fetch(name: str, out_dir: Path) -> Path:
    # imported here, so that --help runs without the package on the path
    from midist.errors import InputError
    from midist.harness import read_rows

    url, class_index, width = SOURCES[name]
    raw_path = out_dir / f"{name}.data"
    with urllib.request.urlopen(url) as response:
        raw_path.write_bytes(response.read())
    try:
        names, rows, _ = read_rows(raw_path, header=False, class_column=class_index)
    except InputError as exc:
        raise SystemExit(f"{name}: {exc}") from None
    if len(names) != width:
        raise SystemExit(f"{name}: unexpected row width {len(names)} (wanted {width})")
    out_path = out_dir / f"{name}.csv"
    attr_indices = [i for i in range(width) if i != class_index]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"a{i}" for i in range(len(attr_indices))] + ["class"])
        for row in rows:
            writer.writerow([row[i] for i in attr_indices] + [row[class_index]])
    return out_path


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="datasets")
    parser.add_argument("--names", default=",".join(SOURCES))
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.names.split(","):
        if name not in SOURCES:
            raise SystemExit(f"unknown dataset {name!r}; known: {sorted(SOURCES)}")
        path = fetch(name, out_dir)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
