#!/usr/bin/env python3
"""Round trip of the trace exporters through real parsers.

Runs ``vod_streaming --trace DIR/trace.json`` and then checks what it
wrote with the parsers its readers use:

  * ``json.load`` of the Chrome trace (obs::write_chrome_trace) must give
    an array whose first 8 entries are ``thread_name`` metadata and whose
    every other entry has ``name``, ``ph``, ``ts``, ``pid``, ``tid`` and
    ``args``;
  * ``json.loads`` of every JSONL line (obs::write_trace_jsonl) must give
    an object with ``event``, ``cat``, ``ts_us`` and ``args``;
  * ``tools/report.py --trace`` must render the JSONL to HTML.

Pure stdlib. Exit 0 on success; exit 1 naming the first violation.

Usage:
    export_roundtrip.py --vod-streaming build/examples/vod_streaming \\
                        --out-dir build/export_roundtrip
"""

import argparse
import json
import os
import subprocess
import sys

TRACKS = 8
CHROME_KEYS = ("name", "ph", "ts", "pid", "tid", "args")
JSONL_KEYS = ("event", "cat", "ts_us", "args")


def check_chrome(path):
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    if not isinstance(entries, list):
        return f"{path}: top level is {type(entries).__name__}, not an array"
    if len(entries) <= TRACKS:
        return f"{path}: {len(entries)} entries, expected events after the " \
               f"{TRACKS} track names"
    for i, entry in enumerate(entries[:TRACKS]):
        if entry.get("name") != "thread_name" or entry.get("ph") != "M":
            return f"{path}: entry {i} is not thread_name metadata: {entry}"
    for i, entry in enumerate(entries[TRACKS:], start=TRACKS):
        missing = [k for k in CHROME_KEYS if k not in entry]
        if missing:
            return f"{path}: entry {i} lacks {missing}: {entry}"
    return None


def check_jsonl(path):
    lines = 0
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, start=1):
            event = json.loads(line)
            missing = [k for k in JSONL_KEYS if k not in event]
            if missing:
                return f"{path}:{number}: lacks {missing}: {line.strip()}"
            lines += 1
    if lines == 0:
        return f"{path}: no events"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vod-streaming", required=True,
                        help="path to the vod_streaming example binary")
    parser.add_argument("--out-dir", required=True,
                        help="directory for the exported files")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    chrome = os.path.join(args.out_dir, "trace.json")
    jsonl = chrome + ".jsonl"
    report_html = os.path.join(args.out_dir, "report.html")
    report_py = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "report.py")

    subprocess.run([args.vod_streaming, "--trace", chrome], check=True,
                   stdout=subprocess.DEVNULL)
    for check, path in ((check_chrome, chrome), (check_jsonl, jsonl)):
        try:
            error = check(path)
        except (OSError, ValueError) as exc:
            error = f"{path}: {exc}"
        if error:
            print(f"export_roundtrip: FAIL — {error}", file=sys.stderr)
            return 1
    subprocess.run([sys.executable, report_py, "--trace", jsonl,
                    "-o", report_html], check=True)
    print("export_roundtrip: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
