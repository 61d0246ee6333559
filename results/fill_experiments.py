#!/usr/bin/env python3
"""Fills EXPERIMENTS.md's REPLACE_* placeholders from the harness output.

Usage: python3 results/fill_experiments.py
Reads results/harness_scale0.01.txt, writes EXPERIMENTS.md in place.
"""
import re
import pathlib

root = pathlib.Path(__file__).resolve().parent.parent
raw = (root / "results" / "harness_scale0.01.txt").read_text()
exp = (root / "EXPERIMENTS.md").read_text()

sections = {}
for block in raw.split("== "):
    if not block.strip():
        continue
    name, _, body = block.partition(" ==")
    sections[name.strip()] = body


def jts_row(label):
    m = re.search(rf"{label}\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)x", sections["jts_vs_geos"])
    return f"{m.group(3)}× ({m.group(1)} s vs {m.group(2)} s)" if m else "n/a"


def t1_row(label):
    m = re.search(rf"^{re.escape(label)}\s+(\d+)\s+(\d+)\s+(\d+)\s*$",
                  sections["table1"], re.M)
    return f"{m.group(1)} / {m.group(2)} / {m.group(3)}" if m else "n/a"


def t2_row(label):
    m = re.search(rf"^{re.escape(label)}\s+(\d+)\s+(\d+)\s+([\d.]+)x",
                  sections["table2"], re.M)
    if not m:
        return "n/a | n/a"
    return f"{m.group(1)} / {m.group(2)} | {m.group(3)}×"


def fig_summary(key):
    body = sections[key]
    lines = [l for l in body.splitlines() if re.match(r"^(taxi|G10M)", l)]
    out = ["", "```text"]
    header = [l for l in body.splitlines() if l.startswith("experiment")]
    out.extend(header)
    out.extend(lines)
    out.append("```")
    return "\n".join(out)


def fault_summary():
    body = sections.get("fault_tolerance", "")
    lines = [l for l in body.splitlines() if l.strip().endswith("x")]
    return "\n" + "\n".join("  - " + re.sub(r"\s+", " ", l).strip() for l in lines)


def ablation_rows():
    """REPLACE_ABL_* values from results/BENCH_fig45_ablation.json."""
    import json

    keys = {
        "REPLACE_ABL_DYNAMIC": "Dynamic",
        "REPLACE_ABL_CHUNKED": "StaticChunked",
        "REPLACE_ABL_LOCALITY": "StaticLocality",
    }
    path = root / "results" / "BENCH_fig45_ablation.json"
    if not path.exists():
        return {k: "n/a (run fig4/fig5 --ablate)" for k in [*keys, "REPLACE_ABL_IDENTICAL"]}
    data = json.loads(path.read_text())
    skewed = [e for e in data["experiments"]
              if e["experiment"] in ("taxi-lion-500", "G10M-wwf")]
    out = {}
    for placeholder, sched in keys.items():
        parts = []
        for e in skewed:
            imb = [c["imbalance"] for c in e["cells"]
                   if c["scheduler"] == sched and c["nodes"] == 10]
            if imb:
                parts.append(f'{imb[0]:.2f} ({e["experiment"]})')
        out[placeholder] = ", ".join(parts) if parts else "n/a"
    identical = all(e["identical_to_serial"] for e in data["experiments"])
    out["REPLACE_ABL_IDENTICAL"] = "yes, all experiments" if identical else "NO — diverged"
    return out


repl = {
    "REPLACE_JTS_NYCB": jts_row("taxi10k-nycb"),
    "REPLACE_JTS_WWF": jts_row("gbif10k-wwf"),
    "REPLACE_T1_NYCB": t1_row("taxi-nycb"),
    "REPLACE_T1_L100": t1_row("taxi-lion-100"),
    "REPLACE_T1_L500": t1_row("taxi-lion-500"),
    "REPLACE_T1_WWF": t1_row("G10M-wwf"),
    "REPLACE_T2_NYCB": t2_row("taxi-nycb"),
    "REPLACE_T2_L100": t2_row("taxi-lion-100"),
    "REPLACE_T2_L500": t2_row("taxi-lion-500"),
    "REPLACE_T2_WWF": t2_row("G10M-wwf"),
    "REPLACE_FIG4_SUMMARY": fig_summary("fig4"),
    "REPLACE_FIG5_SUMMARY": fig_summary("fig5"),
    "REPLACE_FAULT": fault_summary(),
    **ablation_rows(),
}
for k, v in repl.items():
    exp = exp.replace(k, v)
(root / "EXPERIMENTS.md").write_text(exp)
print("EXPERIMENTS.md filled")
