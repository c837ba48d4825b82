#!/usr/bin/env python3
"""Appends the latest results/*.txt runs to EXPERIMENTS.md (measured section)."""
import pathlib, datetime

root = pathlib.Path(__file__).resolve().parent.parent
results = root / "results"
md = root / "EXPERIMENTS.md"

order = [
    ("table2_profiles", "Table II — dataset profiles"),
    ("table3_movielens", "Table III — MovieLens-1M stand-in"),
    ("table4_bookcrossing", "Table IV — Bookcrossing stand-in"),
    ("table5_douban", "Table V — Douban stand-in"),
    ("fig6_efficiency", "Fig. 6 — test time"),
    ("fig7_sensitivity", "Fig. 7 — sensitivity"),
    ("table6_ablation", "Table VI — ablation"),
    ("fig8_sampling", "Fig. 8 — sampling strategies"),
    ("fig9_case_study", "Fig. 9 — case study"),
]

text = md.read_text()
marker = "## Measured results (appended by scripts/update_experiments_md.py)"
text = text[: text.index(marker)] if marker in text else text
out = [text.rstrip(), "", "## Measured results (appended by scripts/update_experiments_md.py)", ""]
out.append(f"Generated {datetime.date.today()} by `scripts/run_all_experiments.sh` "
           "(tiers noted per block; single CPU core).")
for name, title in order:
    f = results / f"{name}.txt"
    if not f.exists():
        out.append(f"\n### {title}\n\n*(not yet generated — run `cargo run -p hire-eval --release --bin {name}`)*")
        continue
    out.append(f"\n### {title}\n\n```text")
    out.append(f.read_text().rstrip())
    out.append("```")
md.write_text("\n".join(out) + "\n")
print("EXPERIMENTS.md updated")
