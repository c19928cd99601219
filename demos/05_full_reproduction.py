"""Run the whole embedded-data analysis and write the report plus a
scatter plot of held-out predictions.  Equivalent to `spanmeta reproduce`."""

from pathlib import Path

from spanmeta import build_reproduction_report, scatter_svg

run = build_reproduction_report()

out = Path("reproduction_out")
out.mkdir(exist_ok=True)
(out / "report.json").write_text(run.report.to_json())
(out / "scatter.svg").write_text(scatter_svg(run.full_cv.actual, run.full_cv.predictions))

print(run.report.to_text())
print(f"wrote {out / 'report.json'} and {out / 'scatter.svg'}")
