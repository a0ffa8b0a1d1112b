"""One workload process: time set-up, run `todalab.cli.main` once, report.

Usage: python3 child.py SPEC_JSON, where the spec holds
  src         directory that must hold the imported `todalab` package
  config      RunConfig fields whose parameter sets set-up builds
  argv        arguments for `todalab.cli.main`
  setup_only  stop after set-up
  trace       record layer spans around the workload
  result      path of the JSON result file this process writes

Set-up is the import of `todalab` plus `build_param_sets` for the workload's
config.  The result file carries set-up and workload wall time, exit code,
CPU time and peak RSS of this process, and, when traced, the spans and the
Wronskian-minor cache statistics.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import todalab.cli
    from todalab.suites import RunConfig, build_param_sets

    build_param_sets(RunConfig(**spec["config"]))
    result = {"setup_s": time.perf_counter() - start}

    package = Path(todalab.cli.__file__).resolve().parent
    if not package.is_relative_to(Path(spec["src"]).resolve()):
        result["error"] = f"imported todalab from {package}, not from {spec['src']}"
    elif not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            result["missing_sites"] = tracer.install()
        start = time.perf_counter()
        try:
            result["exit_code"] = todalab.cli.main(spec["argv"])
        except SystemExit as exc:
            result["exit_code"] = exc.code
        except Exception:
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            minors = getattr(sys.modules["todalab.solution"], "_wronskian_minors", None)
            if hasattr(minors, "cache_info"):
                info = minors.cache_info()
                result["minor_cache"] = {"hits": info.hits, "misses": info.misses}
            result["spans"] = tracer.spans

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
