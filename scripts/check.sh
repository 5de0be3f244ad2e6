#!/bin/sh
# Repo health check: build, full test suite, and an observability smoke
# run of the end-to-end driver. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== repo hygiene =="
# Build artifacts must never be tracked or staged.
if git ls-files | grep -q '^_build/'; then
  echo "FAIL: _build/ paths are tracked by git" >&2
  git ls-files | grep '^_build/' | head >&2
  exit 1
fi
if git status --porcelain | awk '{print $2}' | grep -q '^_build/'; then
  echo "FAIL: _build/ paths are staged or modified in git status" >&2
  exit 1
fi

echo "== module-level state allowlist =="
# Run-wide mutable state is owned by a Support.Ctx.t, a build env or an
# artifact, and reaches code through arguments. A module-level ref,
# hash table, mutex or atomic in lib/ is process-global state: each one
# must be listed here, with its reason in a comment at its definition.
# The list is exact, so a removed item must leave it too.
state_allowlist='lib/buildsys/driver.ml:func_digests
lib/buildsys/driver.ml:func_digests_m
lib/obs/hostclock.ml:last
lib/support/pool.ml:live_m
lib/support/pool.ml:live_pools'
state_found=$(find lib -name '*.ml' | sort | xargs perl -0ne '
  while (/^let\s+([a-z_][A-Za-z0-9_\x27]*)\s*(?::[^=\n]*)?=\s*(?:ref\b|Hashtbl\.create|[A-Za-z_.]*Tbl\.create|Mutex\.create|Atomic\.make)/mg) {
    print "$ARGV:$1\n"
  }' | LC_ALL=C sort)
if [ "$state_found" != "$state_allowlist" ]; then
  echo "FAIL: module-level mutable state in lib/ differs from the allowlist" >&2
  echo "found:" >&2
  echo "$state_found" >&2
  echo "allowed:" >&2
  echo "$state_allowlist" >&2
  exit 1
fi

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== propeller_driver --trace smoke =="
out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

log="$out_dir/driver.log"
dune exec bin/propeller_driver.exe -- \
  --benchmark 505.mcf --requests 40 \
  --trace "$out_dir/trace.json" \
  --metrics-out "$out_dir/metrics.json" \
  --metrics >"$log"

# The driver re-parses the trace it wrote with its own JSON parser and
# reports the verdict; require that confirmation plus both artifacts.
grep -q "valid JSON" "$log" || {
  echo "FAIL: driver did not validate the emitted trace" >&2
  cat "$log" >&2
  exit 1
}
test -s "$out_dir/trace.json" || { echo "FAIL: empty trace.json" >&2; exit 1; }
test -s "$out_dir/metrics.json" || { echo "FAIL: empty metrics.json" >&2; exit 1; }
grep -q '"traceEvents"' "$out_dir/trace.json" || {
  echo "FAIL: trace.json is not a Chrome trace-event file" >&2
  exit 1
}
# One complete-duration span per pipeline phase (paper Table 5 rows).
for phase in metadata_build profiling wpa optimized_build; do
  grep -q "\"phase:$phase\"" "$out_dir/trace.json" || {
    echo "FAIL: trace.json missing phase:$phase span" >&2
    exit 1
  }
done
grep -q "buildsys.cache" "$out_dir/metrics.json" || {
  echo "FAIL: metrics.json missing build-cache counters" >&2
  exit 1
}

echo "== self-profile smoke =="
# --self-profile-out must emit JSON our own parser accepts (the tool
# validates and prints the verdict) and a non-empty hotspot table.
dune exec bin/propeller_driver.exe -- \
  --benchmark 505.mcf --requests 40 \
  --self-profile-out "$out_dir/selfprof.json" >"$out_dir/selfprof.log"
grep -q "self-profile: .*valid JSON" "$out_dir/selfprof.log" || {
  echo "FAIL: driver did not validate the emitted self-profile" >&2
  cat "$out_dir/selfprof.log" >&2
  exit 1
}
test -s "$out_dir/selfprof.json" || { echo "FAIL: empty selfprof.json" >&2; exit 1; }
grep -q '^self-profile hotspots' "$out_dir/selfprof.log" || {
  echo "FAIL: driver printed no hotspot table" >&2
  exit 1
}
# At least one known phase must rank (the table is never empty on a
# real run).
grep -Eq '^(compile|exec:run|link|codegen|phase:wpa) ' "$out_dir/selfprof.log" || {
  echo "FAIL: hotspot table has no recognizable phase rows" >&2
  cat "$out_dir/selfprof.log" >&2
  exit 1
}
# propeller_stat top re-reads the exported profile.
dune exec bin/propeller_stat.exe -- top --from "$out_dir/selfprof.json" -n 5 \
  >"$out_dir/top.log" || {
  echo "FAIL: propeller_stat top --from rejected the exported profile" >&2
  exit 1
}
test -s "$out_dir/top.log" || { echo "FAIL: propeller_stat top printed nothing" >&2; exit 1; }

echo "== parallel determinism smoke =="
# The --jobs contract: the optimized image and the judged metrics are
# byte-identical at any pool width (traces may differ; they only add
# per-domain lanes) — and stay so with self-profiling on, which must
# never perturb simulated outputs. Run the driver at 4 and 1 and
# compare.
for j in 4 1; do
  dune exec bin/propeller_driver.exe -- \
    --benchmark 505.mcf --requests 40 --jobs "$j" --self-profile \
    --metrics-out "$out_dir/metrics_j$j.json" >"$out_dir/driver_j$j.log"
done
digest4=$(grep '^image digest:' "$out_dir/driver_j4.log")
digest1=$(grep '^image digest:' "$out_dir/driver_j1.log")
test -n "$digest1" || { echo "FAIL: driver printed no image digest" >&2; exit 1; }
if [ "$digest4" != "$digest1" ]; then
  echo "FAIL: image digest differs between --jobs 4 and --jobs 1" >&2
  echo "  jobs=4: $digest4" >&2
  echo "  jobs=1: $digest1" >&2
  exit 1
fi
cmp -s "$out_dir/metrics_j4.json" "$out_dir/metrics_j1.json" || {
  echo "FAIL: metrics JSON differs between --jobs 4 and --jobs 1" >&2
  exit 1
}
# Fast-path equivalence: the flat tape dispatch and the packed-key LBR
# collector feed phase 3, so its deterministic summary (sample and
# hot-func counts) must not depend on pool width either.
prof1=$(sed -n 's/^phase 3 ([^)]*): \([0-9]* samples, [0-9]* hot funcs\).*/\1/p' "$out_dir/driver_j1.log")
prof4=$(sed -n 's/^phase 3 ([^)]*): \([0-9]* samples, [0-9]* hot funcs\).*/\1/p' "$out_dir/driver_j4.log")
test -n "$prof1" || { echo "FAIL: driver printed no phase 3 profile summary" >&2; exit 1; }
if [ "$prof1" != "$prof4" ]; then
  echo "FAIL: profile summary differs between --jobs 1 and --jobs 4" >&2
  echo "  jobs=1: $prof1" >&2
  echo "  jobs=4: $prof4" >&2
  exit 1
fi

echo "== propeller_inspect smoke =="
# Each view must produce JSON that our own Obs.Json parser accepts; the
# validate subcommand exits non-zero on any parse failure.
for view in annotate size paths; do
  dune exec bin/propeller_inspect.exe -- "$view" \
    -b 505.mcf -r 40 --json -o "$out_dir/inspect_$view.json" || {
    echo "FAIL: propeller_inspect $view --json exited non-zero" >&2
    exit 1
  }
  test -s "$out_dir/inspect_$view.json" || {
    echo "FAIL: empty inspect_$view.json" >&2
    exit 1
  }
done
dune exec bin/propeller_inspect.exe -- validate \
  "$out_dir/inspect_annotate.json" "$out_dir/inspect_size.json" \
  "$out_dir/inspect_paths.json" || {
  echo "FAIL: propeller_inspect validate rejected an emitted view" >&2
  exit 1
}

echo "== sampled profile-source smoke =="
# The software-sampler regime (ISSUE 8): --profile-source sampled must
# relink deterministically — byte-identical digest across reruns and
# pool widths — and print the sampler stats line; a bogus source name
# must be rejected with the valid set listed.
for tag in a b j1; do
  jobs=4; [ "$tag" = j1 ] && jobs=1
  dune exec bin/propeller_driver.exe -- \
    --benchmark 505.mcf --requests 40 --jobs "$jobs" \
    --profile-source sampled >"$out_dir/sampled_$tag.log"
done
grep -q 'software sampler:' "$out_dir/sampled_a.log" || {
  echo "FAIL: sampled driver printed no sampler stats line" >&2
  cat "$out_dir/sampled_a.log" >&2
  exit 1
}
grep -q 'source sampled' "$out_dir/sampled_a.log" || {
  echo "FAIL: sampled driver did not report its profile source" >&2
  exit 1
}
sa=$(grep '^image digest:' "$out_dir/sampled_a.log")
sb=$(grep '^image digest:' "$out_dir/sampled_b.log")
sj=$(grep '^image digest:' "$out_dir/sampled_j1.log")
test -n "$sa" || { echo "FAIL: sampled driver printed no image digest" >&2; exit 1; }
if [ "$sa" != "$sb" ] || [ "$sa" != "$sj" ]; then
  echo "FAIL: sampled relink is not deterministic across reruns/pool widths" >&2
  echo "  rerun a (jobs 4): $sa" >&2
  echo "  rerun b (jobs 4): $sb" >&2
  echo "  jobs 1:           $sj" >&2
  exit 1
fi
# The sampled profile must steer the layout somewhere else than the LBR
# profile does (the fidelity gap is nonzero by construction).
lbrd=$(grep '^image digest:' "$out_dir/driver_j1.log")
if [ "$sa" = "$lbrd" ]; then
  echo "FAIL: sampled and LBR profiles produced the same image (gap lost?)" >&2
  exit 1
fi
if dune exec bin/propeller_driver.exe -- \
  --benchmark 505.mcf --requests 40 --profile-source pebs \
  >"$out_dir/sampled_bad.log" 2>&1; then
  echo "FAIL: bogus --profile-source value was accepted" >&2
  exit 1
fi
grep -q 'lbr' "$out_dir/sampled_bad.log" || {
  echo "FAIL: bad --profile-source error does not list valid sources" >&2
  cat "$out_dir/sampled_bad.log" >&2
  exit 1
}

echo "== fidelity report smoke =="
# The LBR-vs-sampled gap experiment: JSON must re-parse with our own
# Obs.Json parser (the tool validates and prints the verdict) and carry
# both sides.
dune exec bin/propeller_stat.exe -- fidelity -b 505.mcf -r 20 \
  --json -o "$out_dir/fidelity.json" >"$out_dir/fidelity.log" || {
  echo "FAIL: propeller_stat fidelity exited non-zero" >&2
  cat "$out_dir/fidelity.log" >&2
  exit 1
}
test -s "$out_dir/fidelity.json" || { echo "FAIL: empty fidelity.json" >&2; exit 1; }
dune exec bin/propeller_inspect.exe -- validate "$out_dir/fidelity.json" || {
  echo "FAIL: fidelity JSON rejected by propeller_inspect validate" >&2
  exit 1
}
for key in '"lbr"' '"sampled"' '"weight_correlation"' '"cycle_gap_pct"'; do
  grep -q "$key" "$out_dir/fidelity.json" || {
    echo "FAIL: fidelity JSON missing $key" >&2
    exit 1
  }
done

echo "== layout policy smoke =="
# Every registered policy must drive the full relink via --layout-policy
# (ISSUE 10); keep this list in sync with Layout.Policy.names. The
# default run must be byte-identical to an explicit --layout-policy
# exttsp run (the policy API redesign may not move the default layout).
for pol in exttsp exttsp-linear callchain greedy hillclimb local-search; do
  dune exec bin/propeller_driver.exe -- \
    --benchmark 505.mcf --requests 40 --layout-policy "$pol" \
    >"$out_dir/policy_$pol.log" || {
    echo "FAIL: --layout-policy $pol run failed" >&2
    cat "$out_dir/policy_$pol.log" >&2
    exit 1
  }
  grep -q '^image digest:' "$out_dir/policy_$pol.log" || {
    echo "FAIL: --layout-policy $pol printed no image digest" >&2
    exit 1
  }
done
default_digest=$(grep '^image digest:' "$out_dir/driver_j1.log")
exttsp_digest=$(grep '^image digest:' "$out_dir/policy_exttsp.log")
if [ "$default_digest" != "$exttsp_digest" ]; then
  echo "FAIL: --layout-policy exttsp diverges from the default run" >&2
  echo "  default: $default_digest" >&2
  echo "  exttsp:  $exttsp_digest" >&2
  exit 1
fi
if dune exec bin/propeller_driver.exe -- \
  --benchmark 505.mcf --requests 40 --layout-policy pettis \
  >"$out_dir/policy_bad.log" 2>&1; then
  echo "FAIL: bogus --layout-policy value was accepted" >&2
  exit 1
fi
grep -q 'exttsp' "$out_dir/policy_bad.log" || {
  echo "FAIL: bad --layout-policy error does not list valid policies" >&2
  cat "$out_dir/policy_bad.log" >&2
  exit 1
}

echo "== layout search smoke =="
# Tiny-budget tournament: the JSON report must re-parse with our own
# parser and carry the exttsp baseline, a winner, and the quantified
# score-vs-cycles agreement.
dune exec bin/propeller_stat.exe -- search -b 505.mcf -r 20 --budget 7 \
  --json -o "$out_dir/search.json" >"$out_dir/search.log" || {
  echo "FAIL: propeller_stat search exited non-zero" >&2
  cat "$out_dir/search.log" >&2
  exit 1
}
test -s "$out_dir/search.json" || { echo "FAIL: empty search.json" >&2; exit 1; }
dune exec bin/propeller_inspect.exe -- validate "$out_dir/search.json" || {
  echo "FAIL: search JSON rejected by propeller_inspect validate" >&2
  exit 1
}
for key in '"winner_policy"' '"exttsp_po_cycles"' '"proxy_agreement"' '"entries"'; do
  grep -q "$key" "$out_dir/search.json" || {
    echo "FAIL: search JSON missing $key" >&2
    exit 1
  }
done

echo "== fault injection smoke =="
# Seeded fault plans replay byte-identically: the same --faults plan and
# seed print the same image digest and the same resilience line on every
# rerun; a degradation-free plan (no persistent failures, no shard
# drops) recovers the fault-free image bit for bit.
plan='action=0.2,persist=0.1,straggle=0.1,corrupt=0.15,shard-drop=0.1'
for seed in 7 11; do
  for rerun in a b; do
    dune exec bin/propeller_driver.exe -- \
      --benchmark 505.mcf --requests 40 \
      --faults "$plan" --seed "$seed" \
      --metrics-out "$out_dir/faults_${seed}_${rerun}.metrics.json" \
      >"$out_dir/faults_${seed}_${rerun}.log"
  done
  cmp -s "$out_dir/faults_${seed}_a.metrics.json" \
    "$out_dir/faults_${seed}_b.metrics.json" || {
    echo "FAIL: faulted metrics JSON differs across reruns (seed $seed)" >&2
    exit 1
  }
  grep -q '^resilience:' "$out_dir/faults_${seed}_a.log" || {
    echo "FAIL: faulted driver printed no resilience line (seed $seed)" >&2
    exit 1
  }
  da=$(grep '^image digest:' "$out_dir/faults_${seed}_a.log")
  db=$(grep '^image digest:' "$out_dir/faults_${seed}_b.log")
  ra=$(grep '^resilience:' "$out_dir/faults_${seed}_a.log")
  rb=$(grep '^resilience:' "$out_dir/faults_${seed}_b.log")
  test -n "$da" || { echo "FAIL: faulted driver printed no image digest" >&2; exit 1; }
  if [ "$da" != "$db" ] || [ "$ra" != "$rb" ]; then
    echo "FAIL: fault replay at seed $seed is not deterministic" >&2
    echo "  run a: $da / $ra" >&2
    echo "  run b: $db / $rb" >&2
    exit 1
  fi
done
dune exec bin/propeller_driver.exe -- \
  --benchmark 505.mcf --requests 40 \
  --faults 'seed=3,action=0.3,straggle=0.2,corrupt=0.3' \
  >"$out_dir/faults_nodeg.log"
clean=$(grep '^image digest:' "$out_dir/driver_j1.log")
nodeg=$(grep '^image digest:' "$out_dir/faults_nodeg.log")
if [ "$clean" != "$nodeg" ]; then
  echo "FAIL: degradation-free fault plan changed the image" >&2
  echo "  fault-free: $clean" >&2
  echo "  faulted:    $nodeg" >&2
  exit 1
fi

echo "== fleet continuous-relink smoke =="
# The continuous profile -> relink -> canary loop. A quiesced run
# (steady traffic, dense sampling, single-round window) must reach its
# fixed point within two relinks and produce a byte-identical JSON
# report on rerun; a sabotaged canary must be judged, rolled back, and
# leave its verdict in the flight-recorder dump.
for rerun in a b; do
  dune exec bin/propeller_fleet.exe -- run \
    -b 505.mcf -r 60 --machines 4 --cycles 3 --seed 7 \
    --lbr-period 1 --jitter 0 --window 1 \
    --json-out "$out_dir/fleet_$rerun.json" >"$out_dir/fleet_$rerun.log"
done
cmp -s "$out_dir/fleet_a.json" "$out_dir/fleet_b.json" || {
  echo "FAIL: fleet JSON report differs across identical reruns" >&2
  exit 1
}
grep -q '"converged":true' "$out_dir/fleet_a.json" || {
  echo "FAIL: quiesced fleet loop did not converge" >&2
  cat "$out_dir/fleet_a.log" >&2
  exit 1
}
grep -Eq '"converged_after_relinks":[12],' "$out_dir/fleet_a.json" || {
  echo "FAIL: fleet loop needed more than two relinks to converge" >&2
  cat "$out_dir/fleet_a.log" >&2
  exit 1
}
dune exec bin/propeller_fleet.exe -- run \
  -b 505.mcf -r 60 --machines 4 --cycles 2 --seed 7 \
  --lbr-period 1 --jitter 0 --window 1 --sabotage-cycle 2 \
  --json-out "$out_dir/fleet_sab.json" \
  >"$out_dir/fleet_sab.log" 2>"$out_dir/fleet_sab.err"
grep -q '"verdict":"rolled_back"' "$out_dir/fleet_sab.json" || {
  echo "FAIL: sabotaged canary was not rolled back" >&2
  cat "$out_dir/fleet_sab.log" >&2
  exit 1
}
grep -q '"rollbacks":1' "$out_dir/fleet_sab.json" || {
  echo "FAIL: sabotage drill recorded no rollback" >&2
  exit 1
}
grep -q 'fleet.rollback' "$out_dir/fleet_sab.err" || {
  echo "FAIL: rollback verdict missing from the flight-recorder dump" >&2
  cat "$out_dir/fleet_sab.err" >&2
  exit 1
}

echo "== bench regression gate =="
# Emit a fresh bench JSON for the small progen workload and diff it
# against the committed golden baseline; >5% regression fails the check.
# --jobs 1 pins the judged metrics to the sequential path (the parallel
# sweep inside the JSON is informational and not diffed).
dune exec bench/main.exe -- --jobs 1 \
  --json-out "$out_dir/bench.json" --json-bench 505.mcf --json-requests 40 \
  >"$out_dir/bench.log" 2>&1 || {
  echo "FAIL: bench --json-out run failed" >&2
  cat "$out_dir/bench.log" >&2
  exit 1
}
# The informational micro object (fast-path kernel timings) must ride
# along in every bench file.
grep -q '"micro"' "$out_dir/bench.json" || {
  echo "FAIL: bench JSON missing the micro kernel-timing object" >&2
  exit 1
}
# The informational layout_search object (schema v9) must ride along
# too, with a strict win recorded against the Ext-TSP baseline.
grep -q '"layout_search"' "$out_dir/bench.json" || {
  echo "FAIL: bench JSON missing the layout_search tournament object" >&2
  exit 1
}
scripts/bench_diff.sh bench/baseline.json "$out_dir/bench.json" 5 || {
  echo "FAIL: bench regression vs bench/baseline.json" >&2
  exit 1
}

echo "OK: state allowlist + build + tests + trace smoke + sampled smoke + fidelity smoke + policy smoke + search smoke + fault smoke + fleet smoke + bench gate all green"
