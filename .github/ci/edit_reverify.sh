#!/usr/bin/env bash
# One-label edit against a warm store: after editing one label in a copy
# of the labeled CPU (same size, mtime restored), `svlc batch --store` must
# re-verify exactly that job and report it byte-identically (stable
# subset) to a `--no-store` run.
#
#   .github/ci/edit_reverify.sh ./build/tools/svlc
set -euo pipefail
SVLC=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/corpus"
cp hdl/*.svlc "$WORK/corpus/"
"$SVLC" dump-cpu labeled "$WORK/corpus/cpu_labeled.svlc" > /dev/null
batch() {
  "$SVLC" batch "$WORK/corpus/" --jobs "$(nproc)" --timeout-ms 600000 "$@" \
    > /dev/null
}
batch --store "$WORK/store"
# net_in {U} -> {T}: T flows to U, so only this job's source changes.
# The edit keeps the size, and the old mtime is put back, so size and
# mtime cannot tell the rewrite apart: the store must key on content.
CPU="$WORK/corpus/cpu_labeled.svlc"
before=$(stat -c '%s %y' "$CPU")
touch -r "$CPU" "$WORK/mtime.ref"
sed -i 's/{U} net_in/{T} net_in/' "$CPU"
touch -r "$WORK/mtime.ref" "$CPU"
[ "$(stat -c '%s %y' "$CPU")" = "$before" ]
batch --store "$WORK/store" --json "$WORK/warm.json"
batch --no-store --json "$WORK/fresh.json"
python3 - "$WORK" <<'PY'
import json, sys
work = sys.argv[1]
warm = json.load(open(work + "/warm.json"))["jobs"]
fresh = {j["name"]: j for j in json.load(open(work + "/fresh.json"))["jobs"]}
edited = work + "/corpus/cpu_labeled.svlc"
reverified = [j["name"] for j in warm if j.get("skipped") != "fingerprint-hit"]
print("re-verified:", reverified)
assert reverified == [edited], reverified

def stable(job):
    # The stable report subset: verdict fields only, no timings.
    keep = ("name", "status", "obligations", "failed", "downgrades",
            "diagnostics", "flagged")
    entry = {k: job[k] for k in keep if k in job}
    for rec in entry.get("flagged", []):
        rec.pop("solve_ms", None)
    return json.dumps(entry, sort_keys=True)

entry = next(j for j in warm if j["name"] == edited)
assert stable(entry) == stable(fresh[edited]), "store and --no-store reports differ"
print("report entry identical to --no-store")
PY
