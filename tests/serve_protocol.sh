#!/usr/bin/env bash
# occamy-serve protocol checks, each under a timeout so a hung daemon
# fails the test instead of stalling the suite:
#  1. A finalize whose progress step would wrap the cycle counter
#     still ends in "finalized" then "bye", and malformed per-request
#     numbers ("-1", "abc", "") get a structured error while the
#     daemon keeps serving.
#  2. One spec, one result: serve's run of pair CV6+CV1 reports the
#     cycles occamy-sim reports for the same spec.
#  3. NDJSON parser fuzz: seeded single-byte mutations (XOR, delete,
#     truncate) of a request line with escapes each get exactly one
#     reply line, valid JSON carrying "ok", and the run ends in "bye"
#     with no sanitizer report.
#
# Usage: serve_protocol.sh <occamy-serve> <occamy-sim>   (exit 0 = pass)

set -u
serve="$1"
sim="$2"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fail=0
check() {   # check <description> <command...>
    local what="$1"
    shift
    if "$@"; then
        echo "ok: $what"
    else
        echo "FAIL: $what"
        fail=1
    fi
}
no_sanitizer_report() {
    ! grep -qiE 'sanitizer|runtime error' "$1"
}

# --- 1. wrapping cycle counts and malformed numbers ------------------
cat > "$work/hang.in" <<'EOF'
{"cmd":"load","id":"l"}
{"cmd":"step","cycles":"1000","id":"s"}
{"cmd":"finalize","progress_every":"-1","id":"bad1"}
{"cmd":"step","cycles":"abc","id":"bad2"}
{"cmd":"finalize","deadline_ms":"","id":"bad3"}
{"cmd":"pool","count":"-1","id":"bad4"}
{"cmd":"sweep","pairs":"6+16","policy":"occamy","jobs":"-1","id":"bad5"}
{"cmd":"run","progress_every":"x","id":"bad6"}
{"cmd":"finalize","progress_every":"18446744073709551615","id":"f"}
{"cmd":"shutdown","id":"bye"}
EOF
# A hung daemon streams progress lines without end: keep the first
# thousand (the daemon then dies of SIGPIPE) or stop it at the timeout.
timeout 60 "$serve" < "$work/hang.in" 2> "$work/hang.err" |
    head -n 1000 > "$work/hang.out"
check "wrapping finalize terminates with finalized then bye" \
    bash -c "grep -o '\"event\":\"[a-z_]*\"' '$work/hang.out' | tail -2 |
             tr '\n' ' ' | grep -q '\"event\":\"finalized\" \"event\":\"bye\"'"
check "wrapping finalize streams a bounded number of lines" \
    test "$(wc -l < "$work/hang.out")" -lt 20
for id in bad1 bad2 bad3 bad4 bad5 bad6; do
    check "malformed number ($id) is a structured error" \
        grep -q "\"id\":\"$id\",\"ok\":false,\"event\":\"error\"" \
        "$work/hang.out"
done
check "no pooled instances were booted by count -1" \
    bash -c "! grep -q '\"event\":\"pooled\"' '$work/hang.out'"
check "no sanitizer report (numbers)" no_sanitizer_report "$work/hang.err"

# --- 2. one spec, one result -----------------------------------------
printf '%s\n' '{"cmd":"run","policy":"occamy","pair":"CV6+CV1"}' \
    '{"cmd":"shutdown"}' |
    timeout 120 "$serve" > "$work/run.out" 2> "$work/run.err"
serve_cycles=$(grep -o '"event":"done".*' "$work/run.out" |
               grep -o '"cycles":[0-9]*' | head -1 | cut -d: -f2)
sim_cycles=$(timeout 120 "$sim" --opencv --pair 6+1 --policy occamy \
                 --json 2>/dev/null |
             grep -o '^{"cycles":[0-9]*' | cut -d: -f2)
check "serve and occamy-sim agree on CV6+CV1 cycles ($serve_cycles vs $sim_cycles)" \
    test -n "$serve_cycles" -a "$serve_cycles" = "$sim_cycles"

# --- 3. NDJSON parser byte fuzz --------------------------------------
python3 - "$work/fuzz.in" <<'EOF'
import random, sys
base = rb'{"cmd":"inspect","path":"sys\"tem","id":"a\\b"}'
rng = random.Random(20231018)
lines = []
while len(lines) < 300:
    b = bytearray(base)
    op = rng.randrange(3)
    i = rng.randrange(len(b))
    if op == 0:
        b[i] ^= rng.randrange(1, 256)
    elif op == 1:
        del b[i]
    else:
        del b[max(i, 1):]
    # One line in, one reply out: no embedded newline, no empty line
    # (the daemon skips those silently).
    if b"\n" in b or not b.strip():
        continue
    lines.append(bytes(b))
with open(sys.argv[1], "wb") as f:
    f.write(b"\n".join(lines) + b"\n" + b'{"cmd":"shutdown"}' + b"\n")
EOF
timeout 60 "$serve" < "$work/fuzz.in" > "$work/fuzz.out" \
    2> "$work/fuzz.err"
check "fuzz: one JSON reply with \"ok\" per line, then bye" \
    python3 - "$work/fuzz.in" "$work/fuzz.out" <<'EOF'
import json, sys
ins = open(sys.argv[1], "rb").read().split(b"\n")[:-1]
outs = open(sys.argv[2], "rb").read().split(b"\n")[:-1]
if len(outs) != len(ins):
    sys.exit("%d request lines, %d replies" % (len(ins), len(outs)))
for line in outs:
    reply = json.loads(line.decode("latin-1"))
    if "ok" not in reply:
        sys.exit("reply without ok: %r" % line)
if json.loads(outs[-1].decode("latin-1")).get("event") != "bye":
    sys.exit("last reply is not bye")
EOF
check "no sanitizer report (fuzz)" no_sanitizer_report "$work/fuzz.err"

exit "$fail"
