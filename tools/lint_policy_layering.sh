#!/usr/bin/env bash
# Layering lint, three rules:
#  1. No code outside src/policy/ (and the display-name map in
#     src/common/config.cc) may branch on the SharingPolicy enum.
#     Storing or forwarding an enum value is fine — switching or
#     comparing on it is the smell this guards against, because such
#     logic belongs in a policy::SharingModel hook.
#  2. Tools assemble runs through the library (runner::build): no
#     tools/*.cc may call the System workload/dispatch setters or keep
#     a private copy of the shared helpers (lookupWorkload,
#     selectPairs, splitCommas, parsePolicy).
#  3. One dispatch path: nothing in src/ may name the retired
#     SchedPolicy batch-dispatch enum.
#  4. The job front-end stays machine-free: src/sim/front_end.* may
#     include no coproc/, core/, mem/ or sim/cluster_engine.hh header.
#
# Usage: lint_policy_layering.sh [repo-root]   (exit 0 = clean)

set -u
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

# Branching forms: `case SharingPolicy::X`, `== / != SharingPolicy::X`
# (either operand order), and `switch (<...>.policy)`.
patterns=(
    'case[[:space:]]+SharingPolicy::'
    '[=!]=[[:space:]]*SharingPolicy::'
    'SharingPolicy::[A-Za-z_]+[[:space:]]*[=!]='
    'switch[[:space:]]*\([^)]*policy'
)

fail=0
for pat in "${patterns[@]}"; do
    hits=$(grep -rnE "$pat" src \
               --include='*.cc' --include='*.hh' \
               | grep -v '^src/policy/' \
               | grep -v '^src/common/config\.cc:')
    if [ -n "$hits" ]; then
        echo "policy layering violation (pattern '$pat'):"
        echo "$hits"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo
    echo "SharingPolicy branching belongs in src/policy/ — add or use a"
    echo "policy::SharingModel hook instead of switching on the enum."
fi

tool_patterns=(
    '(\.|->)[[:space:]]*(setWorkload|enqueueWorkload|enqueueArrival|setDispatcher|setAdmission)[[:space:]]*\('
    '(^|[^:[:alnum:]_])(lookupWorkload|selectPairs|splitCommas|parsePolicy)[[:space:]]*\('
)
for pat in "${tool_patterns[@]}"; do
    hits=$(grep -nE "$pat" tools/*.cc)
    if [ -n "$hits" ]; then
        echo "tool layering violation (pattern '$pat'):"
        echo "$hits"
        echo "build runs with runner::build and use the library helpers"
        echo "(workloads::lookupWorkload, workloads::selectPairs,"
        echo "cliopts::splitCommas, runner::parsePolicy) instead of"
        echo "private copies."
        fail=1
    fi
done

hits=$(grep -rnE 'SchedPolicy|schedPolicy' src \
           --include='*.cc' --include='*.hh')
if [ -n "$hits" ]; then
    echo "dispatch layering violation: queued work dispatches only"
    echo "through the traffic::Dispatcher registry:"
    echo "$hits"
    fail=1
fi

hits=$(grep -nE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"(coproc/|core/|mem/|sim/cluster_engine\.hh)' \
           src/sim/front_end.*)
if [ -n "$hits" ]; then
    echo "front-end layering violation: the job front-end decides which"
    echo "job runs where and when, and knows nothing of the machine:"
    echo "$hits"
    fail=1
fi

[ "$fail" -ne 0 ] && exit 1
echo "policy layering: clean"
