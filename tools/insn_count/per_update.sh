#!/usr/bin/env bash
# Host instructions per simulated Q-update of the SwiftRL kernel, counted
# by single-stepping (see insn_count.c).
#
#   tools/insn_count/per_update.sh <variant> <env> <tier> [target-dir]
#   tools/insn_count/per_update.sh SARSA-RAN-FP32 frozen_lake fast
#
# Runs the `single_dpu_run` example (one DPU, `Serial` engine, 100
# records, one launch) at 2 and at 6 episodes, counts the instructions of
# `<SwiftRlKernel as Kernel>::run` (tier `fast` or `reference`) or of
# `<SwiftRlKernel as BatchKernel>::run_batched` (tier `batched`), and
# prints the difference divided by the 400 extra updates. Build first:
#
#   cargo build --release --example single_dpu_run
#   cc -O2 -o "$target/insn_count" tools/insn_count/insn_count.c
set -euo pipefail
variant=$1 env=$2 tier=$3 target=${4:-target}
bin="$target/release/examples/single_dpu_run"
case "$tier" in
    batched) fn='<swiftrl_core::kernels::SwiftRlKernel as swiftrl_pim::batch::BatchKernel>::run_batched' ;;
    *) fn='<swiftrl_core::kernels::SwiftRlKernel as swiftrl_pim::kernel::Kernel>::run' ;;
esac
addr=$(nm -C "$bin" | awk -v fn="$fn" '{ a = $1; $1 = ""; $2 = ""; sub(/^  /, ""); if ($0 == fn) print a }')
[ -n "$addr" ] || { echo "no symbol $fn in $bin" >&2; exit 1; }
count() {
    "$target/insn_count" "$addr" "$bin" "$variant" "$env" "$tier" "$1" 2>&1 >/dev/null |
        sed -n 's/^insn_count: .*, \([0-9]*\) instruction(s)$/\1/p'
}
c2=$(count 2)
c6=$(count 6)
awk -v v="$variant $env $tier" -v a="$c2" -v b="$c6" \
    'BEGIN { printf "%s: %d at 2 episodes, %d at 6, %.1f per update\n", v, a, b, (b - a) / 400 }'
